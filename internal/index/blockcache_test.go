package index

import (
	"sync"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// TestBlockCacheSizing: capacity maps to slots, zero and negative
// capacities yield a nil (valid, inert) cache.
func TestBlockCacheSizing(t *testing.T) {
	if NewBlockCache(0) != nil || NewBlockCache(-1) != nil {
		t.Fatal("non-positive capacity must yield a nil cache")
	}
	c := NewBlockCache(1) // under one slot's cost: still one slot
	if s := c.Stats(); s.Slots != 1 {
		t.Fatalf("minimum cache has %d slots, want 1", s.Slots)
	}
	c = NewBlockCache(10 * slotCostBytes)
	if s := c.Stats(); s.Slots != 10 || s.Bytes != 10*slotCostBytes {
		t.Fatalf("slots=%d bytes=%d, want 10/%d", s.Slots, s.Bytes, 10*slotCostBytes)
	}
	var nilCache *BlockCache
	if s := nilCache.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
}

// TestBlockCacheHitMissEviction exercises the CLOCK ring directly:
// misses fill slots, refills hit, and overflow evicts without losing
// the newest entries' integrity.
func TestBlockCacheHitMissEviction(t *testing.T) {
	c := NewBlockCache(2 * slotCostBytes) // exactly two slots
	owner := c.RegisterOwner()
	var docs [BlockSize]corpus.DocID
	var tfs [BlockSize]int32
	fill := func(seed corpus.DocID) (*[BlockSize]corpus.DocID, *[BlockSize]int32) {
		var d [BlockSize]corpus.DocID
		var f [BlockSize]int32
		for i := range d {
			d[i] = seed + corpus.DocID(i)
			f[i] = int32(seed%7) + 1
		}
		return &d, &f
	}
	key := func(b int32) cacheKey { return cacheKey{owner: owner, term: 1, block: b} }

	if _, ok := c.get(key(0), &docs, &tfs); ok {
		t.Fatal("empty cache reported a hit")
	}
	d0, f0 := fill(100)
	c.put(key(0), d0, f0, BlockSize)
	n, ok := c.get(key(0), &docs, &tfs)
	if !ok || n != BlockSize || docs[0] != 100 || docs[BlockSize-1] != 100+BlockSize-1 || tfs[0] != f0[0] {
		t.Fatalf("hit returned n=%d ok=%v docs[0]=%d", n, ok, docs[0])
	}
	// Duplicate put is a benign no-op.
	c.put(key(0), d0, f0, BlockSize)
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("duplicate put grew entries to %d", s.Entries)
	}
	// Fill the second slot, then a third insert must evict.
	d1, f1 := fill(500)
	c.put(key(1), d1, f1, 7)
	d2, f2 := fill(900)
	c.put(key(2), d2, f2, BlockSize)
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("after overflow: evictions=%d entries=%d", s.Evictions, s.Entries)
	}
	// The newest entry must be present and intact (partial block: only
	// n postings are copied back).
	if n, ok := c.get(key(2), &docs, &tfs); !ok || n != BlockSize || docs[0] != 900 {
		t.Fatalf("newest entry lost: n=%d ok=%v", n, ok)
	}
	if s := c.Stats(); s.Hits < 2 || s.Misses < 1 {
		t.Fatalf("counters hits=%d misses=%d", s.Hits, s.Misses)
	}
}

// TestBlockCacheDropOwner: dropping one owner's namespace purges its
// entries and leaves the other owner's untouched.
func TestBlockCacheDropOwner(t *testing.T) {
	c := NewBlockCache(8 * slotCostBytes)
	a, b := c.RegisterOwner(), c.RegisterOwner()
	if a == b {
		t.Fatal("owners must be distinct")
	}
	var d [BlockSize]corpus.DocID
	var f [BlockSize]int32
	d[0] = 42
	c.put(cacheKey{owner: a, term: 1, block: 0}, &d, &f, 1)
	c.put(cacheKey{owner: b, term: 1, block: 0}, &d, &f, 1)
	c.DropOwner(a)
	if _, ok := c.get(cacheKey{owner: a, term: 1, block: 0}, &d, &f); ok {
		t.Fatal("dropped owner's entry still served")
	}
	if _, ok := c.get(cacheKey{owner: b, term: 1, block: 0}, &d, &f); !ok {
		t.Fatal("surviving owner's entry purged")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("entries=%d after drop, want 1", s.Entries)
	}
}

// TestCachedIteratorEquivalence attaches a cache to a multi-block
// index and traverses every list twice — a cold pass that fills the
// cache and a warm pass served from it. Both must reproduce
// Postings() exactly, and the warm pass must actually hit.
func TestCachedIteratorEquivalence(t *testing.T) {
	x := multiBlockIndex(t)
	c := NewBlockCache(1 << 20)
	x.AttachCache(c)
	defer x.DropCache()
	for pass := 0; pass < 2; pass++ {
		for tid := 0; tid < x.NumTerms(); tid++ {
			want := x.Postings(textproc.TermID(tid))
			it := x.Iter(textproc.TermID(tid))
			for i, p := range want {
				if !it.Valid() || it.Doc() != p.Doc || it.TF() != p.TF {
					t.Fatalf("pass %d term %d posting %d: got (%d,%d,%v), want %v",
						pass, tid, i, it.Doc(), it.TF(), it.Valid(), p)
				}
				it.Next()
			}
			if it.Valid() {
				t.Fatalf("pass %d term %d: iterator past the end", pass, tid)
			}
		}
	}
	s := c.Stats()
	if s.Hits == 0 {
		t.Fatal("warm pass never hit the cache")
	}
	if s.Misses == 0 {
		t.Fatal("cold pass never missed (cache not consulted?)")
	}
}

// TestCachedIteratorTinyCache forces constant eviction (one slot) and
// still requires exact traversal — correctness must not depend on
// residency.
func TestCachedIteratorTinyCache(t *testing.T) {
	x := multiBlockIndex(t)
	c := NewBlockCache(1)
	x.AttachCache(c)
	defer x.DropCache()
	for tid := 0; tid < x.NumTerms(); tid++ {
		want := x.Postings(textproc.TermID(tid))
		it := x.Iter(textproc.TermID(tid))
		for i, p := range want {
			if !it.Valid() || it.Doc() != p.Doc || it.TF() != p.TF {
				t.Fatalf("term %d posting %d mismatch under eviction churn", tid, i)
			}
			it.Next()
		}
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("one-slot cache over a multi-block index must evict")
	}
}

// TestBlockCacheConcurrent hammers one shared cache from many
// goroutines across two attached indexes — the race detector build in
// CI turns any locking hole into a failure.
func TestBlockCacheConcurrent(t *testing.T) {
	x := multiBlockIndex(t)
	y := multiBlockIndex(t)
	// Big enough to hold both indexes' blocks: cyclic traversal over a
	// working set larger than the ring is CLOCK's zero-hit worst case,
	// which would make the hit assertion below flaky-by-interleaving.
	c := NewBlockCache(2 << 20)
	x.AttachCache(c)
	y.AttachCache(c)
	defer x.DropCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ix := x
			if g%2 == 1 {
				ix = y
			}
			for rep := 0; rep < 20; rep++ {
				for tid := 0; tid < ix.NumTerms(); tid++ {
					n := 0
					for it := ix.Iter(textproc.TermID(tid)); it.Valid(); it.Next() {
						n++
					}
					if n != ix.DocFreq(textproc.TermID(tid)) {
						t.Errorf("goroutine %d: term %d count %d", g, tid, n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	y.DropCache()
	if s := c.Stats(); s.Hits == 0 {
		t.Fatal("concurrent traversals never hit")
	}
}
