package segment

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

func corpusDoc(title, text string) corpus.Document {
	return corpus.Document{Title: title, Text: text}
}

// saveMappedFixture builds a store with sealed segments and tombstones,
// saves it, and returns the directory plus the documents and analyzer
// used, so callers can reload it under different open modes.
func saveMappedFixture(t *testing.T, scoring vsm.Scoring, seed int64) (string, []string, *textproc.Analyzer) {
	t.Helper()
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, 60, seed)
	st, err := Open(Config{Analyzer: an, Scoring: scoring, SealThreshold: 9, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := st.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	// Tombstone a spread of documents so the deletion filter is live in
	// every open mode.
	for i := 3; i < len(ids); i += 11 {
		if err := st.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	rng := rand.New(rand.NewSource(seed))
	var queries []string
	for qi := 0; qi < 12; qi++ {
		queries = append(queries, queryFrom(docs[rng.Intn(len(docs))], rng.Intn(25), 3+rng.Intn(3)))
	}
	queries = append(queries, "zzzzunseenterm", "")
	return dir, queries, an
}

// TestMappedStoreBitIdentical is the mapped open path's end-to-end
// guarantee: a store loaded with Mapped (with and without a block
// cache) returns bit-identical results — same documents, same float64
// scores, no tolerance — to the same directory loaded in-memory,
// across scorers, k values, and tombstoned documents.
func TestMappedStoreBitIdentical(t *testing.T) {
	for _, scoring := range []vsm.Scoring{vsm.Cosine, vsm.BM25} {
		dir, queries, an := saveMappedFixture(t, scoring, 40+int64(scoring))

		mem, err := Load(dir, Config{Analyzer: an, DisableCompaction: true})
		if err != nil {
			t.Fatal(err)
		}
		defer mem.Close()
		mapped, err := Load(dir, Config{Analyzer: an, DisableCompaction: true, Mapped: true})
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		cached, err := Load(dir, Config{Analyzer: an, DisableCompaction: true, Mapped: true, CacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer cached.Close()

		for qi, q := range queries {
			terms := an.Analyze(q)
			for _, k := range []int{5, 20} {
				want := mustSearch(t, mem, vsm.Request{Terms: terms, K: k})
				// Two passes over the cached store: the second is served
				// (partly) from the block cache and must not drift.
				for _, st := range []*Store{mapped, cached, cached} {
					got := mustSearch(t, st, vsm.Request{Terms: terms, K: k})
					if len(got) != len(want) {
						t.Fatalf("scoring %v q%d k=%d: %d results vs %d in-memory",
							scoring, qi, k, len(got), len(want))
					}
					for i := range got {
						if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
							t.Fatalf("scoring %v q%d k=%d rank %d: (%d,%v) vs in-memory (%d,%v)",
								scoring, qi, k, i, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score)
						}
					}
				}
			}
		}

		// The cached store must expose cache telemetry; the plain stores
		// must not.
		if _, ok := mem.CacheStats(); ok {
			t.Fatal("in-memory store reports a block cache")
		}
		cs, ok := cached.CacheStats()
		if !ok {
			t.Fatal("Mapped+CacheBytes store has no cache stats")
		}
		if cs.Hits == 0 || cs.Misses == 0 {
			t.Fatalf("cache never exercised: %+v", cs)
		}
		// Residency: the in-memory store holds every posting on the heap;
		// the mapped store's payloads are disk views, so its resident
		// figure must be strictly smaller (possibly zero). The cached
		// store additionally accounts its pinned slots.
		ms, is, chs := mapped.ComputeStats(), mem.ComputeStats(), cached.ComputeStats()
		if is.ResidentBytes <= 0 {
			t.Fatalf("in-memory residency unreported: %d", is.ResidentBytes)
		}
		if ms.ResidentBytes < 0 || ms.ResidentBytes >= is.ResidentBytes {
			t.Fatalf("mapped store resident %d, in-memory %d", ms.ResidentBytes, is.ResidentBytes)
		}
		if chs.ResidentBytes <= ms.ResidentBytes {
			t.Fatalf("cached store resident %d does not account cache slots (mapped %d)",
				chs.ResidentBytes, ms.ResidentBytes)
		}
	}
}

// TestMappedCacheSurvivesCompaction guards against the cache going
// permanently dead after a compaction: retired parts must have their
// entries purged, but the merged segment (and segments sealed after
// load) must attach to the same cache, so post-compaction queries
// repopulate it and hit. Searches run concurrently with the compaction
// to exercise the atomic cache detach under the race detector.
func TestMappedCacheSurvivesCompaction(t *testing.T) {
	dir, queries, an := saveMappedFixture(t, vsm.Cosine, 99)
	mem, err := Load(dir, Config{Analyzer: an, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	cached, err := Load(dir, Config{Analyzer: an, DisableCompaction: true, Mapped: true, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()

	// Grow both stores identically past load, then seal: the new
	// segment must join the cache too (attach-on-seal).
	extra := synthDocs(t, 12, 77)
	for _, st := range []*Store{mem, cached} {
		if _, err := st.Add(extra...); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Warm the cache, then merge everything down while searches are in
	// flight against the pre-compaction stack.
	for _, q := range queries {
		mustSearch(t, cached, vsm.Request{Query: q, K: 10})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, q := range queries {
					mustSearch(t, cached, vsm.Request{Query: q, K: 10})
				}
			}
		}()
	}
	if err := cached.Compact(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	before, ok := cached.CacheStats()
	if !ok {
		t.Fatal("cache telemetry lost after compaction")
	}
	// Post-compaction queries must still be bit-identical to the
	// (uncompacted) in-memory oracle, and must flow through the cache:
	// the first pass repopulates, the second hits.
	for qi, q := range queries {
		terms := an.Analyze(q)
		want := mustSearch(t, mem, vsm.Request{Terms: terms, K: 10})
		for pass := 0; pass < 2; pass++ {
			got := mustSearch(t, cached, vsm.Request{Terms: terms, K: 10})
			if len(got) != len(want) {
				t.Fatalf("q%d pass %d: %d results vs %d in-memory", qi, pass, len(got), len(want))
			}
			for i := range got {
				if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
					t.Fatalf("q%d pass %d rank %d: (%d,%v) vs in-memory (%d,%v)",
						qi, pass, i, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score)
				}
			}
		}
	}
	after, _ := cached.CacheStats()
	if after.Entries == 0 {
		t.Fatalf("cache dead after compaction: %+v", after)
	}
	if after.Hits <= before.Hits {
		t.Fatalf("merged segment never hit the cache: before %+v after %+v", before, after)
	}
}

// TestMappedStoreRejectsCorruptSegment damages a saved segment file and
// requires the mapped Load to fail cleanly: truncation and header
// corruption must surface as errors at open, never as a panic or a
// silently wrong store.
func TestMappedStoreRejectsCorruptSegment(t *testing.T) {
	dir, _, an := saveMappedFixture(t, vsm.Cosine, 7)
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.tpix"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files saved (err=%v)", err)
	}
	orig, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(segs[0], orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mutations := map[string][]byte{
		"truncated":     orig[:len(orig)/2],
		"empty":         {},
		"magic flipped": append([]byte{'X'}, orig[1:]...),
	}
	for name, mut := range mutations {
		if err := os.WriteFile(segs[0], mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, Config{Analyzer: an, Mapped: true}); err == nil {
			t.Fatalf("%s segment accepted by mapped Load", name)
		}
		if _, err := Load(dir, Config{Analyzer: an}); err == nil {
			t.Fatalf("%s segment accepted by in-memory Load", name)
		}
	}
	// A segment written by another build's format version: the error
	// names the file and both versions, so an operator knows which data
	// directory to rebuild.
	old := append([]byte(nil), orig...)
	old[4] = 7
	if err := os.WriteFile(segs[0], old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{true, false} {
		_, err := Load(dir, Config{Analyzer: an, Mapped: mapped})
		if err == nil || !strings.Contains(err.Error(), filepath.Base(segs[0])) ||
			!strings.Contains(err.Error(), "TPIX version 7: this build reads version 8 only") {
			t.Fatalf("old-version segment (mapped=%v): err = %v, want the file name and both versions", mapped, err)
		}
	}
	restore()
	st, err := Load(dir, Config{Analyzer: an, Mapped: true})
	if err != nil {
		t.Fatalf("restored directory must load: %v", err)
	}
	st.Close()
}

// TestBloomSkipsSegments builds two sealed segments with (partially)
// disjoint vocabularies. The first segment is sealed before the second
// batch's terms enter the dictionary, so its persisted bloom cannot
// contain them: querying a second-batch-only term must skip the first
// segment — observable via BloomSkips — while returning exactly the
// results the full scan would.
func TestBloomSkipsSegments(t *testing.T) {
	an := textproc.NewAnalyzer()
	st, err := Open(Config{Analyzer: an, SealThreshold: 1 << 30, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Add(
		corpusDoc("d0", "apache helicopter army weapons deployment"),
		corpusDoc("d1", "apache webserver configuration modules"),
	); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil { // seals segment 0: vocab has no finance terms yet
		t.Fatal(err)
	}
	if _, err := st.Add(
		corpusDoc("d2", "stock market investors trading volume"),
		corpusDoc("d3", "market portfolio dividend yield investors"),
	); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.BloomSkips() != 0 {
		t.Fatalf("skips before any query: %d", st.BloomSkips())
	}
	// "dividend" exists only in the second batch; segment 0's bloom was
	// built from a vocabulary that predates it.
	res := mustSearch(t, st, vsm.Request{Query: "dividend yield", K: 10})
	if len(res) != 1 {
		t.Fatalf("dividend yield returned %d docs, want 1", len(res))
	}
	skips := st.BloomSkips()
	if skips == 0 {
		t.Fatal("query with terms absent from segment 0 did not skip it")
	}
	// A term present in both segments' vocabularies must not skip and
	// must still retrieve across segments.
	if got := mustSearch(t, st, vsm.Request{Query: "apache", K: 10}); len(got) != 2 {
		t.Fatalf("apache returned %d docs, want 2", len(got))
	}
	if st.BloomSkips() != skips {
		t.Fatalf("apache query skipped a segment: %d -> %d", skips, st.BloomSkips())
	}
	// Unknown terms skip every sealed segment and return nothing.
	if got := mustSearch(t, st, vsm.Request{Query: "zzzzunseenterm", K: 10}); len(got) != 0 {
		t.Fatalf("unseen term returned %d docs", len(got))
	}
	if st.BloomSkips() <= skips {
		t.Fatal("unseen-term query did not skip sealed segments")
	}
}
