package index

import (
	"math/rand"
	"testing"
)

// compressedRandomList builds a compressed list of n random postings,
// the slab it lies in, and the decoded reference.
func compressedRandomList(rng *rand.Rand, n int) ([]byte, compList, PostingList) {
	pl := randomList(rng, n)
	cl, slab, err := encodePostings(pl, nil)
	if err != nil {
		panic(err)
	}
	return slab, cl, pl
}

// TestCompIteratorMatchesSlice walks a compressed iterator against the
// slice reference through both primitives: Next and Window
// consumption.
func TestCompIteratorMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 3, BlockSize - 1, BlockSize, BlockSize + 1, 2 * BlockSize, 5*BlockSize + 17} {
		slab, cl, pl := compressedRandomList(rng, n)
		// Full Next walk.
		var it Iterator
		it.reset(slab, cl)
		for i, p := range pl {
			if !it.Valid() || it.Doc() != p.Doc || it.TF() != p.TF {
				t.Fatalf("n=%d next-walk posting %d mismatch", n, i)
			}
			it.Next()
		}
		if it.Valid() {
			t.Fatalf("n=%d: iterator valid past end", n)
		}
		// Window walk.
		it.reset(slab, cl)
		i := 0
		for it.Valid() {
			docs, tfs := it.Window()
			for j := range docs {
				if docs[j] != pl[i].Doc || tfs[j] != pl[i].TF {
					t.Fatalf("n=%d window posting %d mismatch", n, i)
				}
				i++
			}
			if !it.NextWindow() {
				break
			}
		}
		if i != n {
			t.Fatalf("n=%d: windows yielded %d postings", n, i)
		}
	}
}

// BenchmarkDecodeTraversal measures raw block-decode throughput: a
// full Window walk over a long compressed list (every doc and tf
// decoded).
func BenchmarkDecodeTraversal(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	const nBlocks = 256
	slab, cl, _ := compressedRandomList(rng, nBlocks*BlockSize)
	b.Run("full", func(b *testing.B) {
		b.SetBytes(int64(cl.n) * 8)
		sum := int64(0)
		var it Iterator
		for i := 0; i < b.N; i++ {
			it.reset(slab, cl)
			for it.Valid() {
				docs, tfs := it.Window()
				for j := range docs {
					sum += int64(docs[j]) + int64(tfs[j])
				}
				if !it.NextWindow() {
					break
				}
			}
		}
		_ = sum
	})
}

// TestCompIteratorStaysExhausted: once a compressed iterator is
// exhausted, every further operation must keep it exhausted, exactly
// like slice mode. A stale block pointer used to let Next reload a
// mid-list block and walk the cursor backwards.
func TestCompIteratorStaysExhausted(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	slab, cl, _ := compressedRandomList(rng, 4*BlockSize)
	var it Iterator
	it.reset(slab, cl)
	for it.NextWindow() {
	}
	for step := 0; step < 3; step++ {
		if it.Next() || it.Valid() {
			t.Fatalf("step %d: Next resurrected an exhausted iterator", step)
		}
	}
	if it.NextWindow() || it.Valid() {
		t.Fatal("exhausted iterator came back to life")
	}
}
