package index

import (
	"math/rand"
	"testing"

	"toppriv/internal/corpus"
)

// compressedRandomList builds a compressed list of n random postings
// plus the decoded reference.
func compressedRandomList(rng *rand.Rand, n int) (compList, PostingList) {
	pl := randomList(rng, n)
	return encodePostings(pl), pl
}

// TestCompIteratorMatchesSlice walks a compressed iterator against the
// slice reference through every primitive: Next, SeekGE at random
// targets, SkipBlock, and Window consumption.
func TestCompIteratorMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 3, BlockSize - 1, BlockSize, BlockSize + 1, 2 * BlockSize, 5*BlockSize + 17} {
		cl, pl := compressedRandomList(rng, n)
		// Full Next walk.
		it := newCompIterator(&cl)
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
		it = newCompIterator(&cl)
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
		// Random interleaved seeks vs linear scan.
		it = newCompIterator(&cl)
		pos := 0
		for step := 0; step < 60 && pos < n; step++ {
			target := corpus.DocID(rng.Intn(int(pl[n-1].Doc) + 3))
			ok := it.SeekGE(target)
			for pos < n && pl[pos].Doc < target {
				pos++
			}
			if ok != (pos < n) {
				t.Fatalf("n=%d SeekGE(%d): ok=%v scan=%v", n, target, ok, pos < n)
			}
			if !ok {
				break
			}
			if it.Doc() != pl[pos].Doc || it.TF() != pl[pos].TF {
				t.Fatalf("n=%d SeekGE(%d) landed on %d, scan %d", n, target, it.Doc(), pl[pos].Doc)
			}
			if rng.Intn(3) == 0 {
				it.Next()
				pos++
			}
		}
	}
}

// TestSeekAfterSkipProbeCounts is the regression test for the
// seek-after-skip cost: after SkipBlock, a SeekGE to a document inside
// the next few blocks must resume its search from the current block —
// a bounded number of probes per seek, independent of how far into the
// list the cursor is. A search that restarted from the list head would
// grow with the cursor position and trip the budget.
func TestSeekAfterSkipProbeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const nBlocks = 64
	cl, pl := compressedRandomList(rng, nBlocks*BlockSize)
	it := newCompIterator(&cl)
	seeks := 0
	for it.Valid() {
		if !it.SkipBlock() {
			break
		}
		// Seek to the middle of the block just entered: the target is
		// at most one block ahead of the cursor.
		mid := pl[it.BlockIndex()*BlockSize+BlockSize/2].Doc
		before := it.SeekProbes()
		if !it.SeekGE(mid) {
			t.Fatal("mid-block seek fell off the list")
		}
		probes := it.SeekProbes() - before
		// Bounded by the in-window binary search (log2 128 = 7) plus a
		// constant number of current-position and block-metadata
		// probes. 16 is generous; restarting from the list head would
		// cost ~log2(position) block probes and grow past it.
		if probes > 16 {
			t.Fatalf("seek-after-skip #%d took %d probes (budget 16) — search no longer resumes from the current block", seeks, probes)
		}
		seeks++
	}
	if seeks < nBlocks/2 {
		t.Fatalf("only %d seek-after-skip iterations exercised", seeks)
	}
}

// BenchmarkSeekAfterSkip is the wall-clock form of the probe-count
// regression test: a SkipBlock→SeekGE stride over a long compressed
// list, the access pattern of a pruned traversal. probes/op is
// reported so the bench record catches cost-model regressions too.
func BenchmarkSeekAfterSkip(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	const nBlocks = 256
	cl, pl := compressedRandomList(rng, nBlocks*BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	probes := 0
	for i := 0; i < b.N; i++ {
		it := newCompIterator(&cl)
		for it.Valid() {
			if !it.SkipBlock() {
				break
			}
			bi := it.BlockIndex()
			if !it.SeekGE(pl[bi*BlockSize+BlockSize/2].Doc) {
				break
			}
		}
		probes = it.SeekProbes()
	}
	b.ReportMetric(float64(probes)/nBlocks, "probes/seek")
}

// BenchmarkDecodeTraversal measures raw block-decode throughput: a
// full Window walk over a long compressed list (every doc and tf
// decoded), and a skip walk that touches only block metadata — the
// gap between them is the decode work skipping saves on long
// lists.
func BenchmarkDecodeTraversal(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	const nBlocks = 256
	cl, pl := compressedRandomList(rng, nBlocks*BlockSize)
	b.Run("full", func(b *testing.B) {
		b.SetBytes(int64(cl.n) * 8)
		sum := int64(0)
		for i := 0; i < b.N; i++ {
			it := newCompIterator(&cl)
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
	b.Run("skip", func(b *testing.B) {
		// Stride-4 seeks: three of every four blocks are crossed on
		// their last-doc metadata alone and never decoded.
		b.SetBytes(int64(cl.n) * 8)
		for i := 0; i < b.N; i++ {
			it := newCompIterator(&cl)
			for it.Valid() {
				next := (it.BlockIndex() + 4) * BlockSize
				if next >= int(cl.n) {
					break
				}
				if !it.SeekGE(pl[next].Doc) {
					break
				}
			}
		}
	})
}

// TestSkipBlockAlignedListLength pins the boundary where a slice-mode
// list's length is an exact multiple of BlockSize: skipping out of the
// final block must exhaust cleanly (it used to read one past the end).
func TestSkipBlockAlignedListLength(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, nb := range []int{1, 2, 3} {
		pl := randomList(rng, nb*BlockSize)
		it := pl.Iter()
		for b := 0; b < nb-1; b++ {
			if !it.SkipBlock() {
				t.Fatalf("nb=%d: exhausted after %d skips", nb, b+1)
			}
		}
		if it.SkipBlock() {
			t.Fatalf("nb=%d: skip out of the final block must exhaust", nb)
		}
		if it.Valid() {
			t.Fatalf("nb=%d: iterator valid after exhausting skip", nb)
		}
	}
}

// TestCompIteratorStaysExhausted: once any operation exhausts a
// compressed iterator — including a SeekGE past the last document
// from an early block — every further operation must keep it
// exhausted, exactly like slice mode. A stale block pointer used to
// let Next reload a mid-list block and walk the cursor backwards.
func TestCompIteratorStaysExhausted(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	cl, pl := compressedRandomList(rng, 4*BlockSize)
	it := newCompIterator(&cl)
	if it.SeekGE(pl[len(pl)-1].Doc + 1) {
		t.Fatal("seek past the last doc must exhaust")
	}
	for step := 0; step < 3; step++ {
		if it.Next() || it.Valid() {
			t.Fatalf("step %d: Next resurrected an exhausted iterator", step)
		}
	}
	if it.NextWindow() || it.SeekGE(0) || it.Valid() {
		t.Fatal("exhausted iterator came back to life")
	}
}
