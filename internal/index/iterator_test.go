package index

import (
	"math"
	"math/rand"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

func buildTestIndex(t testing.TB, texts ...string) *Index {
	t.Helper()
	docs := make([]corpus.Document, len(texts))
	for i, text := range texts {
		docs[i] = corpus.Document{Text: text}
	}
	an := textproc.NewAnalyzer(textproc.WithStemming(false))
	c, err := corpus.Build(docs, an, textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func randomList(rng *rand.Rand, n int) PostingList {
	pl := make(PostingList, 0, n)
	doc := corpus.DocID(0)
	for i := 0; i < n; i++ {
		doc += corpus.DocID(1 + rng.Intn(7))
		pl = append(pl, Posting{Doc: doc, TF: int32(1 + rng.Intn(5))})
	}
	return pl
}

func TestIteratorNextWalksWholeList(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pl := randomList(rng, 40)
	it := pl.Iter()
	for i, p := range pl {
		if !it.Valid() {
			t.Fatalf("iterator exhausted at %d/%d", i, len(pl))
		}
		if it.Doc() != p.Doc || it.TF() != p.TF {
			t.Fatalf("posting %d: got (%d,%d), want (%d,%d)", i, it.Doc(), it.TF(), p.Doc, p.TF)
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatal("iterator valid past the end")
	}
}

func TestIteratorEmptyList(t *testing.T) {
	it := PostingList(nil).Iter()
	if it.Valid() {
		t.Fatal("empty list iterator should be invalid")
	}
	if it.SeekGE(0) {
		t.Fatal("SeekGE on empty list should report false")
	}
	if it.Next() {
		t.Fatal("Next on empty list should report false")
	}
}

// TestIteratorSeekGEMatchesLinearScan cross-checks SeekGE (gallop +
// binary search) against a straightforward linear scan, including
// seeks backwards (no-ops), to present docs, to gaps, and past the end.
func TestIteratorSeekGEMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		pl := randomList(rng, 1+rng.Intn(60))
		it := pl.Iter()
		pos := 0
		for step := 0; step < 30; step++ {
			target := corpus.DocID(rng.Intn(int(pl[len(pl)-1].Doc) + 3))
			ok := it.SeekGE(target)
			// Reference: advance pos, never backwards.
			for pos < len(pl) && pl[pos].Doc < target {
				pos++
			}
			if ok != (pos < len(pl)) {
				t.Fatalf("trial %d: SeekGE(%d) = %v, scan says %v", trial, target, ok, pos < len(pl))
			}
			if ok && it.Doc() != pl[pos].Doc {
				t.Fatalf("trial %d: SeekGE(%d) landed on %d, scan on %d", trial, target, it.Doc(), pl[pos].Doc)
			}
			if !ok {
				break
			}
			// Occasionally interleave Next with seeks.
			if rng.Intn(3) == 0 {
				it.Next()
				pos++
			}
		}
	}
}

// TestIteratorSeekGEBlockBoundaries pins SeekGE behaviour at the exact
// edges of the block structure: targets equal to the first and last
// document of each block, a list whose length is an exact multiple of
// BlockSize (no partial final block), a list with a one-posting final
// partial block, and a single-block list.
func TestIteratorSeekGEBlockBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, BlockSize - 1, BlockSize, BlockSize + 1, 2 * BlockSize, 2*BlockSize + 1, 3*BlockSize - 1} {
		pl := randomList(rng, n)
		wantBlocks := (n + BlockSize - 1) / BlockSize
		for b := 0; b < wantBlocks; b++ {
			first := pl[b*BlockSize].Doc
			lastPos := (b+1)*BlockSize - 1
			if lastPos >= n {
				lastPos = n - 1
			}
			last := pl[lastPos].Doc
			for _, target := range []corpus.DocID{first, last, first - 1, last + 1} {
				it := pl.Iter()
				ok := it.SeekGE(target)
				pos := 0
				for pos < n && pl[pos].Doc < target {
					pos++
				}
				if ok != (pos < n) {
					t.Fatalf("n=%d block %d: SeekGE(%d) = %v, scan says %v", n, b, target, ok, pos < n)
				}
				if ok && it.Doc() != pl[pos].Doc {
					t.Fatalf("n=%d block %d: SeekGE(%d) landed on %d, scan on %d", n, b, target, it.Doc(), pl[pos].Doc)
				}
				if ok && it.BlockIndex() != pos/BlockSize {
					t.Fatalf("n=%d: BlockIndex at pos %d = %d", n, pos, it.BlockIndex())
				}
			}
			// Seeking to exactly the last doc of a block then advancing
			// must cross into the next block (or exhaust).
			it := pl.Iter()
			it.SeekGE(last)
			hadNext := it.Next()
			if want := lastPos+1 < n; hadNext != want {
				t.Fatalf("n=%d block %d: Next past block-last = %v, want %v", n, b, hadNext, want)
			}
		}
	}
}

// TestIteratorSkipBlock checks SkipBlock against the block layout:
// each skip lands on the next block's first posting and the final
// skip exhausts.
func TestIteratorSkipBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pl := randomList(rng, 2*BlockSize+17)
	const numBlocks = 3
	it := pl.Iter()
	for b := 0; b < numBlocks; b++ {
		if got := it.BlockIndex(); got != b {
			t.Fatalf("block %d: BlockIndex = %d", b, got)
		}
		lastPos := (b+1)*BlockSize - 1
		if lastPos >= len(pl) {
			lastPos = len(pl) - 1
		}
		if got, want := it.BlockLastDoc(), pl[lastPos].Doc; got != want {
			t.Fatalf("block %d: BlockLastDoc = %d, want %d", b, got, want)
		}
		ok := it.SkipBlock()
		if want := b+1 < numBlocks; ok != want {
			t.Fatalf("block %d: SkipBlock = %v, want %v", b, ok, want)
		}
		if ok && it.Doc() != pl[(b+1)*BlockSize].Doc {
			t.Fatalf("block %d: SkipBlock landed on doc %d, want %d", b, it.Doc(), pl[(b+1)*BlockSize].Doc)
		}
	}
	// Mid-block skip: position inside block 0, skip must still land on
	// block 1's first posting.
	it = pl.Iter()
	it.SeekGE(pl[BlockSize/2].Doc)
	if !it.SkipBlock() || it.Doc() != pl[BlockSize].Doc {
		t.Fatalf("mid-block SkipBlock landed on %d, want %d", it.Doc(), pl[BlockSize].Doc)
	}
}

// TestBuildBlockMaxes cross-checks Build's per-block metadata against
// a brute recomputation over each block's postings, and the term-level
// maxima against the maxima over blocks.
func TestBuildBlockMaxes(t *testing.T) {
	idx := buildTestIndex(t,
		"apache helicopter army weapons apache helicopter apache",
		"stock market investors trading volume stock",
		"apache webserver software configuration",
		"cooking recipes kitchen dinner helicopter",
	)
	norms := make([]float64, idx.NumDocs())
	for tid := 0; tid < idx.NumTerms(); tid++ {
		for _, p := range idx.Postings(textproc.TermID(tid)) {
			w := 1 + math.Log(float64(p.TF))
			norms[p.Doc] += w * w
		}
	}
	for d := range norms {
		norms[d] = math.Sqrt(norms[d])
	}
	for tid := 0; tid < idx.NumTerms(); tid++ {
		id := textproc.TermID(tid)
		pl := idx.Postings(id)
		blocks := idx.BlockMaxes(id)
		if want := (len(pl) + BlockSize - 1) / BlockSize; len(blocks) != want {
			t.Fatalf("term %d: %d blocks for %d postings", tid, len(blocks), len(pl))
		}
		var mtf int32
		mcos := 0.0
		for b, bm := range blocks {
			start, end := b*BlockSize, (b+1)*BlockSize
			if end > len(pl) {
				end = len(pl)
			}
			var wantTF int32
			wantCos := 0.0
			for _, p := range pl[start:end] {
				if p.TF > wantTF {
					wantTF = p.TF
				}
				if c := (1 + math.Log(float64(p.TF))) / norms[p.Doc]; c > wantCos {
					wantCos = c
				}
			}
			if bm.MaxTF != wantTF {
				t.Errorf("term %d block %d: MaxTF = %d, want %d", tid, b, bm.MaxTF, wantTF)
			}
			if math.Abs(bm.MaxCos-wantCos) > 1e-15 {
				t.Errorf("term %d block %d: MaxCos = %v, want %v", tid, b, bm.MaxCos, wantCos)
			}
			if got, want := bm.MaxBM, BM25TFBound(wantTF); math.Abs(got-want) > 1e-15 {
				t.Errorf("term %d block %d: MaxBM = %v, want %v", tid, b, got, want)
			}
			if bm.MaxTF > mtf {
				mtf = bm.MaxTF
			}
			if bm.MaxCos > mcos {
				mcos = bm.MaxCos
			}
		}
		if idx.MaxTF(id) != mtf {
			t.Errorf("term %d: term-level MaxTF %d != max over blocks %d", tid, idx.MaxTF(id), mtf)
		}
		if idx.MaxCosImpact(id) != mcos {
			t.Errorf("term %d: term-level MaxCos != max over blocks", tid)
		}
	}
	if idx.BlockMaxes(-1) != nil || idx.BlockMaxes(9999) != nil {
		t.Error("out-of-range term IDs must report nil blocks")
	}
}

// TestImpactMetadata verifies Build's per-term maxima against a brute
// recomputation from postings and document norms.
func TestImpactMetadata(t *testing.T) {
	idx := buildTestIndex(t,
		"apache helicopter army weapons apache helicopter apache",
		"stock market investors trading volume stock",
		"apache webserver software configuration",
		"cooking recipes kitchen dinner helicopter",
	)
	norms := make([]float64, idx.NumDocs())
	for tid := 0; tid < idx.NumTerms(); tid++ {
		for _, p := range idx.Postings(textproc.TermID(tid)) {
			w := 1 + math.Log(float64(p.TF))
			norms[p.Doc] += w * w
		}
	}
	for d := range norms {
		norms[d] = math.Sqrt(norms[d])
	}
	for tid := 0; tid < idx.NumTerms(); tid++ {
		var wantTF int32
		wantCos := 0.0
		for _, p := range idx.Postings(textproc.TermID(tid)) {
			if p.TF > wantTF {
				wantTF = p.TF
			}
			if c := (1 + math.Log(float64(p.TF))) / norms[p.Doc]; c > wantCos {
				wantCos = c
			}
		}
		id := textproc.TermID(tid)
		if got := idx.MaxTF(id); got != wantTF {
			t.Errorf("term %d: MaxTF = %d, want %d", tid, got, wantTF)
		}
		if got := idx.MaxCosImpact(id); math.Abs(got-wantCos) > 1e-15 {
			t.Errorf("term %d: MaxCosImpact = %v, want %v", tid, got, wantCos)
		}
		if got, want := idx.MaxBM25Impact(id), BM25TFBound(wantTF); math.Abs(got-want) > 1e-15 {
			t.Errorf("term %d: MaxBM25Impact = %v, want %v", tid, got, want)
		}
	}
	// Out-of-range IDs answer zero, like Postings.
	if idx.MaxTF(-1) != 0 || idx.MaxCosImpact(-1) != 0 || idx.MaxBM25Impact(9999) != 0 {
		t.Error("out-of-range term IDs must report zero impact")
	}
}

// TestBM25TFBoundDominates checks the length-free bound against the
// true saturation factor across tf, dl, and avgdl combinations.
func TestBM25TFBoundDominates(t *testing.T) {
	for tf := int32(1); tf <= 40; tf += 3 {
		bound := BM25TFBound(tf)
		for _, dl := range []float64{1, 10, 100, 1000} {
			for _, avg := range []float64{5, 50, 500} {
				sat := float64(tf) * (BM25K1 + 1) / (float64(tf) + BM25K1*(1-BM25B+BM25B*dl/avg))
				if sat > bound+1e-12 {
					t.Fatalf("tf=%d dl=%v avg=%v: sat %v exceeds bound %v", tf, dl, avg, sat, bound)
				}
			}
		}
	}
}
