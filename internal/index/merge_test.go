package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// buildCorpus analyzes docs with a fresh default analyzer, no pruning.
func buildCorpus(t *testing.T, texts []string) *corpus.Corpus {
	t.Helper()
	docs := make([]corpus.Document, len(texts))
	for i, txt := range texts {
		docs[i] = corpus.Document{Title: fmt.Sprintf("d%d", i), Text: txt}
	}
	c, err := corpus.Build(docs, textproc.NewAnalyzer(), textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMergeRefusesForeignVocabulary merges indexes built over two
// independent dictionaries — term 0 of one is not term 0 of the other —
// and requires an error, in either order, rather than a merge that files
// one term's postings under another. An index merged with itself shares
// its dictionary and is accepted.
func TestMergeRefusesForeignVocabulary(t *testing.T) {
	left, err := Build(buildCorpus(t, []string{
		"submarine propulsion reactor cooling systems",
		"reactor fuel rods and cooling towers",
		"helicopter rotor blade maintenance",
	}))
	if err != nil {
		t.Fatal(err)
	}
	right, err := Build(buildCorpus(t, []string{
		"cooling pumps for reactor loops",
		"sonar arrays aboard the submarine fleet",
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range [][]*Index{{left, right}, {right, left}} {
		if _, _, err := Merge(parts, nil); err == nil || !strings.Contains(err.Error(), "dictionary") {
			t.Fatalf("merge over foreign vocabularies: err = %v, want a dictionary error", err)
		}
	}
	if _, _, err := Merge([]*Index{left, left}, nil); err != nil {
		t.Fatalf("merge of an index with itself: %v", err)
	}
}

func TestMergeDropsTombstonedDocs(t *testing.T) {
	c := buildCorpus(t, []string{
		"alpha bravo charlie",
		"bravo delta echo",
		"charlie echo foxtrot",
	})
	idx, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	keep := []func(corpus.DocID) bool{func(d corpus.DocID) bool { return d != 1 }}
	merged, remap, err := Merge([]*Index{idx}, keep)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d, want 2", merged.NumDocs())
	}
	if remap[0][1] != DroppedDoc {
		t.Fatalf("doc 1 not dropped: %d", remap[0][1])
	}
	if remap[0][0] != 0 || remap[0][2] != 1 {
		t.Fatalf("unexpected remap %v", remap[0])
	}
	// Terms unique to the dropped doc keep their vocab slot but have no
	// postings left.
	an := textproc.NewAnalyzer()
	delta := an.Analyze("delta")[0]
	if id := merged.Vocab().ID(delta); id == textproc.InvalidTerm {
		t.Fatalf("term %q should stay interned", delta)
	} else if got := merged.DocFreq(id); got != 0 {
		t.Fatalf("dropped-doc term df = %d, want 0", got)
	}
}

func TestMergeErrors(t *testing.T) {
	if _, _, err := Merge(nil, nil); err == nil {
		t.Fatal("want error for zero parts")
	}
	c := buildCorpus(t, []string{"one two"})
	idx, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Merge([]*Index{idx}, make([]func(corpus.DocID) bool, 2)); err == nil {
		t.Fatal("want error for keep length mismatch")
	}
}

// sharedDocs is what sharedVocabParts built its parts from: per part,
// the documents' term bags, all over one dictionary.
type sharedDocs struct {
	vocab *textproc.Vocab
	bags  [][][]textproc.TermID
}

// survivors is the index a merge of the parts must reproduce: Build
// over the documents keep retains, in part order, under a view of the
// shared dictionary.
func (s sharedDocs) survivors(t testing.TB, keep []func(corpus.DocID) bool) *Index {
	t.Helper()
	var bags [][]textproc.TermID
	for p, part := range s.bags {
		for d, bag := range part {
			if keep == nil || keep[p] == nil || keep[p](corpus.DocID(d)) {
				bags = append(bags, bag)
			}
		}
	}
	x, err := Build(&corpus.Corpus{Docs: make([]corpus.Document, len(bags)), Vocab: s.vocab.Prefix(s.vocab.Size()), Bags: bags})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// sharedVocabParts builds one index per size over one shared
// append-only dictionary — the segment store's discipline, where each
// part is sealed against a view of the dictionary's terms so far, so
// every earlier part's vocabulary is a prefix of every later one's. Every
// document holds "common", so its list spans blocks; every third holds
// "periodic" twice; every 37th word holds "rare" at a growing tf, for
// wider gap and tf frames; each holds its own unique term twice.
func sharedVocabParts(t testing.TB, sizes []int) ([]*Index, sharedDocs) {
	t.Helper()
	vocab := textproc.NewVocab()
	common := vocab.Add("common")
	docs := sharedDocs{vocab: vocab, bags: make([][][]textproc.TermID, len(sizes))}
	parts := make([]*Index, len(sizes))
	word := 0
	for p, size := range sizes {
		bags := make([][]textproc.TermID, size)
		for d := range bags {
			unique := vocab.Add(fmt.Sprintf("unique%d", word))
			bag := []textproc.TermID{common, unique, unique}
			if d%3 == 0 {
				periodic := vocab.Add("periodic")
				bag = append(bag, periodic, periodic)
			}
			if word%37 == 0 {
				rare := vocab.Add("rare")
				for k := 0; k <= word%300; k++ {
					bag = append(bag, rare)
				}
			}
			bags[d] = bag
			word++
		}
		docs.bags[p] = bags
		idx, err := Build(&corpus.Corpus{Docs: make([]corpus.Document, size), Vocab: vocab.Prefix(vocab.Size()), Bags: bags})
		if err != nil {
			t.Fatal(err)
		}
		parts[p] = idx
	}
	return parts, docs
}

// assertMergeIsBuild merges shared-dictionary parts of the given sizes
// under keep and holds the result to Build over the survivors: the two
// TPIX images must be equal byte for byte, the remap must number the
// survivors densely in part order, and either index must hold its
// payloads in one exact-size slab (capacity equal to length, no growth
// slack) that its lists tile.
func assertMergeIsBuild(t *testing.T, label string, sizes []int, keep []func(corpus.DocID) bool) {
	t.Helper()
	parts, docs := sharedVocabParts(t, sizes)
	merged, remap, err := Merge(parts, keep)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := docs.survivors(t, keep)
	var got, exp bytes.Buffer
	if _, err := merged.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := want.WriteTo(&exp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("%s: merged image (%d B) is not Build over the survivors (%d B)", label, got.Len(), exp.Len())
	}
	next := corpus.DocID(0)
	for p, dm := range remap {
		for d, nd := range dm {
			kept := keep == nil || keep[p] == nil || keep[p](corpus.DocID(d))
			switch {
			case !kept && nd != DroppedDoc:
				t.Fatalf("%s: part %d doc %d dropped by keep but remapped to %d", label, p, d, nd)
			case kept && nd != next:
				t.Fatalf("%s: part %d doc %d remapped to %d, want %d", label, p, d, nd, next)
			case kept:
				next++
			}
		}
	}
	for name, x := range map[string]*Index{"merge": merged, "build": want} {
		assertOneSlab(t, label+": "+name, x)
	}
}

// assertOneSlab checks that x's payloads are one exact-size slab that
// its non-empty lists tile in term order, and that its empty lists are
// zero entries.
func assertOneSlab(t *testing.T, label string, x *Index) {
	t.Helper()
	if cap(x.data) != len(x.data) {
		t.Fatalf("%s: payload slab cap %d, len %d", label, cap(x.data), len(x.data))
	}
	next := uint32(0)
	for tid, cl := range x.lists {
		switch {
		case cl.n == 0 && cl != compList{}:
			t.Fatalf("%s: empty list %d has entry %+v", label, tid, cl)
		case cl.n > 0 && (cl.off != next || cl.end <= cl.off):
			t.Fatalf("%s: list %d spans [%d, %d), want it to start at %d", label, tid, cl.off, cl.end, next)
		case cl.n > 0:
			next = cl.end
		}
	}
	if int(next) != len(x.data) {
		t.Fatalf("%s: lists end at %d in a %d-byte slab", label, next, len(x.data))
	}
}

// TestMergeIsBuild is the merge oracle: random part counts and sizes
// (lists from one posting to past two blocks per part) under random
// tombstone masks, from clean parts to nearly empty ones, each merge
// byte-identical to Build over its survivors.
func TestMergeIsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 40; trial++ {
		sizes := make([]int, 1+rng.Intn(4))
		keep := make([]func(corpus.DocID) bool, len(sizes))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(2*BlockSize+40)
			if rng.Intn(3) == 0 {
				continue // a clean part
			}
			dead := make([]bool, sizes[i])
			rate := rng.Float64()
			for d := range dead {
				dead[d] = rng.Float64() < rate
			}
			keep[i] = func(d corpus.DocID) bool { return !dead[d] }
		}
		assertMergeIsBuild(t, fmt.Sprintf("trial %d, sizes %v", trial, sizes), sizes, keep)
	}
}

// TestMergeBlockwiseClean merges three shared-dictionary parts with no
// tombstones, lists crossing block boundaries inside parts and at their
// seams, and holds the result to Build over every document; the merged
// image must also survive a codec round trip unchanged.
func TestMergeBlockwiseClean(t *testing.T) {
	sizes := []int{300, 200, 140}
	assertMergeIsBuild(t, "clean", sizes, nil)

	parts, _ := sharedVocabParts(t, sizes)
	merged, _, err := Merge(parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := merged.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	image := append([]byte(nil), buf.Bytes()...)
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := back.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, again.Bytes()) {
		t.Fatalf("merged image changed across a round trip: %d B, then %d B", len(image), again.Len())
	}
}

// TestMergeBlockwiseWithTombstones puts a tombstoned part between two
// clean ones; the merge must equal Build over the survivors and drop
// exactly the tombstoned documents of the middle part.
func TestMergeBlockwiseWithTombstones(t *testing.T) {
	sizes := []int{200, 170, 150}
	keep := []func(corpus.DocID) bool{
		nil,
		func(d corpus.DocID) bool { return d%4 != 1 },
		nil,
	}
	assertMergeIsBuild(t, "tombstoned", sizes, keep)

	parts, _ := sharedVocabParts(t, sizes)
	_, remap, err := Merge(parts, keep)
	if err != nil {
		t.Fatal(err)
	}
	for d := range remap[1] {
		if (remap[1][d] == DroppedDoc) != (d%4 == 1) {
			t.Fatalf("part 1 doc %d: unexpected remap %d", d, remap[1][d])
		}
	}
}

// mergeShape derives a merge from fuzz input: the first byte picks one
// to four parts, the next two bytes per part its size (1 to
// 2·BlockSize+40 documents), and the bits of the remaining bytes,
// cycled over every document in part order, its tombstones — a set bit
// drops the document. With no bytes left every document is kept.
func mergeShape(data []byte) ([]int, []func(corpus.DocID) bool) {
	if len(data) == 0 {
		return []int{1}, nil
	}
	sizes := make([]int, 1+int(data[0])%4)
	data = data[1:]
	for i := range sizes {
		v := 0
		if len(data) >= 2 {
			v = int(data[0]) | int(data[1])<<8
			data = data[2:]
		}
		sizes[i] = 1 + v%(2*BlockSize+40)
	}
	if len(data) == 0 {
		return sizes, nil
	}
	keep := make([]func(corpus.DocID) bool, len(sizes))
	first := 0
	for i, n := range sizes {
		base := first
		keep[i] = func(d corpus.DocID) bool {
			b := base + int(d)
			return data[b/8%len(data)]>>(b%8)&1 == 0
		}
		first += n
	}
	return sizes, keep
}

// FuzzMerge holds every merge the input describes (see mergeShape) to
// TestMergeIsBuild's oracle. testdata/fuzz/FuzzMerge holds the seeds: a
// single posting, three clean parts, the same parts under tombstones,
// and four parts straddling block boundaries.
func FuzzMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sizes, keep := mergeShape(data)
		assertMergeIsBuild(t, fmt.Sprintf("sizes %v", sizes), sizes, keep)
	})
}
