package index

import (
	"bytes"
	"fmt"
	"math"
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

func TestMergeMatchesSinglePassBuild(t *testing.T) {
	left := []string{
		"submarine propulsion reactor cooling systems",
		"reactor fuel rods and cooling towers",
		"helicopter rotor blade maintenance",
	}
	right := []string{
		"cooling pumps for reactor loops",
		"sonar arrays aboard the submarine fleet",
	}
	cl := buildCorpus(t, left)
	cr := buildCorpus(t, right)
	il, err := Build(cl)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := Build(cr)
	if err != nil {
		t.Fatal(err)
	}

	merged, remap, err := Merge([]*Index{il, ir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	whole := buildCorpus(t, append(append([]string{}, left...), right...))
	want, err := Build(whole)
	if err != nil {
		t.Fatal(err)
	}

	if merged.NumDocs() != want.NumDocs() {
		t.Fatalf("merged NumDocs = %d, want %d", merged.NumDocs(), want.NumDocs())
	}
	if merged.AvgDocLen() != want.AvgDocLen() {
		t.Fatalf("merged AvgDocLen = %v, want %v", merged.AvgDocLen(), want.AvgDocLen())
	}
	// Renumbering is sequential: part order then local order.
	next := corpus.DocID(0)
	for _, dm := range remap {
		for _, nd := range dm {
			if nd != next {
				t.Fatalf("remap out of sequence: got %d, want %d", nd, next)
			}
			next++
		}
	}
	// Every term of the single-pass build must have identical postings
	// (doc frequency, tfs, and doc IDs) in the merged index.
	for id := 0; id < want.NumTerms(); id++ {
		term := want.Vocab().Term(textproc.TermID(id))
		mid := merged.Vocab().ID(term)
		if mid == textproc.InvalidTerm {
			t.Fatalf("term %q missing from merged vocab", term)
		}
		wp, mp := want.Postings(textproc.TermID(id)), merged.Postings(mid)
		if len(wp) != len(mp) {
			t.Fatalf("term %q: %d postings merged, want %d", term, len(mp), len(wp))
		}
		for i := range wp {
			if wp[i] != mp[i] {
				t.Fatalf("term %q posting %d: merged %+v, want %+v", term, i, mp[i], wp[i])
			}
		}
		if math.Abs(want.IDF(textproc.TermID(id))-merged.IDF(mid)) > 1e-12 {
			t.Fatalf("term %q IDF mismatch", term)
		}
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

// sharedVocabParts builds nParts indexes over one shared append-only
// dictionary — the segment store's discipline, where every earlier
// part's vocabulary is a prefix of every later one's, so Merge takes
// its block-wise path. Lists for "common" span multiple blocks.
func sharedVocabParts(t *testing.T, sizes []int) ([]*Index, [][]string) {
	t.Helper()
	an := textproc.NewAnalyzer(textproc.WithStemming(false))
	vocab := textproc.NewVocab()
	parts := make([]*Index, len(sizes))
	texts := make([][]string, len(sizes))
	word := 0
	for p, size := range sizes {
		docs := make([]corpus.Document, size)
		bags := make([][]textproc.TermID, size)
		for d := 0; d < size; d++ {
			// Every doc shares "common"; every third doc shares
			// "periodic"; each doc has a unique term and a repeated one.
			txt := fmt.Sprintf("common unique%d unique%d", word, word)
			if d%3 == 0 {
				txt += " periodic periodic"
			}
			word++
			docs[d] = corpus.Document{Text: txt}
			bags[d] = corpus.AnalyzeInto(docs[d], an, vocab)
			texts[p] = append(texts[p], txt)
		}
		c := &corpus.Corpus{Docs: docs, Vocab: vocab.Clone(), Bags: bags}
		idx, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		parts[p] = idx
	}
	return parts, texts
}

// assertMergedMatchesRebuild compares a merged index against a
// from-scratch Build over the same surviving documents: postings and
// document facts must match exactly, and the merged list's (possibly
// irregular) blocks must iterate to the same postings.
func assertMergedMatchesRebuild(t *testing.T, merged, want *Index) {
	t.Helper()
	if merged.NumDocs() != want.NumDocs() || merged.AvgDocLen() != want.AvgDocLen() {
		t.Fatalf("shape: %d/%d docs, avg %v/%v", merged.NumDocs(), want.NumDocs(), merged.AvgDocLen(), want.AvgDocLen())
	}
	for tid := 0; tid < want.NumTerms(); tid++ {
		term := want.Vocab().Term(textproc.TermID(tid))
		mid := merged.Vocab().ID(term)
		wp, mp := want.Postings(textproc.TermID(tid)), merged.Postings(mid)
		if len(wp) != len(mp) {
			t.Fatalf("term %q: %d vs %d postings", term, len(mp), len(wp))
		}
		for i := range wp {
			if wp[i] != mp[i] {
				t.Fatalf("term %q posting %d: %+v vs %+v", term, i, mp[i], wp[i])
			}
		}
		var it Iterator
		merged.IterInto(mid, &it)
		pos := 0
		for it.Valid() {
			docs, tfs := it.Window()
			for j := range docs {
				if tfs[j] != mp[pos].TF || docs[j] != mp[pos].Doc {
					t.Fatalf("term %q: iterator diverged at %d", term, pos)
				}
				pos++
			}
			if !it.NextWindow() {
				break
			}
		}
		if pos != len(mp) {
			t.Fatalf("term %q: iterator yielded %d of %d postings", term, pos, len(mp))
		}
	}
}

// TestMergeBlockwiseClean merges three shared-dictionary parts with no
// tombstones — the pure block-copy path, first blocks rebased, interior
// partial blocks at the part seams — and requires exact agreement with
// a from-scratch rebuild, surviving a v4 codec round trip.
func TestMergeBlockwiseClean(t *testing.T) {
	parts, texts := sharedVocabParts(t, []int{300, 200, 140})
	merged, _, err := Merge(parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, tx := range texts {
		all = append(all, tx...)
	}
	want, err := Build(buildCorpusNoStem(t, all))
	if err != nil {
		t.Fatal(err)
	}
	assertMergedMatchesRebuild(t, merged, want)

	// The irregular block layout must survive serialization.
	var buf bytes.Buffer
	if _, err := merged.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertMergedMatchesRebuild(t, back, want)
}

// TestMergeBlockwiseWithTombstones mixes a dirty part (tombstoned
// documents force decode-filter-re-encode) between clean parts whose
// blocks are copied; results must still match a rebuild over the
// survivors exactly, including bit-identical term-level bounds.
func TestMergeBlockwiseWithTombstones(t *testing.T) {
	parts, texts := sharedVocabParts(t, []int{200, 170, 150})
	keep := []func(corpus.DocID) bool{
		nil,
		func(d corpus.DocID) bool { return d%4 != 1 },
		nil,
	}
	merged, remap, err := Merge(parts, keep)
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for p, tx := range texts {
		for d, txt := range tx {
			if keep[p] == nil || keep[p](corpus.DocID(d)) {
				all = append(all, txt)
			}
		}
	}
	want, err := Build(buildCorpusNoStem(t, all))
	if err != nil {
		t.Fatal(err)
	}
	assertMergedMatchesRebuild(t, merged, want)
	for d := 0; d < len(remap[1]); d++ {
		if (remap[1][d] == DroppedDoc) != (d%4 == 1) {
			t.Fatalf("part 1 doc %d: unexpected remap %d", d, remap[1][d])
		}
	}
}

// buildCorpusNoStem analyzes texts with stemming off (sharedVocabParts
// uses the same analyzer configuration).
func buildCorpusNoStem(t *testing.T, texts []string) *corpus.Corpus {
	t.Helper()
	docs := make([]corpus.Document, len(texts))
	for i, txt := range texts {
		docs[i] = corpus.Document{Text: txt}
	}
	c, err := corpus.Build(docs, textproc.NewAnalyzer(textproc.WithStemming(false)), textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}
