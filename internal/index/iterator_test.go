package index

import (
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
	var it Iterator
	it.ResetList(pl)
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
	var it Iterator
	it.ResetList(nil)
	if it.Valid() {
		t.Fatal("empty list iterator should be invalid")
	}
	if it.Next() {
		t.Fatal("Next on empty list should report false")
	}
}
