package lda

import (
	"testing"

	"toppriv/internal/corpus"
)

func TestPerplexityBasics(t *testing.T) {
	c, _, err := corpus.Synthesize(corpus.GenSpec{Seed: 301, NumDocs: 200, NumTopics: 6, DocLenMin: 50, DocLenMax: 90}, nil)
	if err != nil {
		t.Fatal(err)
	}
	train, held, err := corpus.Split(c, 0.25, 301)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumDocs()+held.NumDocs() != c.NumDocs() {
		t.Fatalf("split lost documents: %d + %d != %d", train.NumDocs(), held.NumDocs(), c.NumDocs())
	}
	m, _, err := Train(train, TrainSpec{NumTopics: 6, Iterations: 60, Seed: 301})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Perplexity(m, InferSpec{}, held)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 1 {
		t.Fatalf("perplexity %v, must exceed 1", p)
	}
	// A uniform model over V words would score ≈ V; a fitted topical
	// model must do much better.
	if p > float64(m.V)/2 {
		t.Errorf("perplexity %v suspiciously close to vocabulary size %d", p, m.V)
	}
}

func TestPerplexityValidation(t *testing.T) {
	c, _, _ := corpus.Synthesize(corpus.GenSpec{Seed: 1, NumDocs: 20, NumTopics: 3, DocLenMin: 20, DocLenMax: 30}, nil)
	m, _, _ := Train(c, TrainSpec{NumTopics: 3, Iterations: 10, Seed: 1})
	if _, err := Perplexity(nil, InferSpec{}, c); err == nil {
		t.Error("nil model must error")
	}
	if _, err := Perplexity(m, InferSpec{}, nil); err == nil {
		t.Error("nil corpus must error")
	}
}

func TestSelectKPrefersAdequateModels(t *testing.T) {
	// A K far below the ground truth must score worse than K near it —
	// the quantitative form of the paper's Table IV observation.
	c, _, err := corpus.Synthesize(corpus.GenSpec{Seed: 307, NumDocs: 300, NumTopics: 8, DocLenMin: 60, DocLenMax: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bestK, scores, err := SelectK(c, []int{2, 8}, 0.25, TrainSpec{Iterations: 60, Seed: 307})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 {
		t.Fatalf("got %d scores", len(scores))
	}
	if scores[0].K != 2 || scores[1].K != 8 {
		t.Fatalf("scores not sorted by K: %v", scores)
	}
	if scores[0].Perplexity <= scores[1].Perplexity {
		t.Errorf("K=2 perplexity (%v) should exceed K=8 (%v)",
			scores[0].Perplexity, scores[1].Perplexity)
	}
	if bestK != 8 {
		t.Errorf("bestK = %d, want 8", bestK)
	}
}

func TestSelectKValidation(t *testing.T) {
	c, _, _ := corpus.Synthesize(corpus.GenSpec{Seed: 1, NumDocs: 20, NumTopics: 3, DocLenMin: 20, DocLenMax: 30}, nil)
	if _, _, err := SelectK(c, nil, 0.25, TrainSpec{}); err == nil {
		t.Error("no candidates must error")
	}
	if _, _, err := SelectK(c, []int{2}, 0, TrainSpec{}); err == nil {
		t.Error("bad heldFrac must error")
	}
}

func TestSplitProperties(t *testing.T) {
	c, _, err := corpus.Synthesize(corpus.GenSpec{Seed: 311, NumDocs: 100, NumTopics: 4, DocLenMin: 20, DocLenMax: 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	train, held, err := corpus.Split(c, 0.3, 311)
	if err != nil {
		t.Fatal(err)
	}
	if held.NumDocs() != 30 {
		t.Errorf("held %d docs, want 30", held.NumDocs())
	}
	// Determinism.
	train2, held2, _ := corpus.Split(c, 0.3, 311)
	if train2.NumDocs() != train.NumDocs() || held2.Docs[0].Title != held.Docs[0].Title {
		t.Error("split not deterministic")
	}
	// Token mass conserved.
	if train.TotalTokens()+held.TotalTokens() != c.TotalTokens() {
		t.Error("split lost tokens")
	}
	// Invalid args.
	if _, _, err := corpus.Split(nil, 0.3, 1); err == nil {
		t.Error("nil corpus must error")
	}
	if _, _, err := corpus.Split(c, 1.5, 1); err == nil {
		t.Error("bad fraction must error")
	}
}
