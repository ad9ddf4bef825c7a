package vsm

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
)

// TestSearchAllocations pins the per-query allocation budget: with the
// pooled query state, a steady-state search should allocate only the
// returned result slice — no term bags, no accumulators, no heaps, and
// nothing to sort it.
func TestSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts past the budget")
	}
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 8, NumDocs: 400, NumTopics: 6, DocLenMin: 20, DocLenMax: 50,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	terms := analyzeTerms(an, []string{gt.TopicWords[0][0], gt.TopicWords[0][1], gt.TopicWords[1][0]})
	for _, scoring := range []Scoring{Cosine, BM25} {
		eng, err := NewEngine(idx, an, scoring)
		if err != nil {
			t.Fatal(err)
		}
		search := func() {
			resp, err := eng.SearchRequest(context.Background(), Request{Terms: terms, K: 10})
			if err != nil || len(resp.Hits) == 0 {
				t.Fatalf("%d results, err %v", len(resp.Hits), err)
			}
		}
		// Warm the pool (and the accumulator growth) first.
		for i := 0; i < 8; i++ {
			search()
		}
		avg := testing.AllocsPerRun(200, search)
		// The result slice, and nothing else: the hits are sorted in
		// place, and the old map-accumulator behavior (hundreds) fails
		// loudly.
		const budget = 1
		if avg > budget {
			t.Errorf("%v: %.1f allocs per search, budget %d", scoring, avg, budget)
		}
	}
}

// TestSearchBatchTextAllocations pins what a cycle of text members costs
// a warm engine: the response slice and each member's hits. The token
// memo resolves every member without Analyze's result slice, and the
// union plan sorts in pooled buffers.
func TestSearchBatchTextAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts past the budget")
	}
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 8, NumDocs: 400, NumTopics: 6, DocLenMin: 20, DocLenMax: 50,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	// Members as the trusted client sends them: analyzed terms joined
	// into text.
	queries := cycleQueries(gt, an, rand.New(rand.NewSource(5)), 8)
	reqs := make([]Request, len(queries))
	for i, q := range queries {
		reqs[i] = Request{Query: strings.Join(q, " "), K: 10}
	}
	for _, scoring := range []Scoring{Cosine, BM25} {
		eng, err := NewEngine(idx, an, scoring)
		if err != nil {
			t.Fatal(err)
		}
		search := func() {
			resps, err := eng.SearchBatch(context.Background(), reqs)
			if err != nil || len(resps[0].Hits) == 0 {
				t.Fatalf("%d hits, err %v", len(resps[0].Hits), err)
			}
		}
		for i := 0; i < 8; i++ {
			search()
		}
		budget := float64(1 + len(reqs))
		if avg := testing.AllocsPerRun(100, search); avg > budget {
			t.Errorf("%v: %.1f allocs per text batch of %d, budget %.0f", scoring, avg, len(reqs), budget)
		}
	}
}
