package vsm

import (
	"context"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
)

// TestSearchAllocations pins the per-query allocation budget: with the
// pooled query state, a steady-state search should allocate only the
// returned result slice and the small constant overhead of sorting it
// — no term bags, no accumulators, no heaps.
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
		// Result slice + sort.Slice internals; anything near the old
		// map-accumulator behavior (hundreds) fails loudly.
		const budget = 8
		if avg > budget {
			t.Errorf("%v: %.1f allocs per search, budget %d", scoring, avg, budget)
		}
	}
}
