package segment

import (
	"context"
	"testing"

	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// TestStoreSearchAllocations pins what segmentation costs a cycle in
// allocations: nothing. An eight-member batch over four sealed segments
// allocates what the same batch allocates over the same documents
// compacted into one — the prepared requests, the responses and each
// member's hits — because the parts are scanned in turn out of one
// pooled state into one heap per member. (With an engine per segment
// and a merge behind them, a solo query went from 19 allocations to 87.)
func TestStoreSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts past the budget")
	}
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, 400, 55)
	reqs := make([]vsm.Request, 8)
	for i := range reqs {
		reqs[i] = vsm.Request{Terms: an.Analyze(queryFrom(docs[i*37], i, 4)), K: 10}
	}
	for _, scoring := range []vsm.Scoring{vsm.Cosine, vsm.BM25} {
		allocs := map[int]float64{}
		for _, segments := range []int{4, 1} {
			st, err := Open(Config{Scoring: scoring, Analyzer: an, SealThreshold: len(docs) / 4, DisableCompaction: true})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if _, err := st.Add(docs...); err != nil {
				t.Fatal(err)
			}
			if segments == 1 {
				if err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if got := st.NumSegments(); got != segments {
				t.Fatalf("layout has %d segments, want %d", got, segments)
			}
			search := func() {
				resps, err := st.SearchBatch(context.Background(), reqs)
				if err != nil || len(resps[0].Hits) == 0 {
					t.Fatalf("%d hits, err %v", len(resps[0].Hits), err)
				}
			}
			// Warm the pools (and the accumulator growth) first.
			for i := 0; i < 8; i++ {
				search()
			}
			allocs[segments] = testing.AllocsPerRun(100, search)
		}
		if allocs[4] > allocs[1]+1 || allocs[1] > 24 {
			t.Errorf("%v: %.1f allocs per batch over 4 segments, %.1f over 1; want them level, and within two per member plus a handful", scoring, allocs[4], allocs[1])
		}
	}
}
