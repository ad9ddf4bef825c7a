package segment

import (
	"context"
	"math/rand"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/telemetry"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// TestStoreSearchBatchMatchesSingle asserts the store's batch path —
// the whole cycle resolved once and scanned part by part — returns,
// member for member, exactly what SearchRequest returns alone: same
// documents, same order, same float64 scores. Exercised over a store
// with memtable + sealed segments + tombstones, both scorings.
func TestStoreSearchBatchMatchesSingle(t *testing.T) {
	ctx := context.Background()
	for _, scoring := range []vsm.Scoring{vsm.Cosine, vsm.BM25} {
		scoring := scoring
		t.Run(scoring.String(), func(t *testing.T) {
			an := textproc.NewAnalyzer()
			docs := synthDocs(t, 80, 640)
			rng := rand.New(rand.NewSource(9300))
			st, err := Open(Config{
				Scoring:           scoring,
				Analyzer:          an,
				SealThreshold:     9,
				DisableCompaction: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			var gids []corpus.DocID
			for _, doc := range docs {
				ids, err := st.Add(doc)
				if err != nil {
					t.Fatal(err)
				}
				gids = append(gids, ids[0])
				if rng.Float64() < 0.15 && len(gids) > 1 {
					i := rng.Intn(len(gids))
					if err := st.Delete(gids[i]); err != nil {
						t.Fatal(err)
					}
					gids = append(gids[:i], gids[i+1:]...)
				}
			}

			reqs := make([]vsm.Request, 0, 8)
			for qi := 0; qi < 8; qi++ {
				q := queryFrom(docs[rng.Intn(len(docs))], rng.Intn(25), 2+rng.Intn(4))
				reqs = append(reqs, vsm.Request{
					Query: q,
					K:     []int{1, 10, 50}[qi%3],
				})
			}
			batch, err := st.SearchBatch(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(reqs) {
				t.Fatalf("%d responses for %d requests", len(batch), len(reqs))
			}
			for i, req := range reqs {
				single, err := st.SearchRequest(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch[i].Hits) != len(single.Hits) {
					t.Fatalf("member %d: batch %d hits, single %d", i, len(batch[i].Hits), len(single.Hits))
				}
				for j := range single.Hits {
					if batch[i].Hits[j] != single.Hits[j] {
						t.Fatalf("member %d rank %d: batch %+v vs single %+v", i, j, batch[i].Hits[j], single.Hits[j])
					}
				}
			}
		})
	}
}

// TestStoreSearchCancellation pins context propagation into the
// store's engine: an already-canceled context fails the batch with the
// context's error.
func TestStoreSearchCancellation(t *testing.T) {
	an := textproc.NewAnalyzer()
	st, err := Open(Config{Analyzer: an, SealThreshold: 16, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	docs := synthDocs(t, 40, 888)
	if _, err := st.Add(docs...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := queryFrom(docs[0], 0, 3)
	if _, err := st.SearchRequest(ctx, vsm.Request{Query: q, K: 10}); err != context.Canceled {
		t.Errorf("canceled store request returned %v, want context.Canceled", err)
	}
	if _, err := st.SearchBatch(ctx, []vsm.Request{{Query: q, K: 10}, {Query: q, K: 5}}); err != context.Canceled {
		t.Errorf("canceled store batch returned %v, want context.Canceled", err)
	}
	// Validation errors surface before execution.
	if _, err := st.SearchBatch(context.Background(), []vsm.Request{{Query: q, K: 0}}); err == nil {
		t.Error("k = 0 store batch member must error")
	}
}

// TestStoreTelemetry pins that a live store's query telemetry is its
// engine's: a traced cycle over three segments and a memtable is one
// scan — counted under the engine's "batch" label once per member it
// served, observed once in the latency histogram and once in each of the
// four phase histograms however many parts it crossed, every served
// member carrying that scan's trace — and a lone query is "exhaustive".
// A member that resolves to nothing (an unseen term; anything at all on a
// store with no document, what every query meets on a freshly started,
// corpus-less searchd) is answered without a scan, as a static engine
// answers it: nil hits, an empty trace, nothing counted.
func TestStoreTelemetry(t *testing.T) {
	docs := synthDocs(t, 40, 77)
	for _, seed := range [][]corpus.Document{docs, nil} {
		st, err := Open(Config{SealThreshold: 11, DisableCompaction: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Add(seed...); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		ring := telemetry.NewTraceRing(4)
		st.EnableMetrics(reg, ring)
		reqs := []vsm.Request{
			{Query: queryFrom(docs[3], 0, 4), K: 5, Trace: true},
			{Query: queryFrom(docs[30], 2, 3), K: 5, Trace: true},
			{Query: "zzzzunseenterm", K: 5, Trace: true},
		}
		resps, err := st.SearchBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		served := 0
		if seed != nil {
			served = 2
		}
		for i, resp := range resps {
			tr := resp.Trace
			if i >= served {
				if resp.Hits != nil || *tr != (telemetry.PhaseTrace{}) {
					t.Errorf("%d docs, member %d resolved to nothing: hits %v, trace %+v", len(seed), i, resp.Hits, *tr)
				}
				continue
			}
			if tr.Mode != "batch" || tr.Batch != served || tr.Scorer != "cosine" || tr.TotalNS <= 0 || tr.FetchNS <= 0 || tr.TraverseNS <= 0 {
				t.Errorf("member %d: trace %+v, want mode batch of %d, scorer cosine, fetch, traverse and total times", i, *tr, served)
			}
		}
		if served > 0 {
			if _, err := st.SearchRequest(context.Background(), reqs[0]); err != nil {
				t.Fatal(err)
			}
		}
		// What the registry holds: the cycle's scan and the lone query's.
		queries := reg.CounterVec(vsm.MetricQueriesTotal, "", "scorer", "mode")
		lat := reg.HistogramVec(vsm.MetricQuerySeconds, "", telemetry.DefaultLatencyBuckets, "scorer", "mode")
		phases := reg.HistogramVec(vsm.MetricQueryPhaseSeconds, "", telemetry.DefaultLatencyBuckets, "scorer", "phase")
		scans := uint64(min(served, 1))
		if got := queries.With("cosine", "batch").Value(); got != uint64(served) {
			t.Errorf("%d docs: toppriv_queries_total{mode=\"batch\"} = %d, want %d", len(seed), got, served)
		}
		if got := queries.With("cosine", "exhaustive").Value(); got != scans {
			t.Errorf("%d docs: toppriv_queries_total{mode=\"exhaustive\"} = %d, want %d", len(seed), got, scans)
		}
		for _, mode := range []string{"batch", "exhaustive"} {
			if got := lat.With("cosine", mode).Count(); got != scans {
				t.Errorf("%d docs: %d latency observations under mode %s, want %d", len(seed), got, mode, scans)
			}
		}
		for _, phase := range []string{"resolve", "fetch", "traverse", "merge"} {
			if got := phases.With("cosine", phase).Count(); got != 2*scans {
				t.Errorf("%d docs: %d observations of phase %s after %d scans over %d parts", len(seed), got, phase, 2*scans, st.NumSegments()+1)
			}
		}
		if got := ring.Len(); got != int(2*scans) {
			t.Errorf("%d docs: trace ring retains %d, want %d", len(seed), got, 2*scans)
		}
	}
}
