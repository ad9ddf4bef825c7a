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
// one fan-out per batch, each shard running the whole cycle, per-member
// merge — returns, member for member, exactly what SearchRequest
// returns alone: same documents, same order, same float64 scores, same
// aggregated stats for explicit modes. Exercised over a store with
// memtable + sealed segments + tombstones, both scorings, mixed modes.
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

// TestStoreSearchCancellation pins context propagation through the
// shard fan-out: an already-canceled context fails the batch with the
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

// TestStoreTelemetry pins the store's close-out: a traced batch comes
// back with the store-level trace and is counted once per member,
// against a populated store and against one with no live shard — what
// every query meets on a freshly started, corpus-less searchd.
func TestStoreTelemetry(t *testing.T) {
	docs := synthDocs(t, 40, 77)
	for _, seed := range [][]corpus.Document{docs, nil} {
		st, err := Open(Config{SealThreshold: 16, DisableCompaction: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Add(seed...); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		st.EnableMetrics(reg, nil)
		reqs := []vsm.Request{
			{Query: queryFrom(docs[3], 0, 4), K: 5, Trace: true},
			{Query: "zzzzunseenterm", K: 5, Trace: true},
		}
		resps, err := st.SearchBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, resp := range resps {
			if tr := resp.Trace; tr.Mode != "store" || tr.Batch != len(reqs) || tr.Scorer != "cosine" || tr.TotalNS <= 0 {
				t.Errorf("%d docs, member %d: trace %+v, want mode store, batch %d, scorer cosine, total_ns > 0", len(seed), i, *tr, len(reqs))
			}
		}
		counted := reg.CounterVec(vsm.MetricQueriesTotal, "", "scorer", "mode").With("cosine", "store")
		if got := counted.Value(); got != uint64(len(reqs)) {
			t.Errorf("%d docs: toppriv_queries_total{mode=\"store\"} = %d after a batch of %d", len(seed), got, len(reqs))
		}
	}
}
