package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/vsm"
)

// TestQueryDuringIngest queries for documents whose ingest batch is
// still in flight: the store makes a document searchable before the
// batch is acknowledged. When a shard numbered its documents apart from
// their gids, such a hit could carry an ID its gid table did not have
// yet, and translating it panicked with the table's lock held, so the
// next ingest waited forever. A shard now keeps each document under its
// gid; the test holds the same race: every query must come back whole
// and every ingest must be acknowledged. Run under -race.
func TestQueryDuringIngest(t *testing.T) {
	tc := newTestCluster(t, vsm.BM25, 1, Config{Deadline: 3 * time.Second})
	const batches, perBatch = 12, 48
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resps, err := tc.router.SearchBatch(ctx, []vsm.Request{{Query: "zzqmarker", K: batches * perBatch}})
				if err != nil {
					t.Errorf("query during ingest: %v", err)
					return
				}
				if resps[0].Degraded {
					t.Errorf("the shard failed a query during ingest")
					return
				}
			}
		}()
	}
	for b := 0; b < batches && !t.Failed(); b++ {
		docs := make([]corpus.Document, perBatch)
		for i := range docs {
			docs[i] = corpus.Document{Title: fmt.Sprintf("doc %d.%d", b, i), Text: fmt.Sprintf("zzqmarker filler%d words%d here", b, i)}
		}
		if _, err := tc.router.Add(docs...); err != nil {
			t.Errorf("ingest batch %d: %v", b, err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	resps, err := tc.router.SearchBatch(ctx, []vsm.Request{{Query: "zzqmarker", K: batches * perBatch}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resps[0].Hits); got != batches*perBatch {
		t.Errorf("%d of %d ingested documents found once ingest is acknowledged", got, batches*perBatch)
	}
}
