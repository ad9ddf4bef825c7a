package search

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestClientBatchErrorPaths pins the HTTP client's failure behavior on
// the batch surface: malformed JSON replies, non-200 statuses,
// server-rejected oversized batches, a response/request count
// mismatch, and a context deadline expiring mid-request must each
// surface as errors, never as silently-wrong results.
func TestClientBatchErrorPaths(t *testing.T) {
	f := getFixture(t)
	queries := [][]string{
		f.an.Analyze(f.topicQueryText(0, 4)),
		f.an.Analyze(f.topicQueryText(1, 4)),
	}
	newClient := func(url string) *Client {
		cl, err := NewClient(url, nil, f.obf, f.an, rand.New(rand.NewSource(71)))
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}

	t.Run("malformed JSON", func(t *testing.T) {
		garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"responses": [{`))
		}))
		defer garbage.Close()
		if _, err := newClient(garbage.URL).SubmitBatch(context.Background(), queries); err == nil {
			t.Error("malformed JSON must error")
		}
	})

	t.Run("non-200 status", func(t *testing.T) {
		failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "engine on fire", http.StatusInternalServerError)
		}))
		defer failing.Close()
		_, err := newClient(failing.URL).SubmitBatch(context.Background(), queries)
		if err == nil {
			t.Fatal("500 must error")
		}
		if !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "engine on fire") {
			t.Errorf("error should carry status and body: %v", err)
		}
	})

	t.Run("oversized batch", func(t *testing.T) {
		f.server.SetMaxBatch(1)
		defer f.server.SetMaxBatch(0)
		_, err := newClient(f.ts.URL).SubmitBatch(context.Background(), queries)
		if err == nil {
			t.Fatal("oversized batch must error")
		}
		if !strings.Contains(err.Error(), "400") {
			t.Errorf("oversized batch should be a 400: %v", err)
		}
	})

	t.Run("count mismatch", func(t *testing.T) {
		short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"responses": [{"hits": []}]}`))
		}))
		defer short.Close()
		_, err := newClient(short.URL).SubmitBatch(context.Background(), queries)
		if err == nil || !strings.Contains(err.Error(), "1 responses for 2 queries") {
			t.Errorf("response-count mismatch must error, got %v", err)
		}
	})

	t.Run("context timeout mid-request", func(t *testing.T) {
		release := make(chan struct{})
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}))
		defer slow.Close()
		defer close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		_, err := newClient(slow.URL).SubmitBatch(ctx, queries)
		if err == nil {
			t.Fatal("expired context must error")
		}
		if !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
			t.Errorf("error should reflect the deadline: %v", err)
		}
	})
}

// TestServerBatchStatsRoundTrip decodes the stats the batch endpoint
// emits: the JSON names are the bench metrics' names, and the work
// counters survive the trip.
func TestServerBatchStatsRoundTrip(t *testing.T) {
	f := getFixture(t)
	resp, br := postBatch(t, f.ts.URL, BatchSearchRequest{Queries: []SearchRequest{
		{Query: f.topicQueryText(2, 5), K: 5},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	st := br.Responses[0].Stats
	if st == nil {
		t.Fatal("no stats")
	}
	if st.DocsScored == 0 {
		t.Error("docs_scored did not survive the HTTP round-trip")
	}
}
