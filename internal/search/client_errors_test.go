package search

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"toppriv/internal/corpus"
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

// TestClientBoundsAndValidatesReplies pins what the client accepts from
// a server it cannot trust to be well-behaved: a reply is read under a
// fixed cap, must be one JSON object and nothing more, is validated in
// full whichever member the client keeps, and must carry one response
// per query under "responses", spelled as encoding/json matches it.
func TestClientBoundsAndValidatesReplies(t *testing.T) {
	f := getFixture(t)
	queries := [][]string{
		f.an.Analyze(f.topicQueryText(0, 4)),
		f.an.Analyze(f.topicQueryText(1, 4)),
	}
	var reply string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, reply)
	}))
	defer srv.Close()
	cl, err := NewClient(srv.URL, nil, f.obf, f.an, rand.New(rand.NewSource(72)))
	if err != nil {
		t.Fatal(err)
	}
	const good = `{"hits":[{"doc":1,"score":0.5}]}`

	for _, tc := range []struct {
		name, reply string
		only        int
		wantErr     string
	}{
		{"well-formed", `{"responses":[` + good + `,` + good + `]}` + "\n", 1, ""},
		{"trailing garbage", `{"responses":[` + good + `,` + good + `]}` + "\n{}", -1, "trailing bytes"},
		{"responses missing", `{"hits":[]}`, -1, "0 responses for 2 queries"},
		{"responses null", `{"responses":null}`, -1, "0 responses for 2 queries"},
		{"responses not an array", `{"responses":{"0":` + good + `,"1":` + good + `}}`, -1, "not an array"},
		{"responses under a folded key", `{"Responses":[` + good + `,` + good + `]}`, 1, ""},
		{"one too many", `{"responses":[` + good + `,` + good + `,` + good + `]}`, -1, "3 responses for 2 queries"},
		{"not an object", `[` + good + `,` + good + `]`, -1, "not a JSON object"},
		{"broken ghost, kept member intact", `{"responses":[{"hits":[{"doc":}]},` + good + `]}`, 1, "invalid JSON"},
		{"ghost of the wrong type is not decoded", `{"responses":[7,` + good + `]}`, 1, ""},
		{"kept member of the wrong type", `{"responses":[7,` + good + `]}`, 0, "response 0"},
		{"nesting past the bound", `{"responses":[` + good + `,` + strings.Repeat("[", 200_000), 0, "nests deeper"},
		{"over the cap", `{"responses":[` + good + `,` + good + `]}` + strings.Repeat(" ", maxReplyBody), -1, "cap of 16384000 bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reply = tc.reply
			resps, err := cl.submitBatch(context.Background(), queries, tc.only)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if kept := resps[1]; len(kept.Hits) != 1 || kept.Hits[0].Doc != 1 || kept.Hits[0].Score != 0.5 {
					t.Errorf("kept member decoded as %+v", kept)
				}
				if len(resps[0].Hits) != 0 {
					t.Errorf("member 0 was materialised: %+v", resps[0])
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}

	// The single-query and ingest paths read under the same cap.
	reply = good + strings.Repeat(" ", maxReplyBody)
	if _, err := cl.SearchPlain(f.topicQueryText(0, 3)); err == nil || !strings.Contains(err.Error(), "cap of") {
		t.Errorf("SearchPlain over the cap: %v", err)
	}
	reply = `{"ids":[1]}` + strings.Repeat(" ", maxReplyBody)
	if _, err := NewAdminClient(srv.URL, nil).AddDocuments([]corpus.Document{{Title: "t", Text: "x"}}); err == nil || !strings.Contains(err.Error(), "cap of") {
		t.Errorf("AddDocuments over the cap: %v", err)
	}
	reply = good + "\n"
	if hits, err := cl.SearchPlain(f.topicQueryText(0, 3)); err != nil || len(hits) != 1 {
		t.Errorf("SearchPlain at the cap's good side: %v, %v", hits, err)
	}

	// The control plane reads under the same cap, and a document under
	// the ingest body's.
	overReply := `{}` + strings.Repeat(" ", maxReplyBody)
	for _, tc := range []struct {
		name, reply, wantErr string
		call                 func() error
	}{
		{"Stats", overReply, "cap of 16384000 bytes", func() error { _, err := cl.Stats(); return err }},
		{"StatsFull", overReply, "cap of 16384000 bytes", func() error { _, err := cl.StatsFull(); return err }},
		{"Traces", overReply, "cap of 16384000 bytes", func() error { _, err := cl.Traces(0); return err }},
		{"MetricsText", "# x" + strings.Repeat(" ", maxReplyBody), "cap of 16384000 bytes", func() error { _, err := cl.MetricsText(); return err }},
		{"FetchDocument", `{}` + strings.Repeat(" ", maxIndexBody), "cap of 33554432 bytes", func() error { _, err := cl.FetchDocument(1); return err }},
	} {
		reply = tc.reply
		if err := tc.call(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s over the cap: error = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
	reply = overReply
	if doc, err := cl.FetchDocument(1); err != nil || len(doc) != len(overReply) {
		t.Errorf("FetchDocument past maxReplyBody, under maxIndexBody: %d bytes, %v", len(doc), err)
	}
}
