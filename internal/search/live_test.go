package search

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/segment"
)

func liveFixture(t *testing.T) (*Server, *httptest.Server, *segment.Store) {
	t.Helper()
	st, err := segment.Open(segment.Config{SealThreshold: 4, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return srv, ts, st
}

func TestLiveIndexEndpoints(t *testing.T) {
	srv, ts, st := liveFixture(t)
	if !srv.Live() {
		t.Fatal("segment-backed server should report Live")
	}

	body, _ := json.Marshal(IndexRequest{Docs: []corpus.Document{
		{Title: "one", Text: "reactor cooling systems for submarines"},
		{Title: "two", Text: "helicopter rotor maintenance manual"},
	}})
	resp, err := http.Post(ts.URL+"/index", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ir IndexResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ir.IDs) != 2 {
		t.Fatalf("got IDs %v", ir.IDs)
	}
	if st.NumDocs() != 2 {
		t.Fatalf("store has %d docs", st.NumDocs())
	}

	// Search sees the new documents immediately (memtable path).
	sbody, _ := json.Marshal(SearchRequest{Query: "rotor maintenance", K: 5})
	resp, err = http.Post(ts.URL+"/search", "application/json", bytes.NewReader(sbody))
	if err != nil {
		t.Fatal(err)
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.Hits) != 1 || sr.Hits[0].Doc != ir.IDs[1] || sr.Hits[0].Title != "two" {
		t.Fatalf("hits = %+v", sr.Hits)
	}

	// GET /doc/{id} resolves through the live store.
	resp, err = http.Get(fmt.Sprintf("%s/doc/%d", ts.URL, ir.IDs[0]))
	if err != nil {
		t.Fatal(err)
	}
	var doc corpus.Document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Title != "one" {
		t.Fatalf("doc = %+v", doc)
	}

	// DELETE /doc/{id} tombstones; the doc disappears from search and
	// lookup, and a second delete 404s.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/doc/%d", ts.URL, ir.IDs[1]), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/search", "application/json", bytes.NewReader(sbody))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.Hits) != 0 {
		t.Fatalf("deleted doc still retrieved: %+v", sr.Hits)
	}

	// /stats aggregates over the store.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats["NumDocs"].(float64) != 1 {
		t.Fatalf("stats = %v", stats)
	}
}

func TestMutationRejectedOnStaticBackend(t *testing.T) {
	f := getFixture(t)
	if f.server.Live() {
		t.Fatal("static fixture should not be live")
	}
	body, _ := json.Marshal(IndexRequest{Docs: []corpus.Document{{Text: "x"}}})
	resp, err := http.Post(f.ts.URL+"/index", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /index on static backend: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, f.ts.URL+"/doc/0", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /doc on static backend: %d", resp.StatusCode)
	}
}

func TestClientAdminMethods(t *testing.T) {
	_, ts, st := liveFixture(t)
	c := NewAdminClient(ts.URL, nil)
	ids, err := c.AddDocuments([]corpus.Document{
		{Title: "a", Text: "sonar arrays aboard the fleet"},
		{Title: "b", Text: "propulsion reactor fuel rods"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || st.NumDocs() != 2 {
		t.Fatalf("ids %v, store %d docs", ids, st.NumDocs())
	}
	if err := c.DeleteDocument(ids[0]); err != nil {
		t.Fatal(err)
	}
	if st.NumDocs() != 1 {
		t.Fatalf("store %d docs after delete", st.NumDocs())
	}
	if err := c.DeleteDocument(ids[0]); err == nil {
		t.Fatal("double delete should error")
	}
}

func TestQueryLogRing(t *testing.T) {
	f := getFixture(t)
	f.server.ResetLog()
	f.server.SetQueryLogCap(5)
	defer f.server.SetQueryLogCap(0) // restore default for other tests

	post := func(q string) {
		t.Helper()
		body, _ := json.Marshal(SearchRequest{Query: q})
		resp, err := http.Post(f.ts.URL+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for i := 0; i < 8; i++ {
		post(fmt.Sprintf("query number %d", i))
	}
	log := f.server.QueryLog()
	if len(log) != 5 {
		t.Fatalf("retained %d entries, want 5", len(log))
	}
	for i, e := range log {
		wantSeq := 3 + i // 8 queries, cap 5 → oldest retained is seq 3
		if e.Seq != wantSeq {
			t.Fatalf("entry %d: seq %d, want %d", i, e.Seq, wantSeq)
		}
		if want := fmt.Sprintf("query number %d", wantSeq); e.Query != want {
			t.Fatalf("entry %d: query %q, want %q", i, e.Query, want)
		}
	}

	// Shrinking the cap drops oldest entries; growing keeps them.
	f.server.SetQueryLogCap(2)
	log = f.server.QueryLog()
	if len(log) != 2 || log[0].Seq != 6 || log[1].Seq != 7 {
		t.Fatalf("after shrink: %+v", log)
	}
	f.server.SetQueryLogCap(10)
	post("after regrow")
	log = f.server.QueryLog()
	if len(log) != 3 || log[2].Seq != 8 || log[2].Query != "after regrow" {
		t.Fatalf("after regrow: %+v", log)
	}
}

func TestAdminTokenGatesMutations(t *testing.T) {
	srv, ts, _ := liveFixture(t)
	srv.SetAdminToken("sesame")

	c := NewAdminClient(ts.URL, nil)
	if _, err := c.AddDocuments([]corpus.Document{{Text: "x"}}); err == nil {
		t.Fatal("add without token should 401")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/doc/0", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("delete without token: %d", resp.StatusCode)
	}

	c.AdminToken = "sesame"
	ids, err := c.AddDocuments([]corpus.Document{{Title: "ok", Text: "tokenized access works"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteDocument(ids[0]); err != nil {
		t.Fatal(err)
	}
	// Search stays open — only mutations are gated.
	body, _ := json.Marshal(SearchRequest{Query: "anything"})
	resp, err = http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search with token set: %d", resp.StatusCode)
	}
}

// TestTokenOnlyWhereTheServerChecksIt: the admin token goes with the
// mutations and /debug/traces, the requests the server gates behind it,
// and with nothing else — on a search it would tie a user's cycles
// together, and on a document fetch it would tie them to what the user
// reads.
func TestTokenOnlyWhereTheServerChecksIt(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]string{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.Path] = r.Header.Get("Authorization")
		mu.Unlock()
		switch r.Method + " " + r.URL.Path {
		case "POST /search":
			io.WriteString(w, `{"hits":[]}`)
		case "POST /search/batch":
			io.WriteString(w, `{"responses":[{}]}`)
		case "DELETE /doc/1":
			w.WriteHeader(http.StatusNoContent)
		default:
			io.WriteString(w, "{}")
		}
	}))
	defer ts.Close()
	c := NewAdminClient(ts.URL, nil)
	c.AdminToken = "sesame"
	if _, err := c.submit([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitBatch(context.Background(), [][]string{{"a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StatsFull(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MetricsText(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchDocument(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Traces(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddDocuments([]corpus.Document{{Title: "t", Text: "x"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteDocument(1); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string]string{
		"POST /search": "", "POST /search/batch": "", "GET /stats": "", "GET /metrics": "", "GET /doc/2": "",
		"GET /debug/traces": "Bearer sesame", "POST /index": "Bearer sesame", "DELETE /doc/1": "Bearer sesame",
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("Authorization by request: %v, want %v", seen, want)
	}
}
