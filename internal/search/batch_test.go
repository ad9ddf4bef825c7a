package search

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"toppriv/internal/adversary"
)

func postBatch(t *testing.T, url string, batch BatchSearchRequest) (*http.Response, BatchSearchResponse) {
	t.Helper()
	body, _ := json.Marshal(batch)
	resp, err := http.Post(url+"/search/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchSearchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, br
}

// TestServerBatchEndpoint pins the batch surface: responses align with
// the queries by index, each member's hits equal the single-endpoint
// hits for the same query, execution stats cross the HTTP layer, and
// /search is /search/batch of one.
func TestServerBatchEndpoint(t *testing.T) {
	f := getFixture(t)
	queries := []SearchRequest{
		{Query: f.topicQueryText(0, 5), K: 7},
		{Query: f.topicQueryText(1, 4), K: 3},
		{Query: f.topicQueryText(0, 6), K: 5},
	}
	resp, br := postBatch(t, f.ts.URL, BatchSearchRequest{Queries: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(br.Responses) != len(queries) {
		t.Fatalf("%d responses for %d queries", len(br.Responses), len(queries))
	}
	for i, q := range queries {
		single, sr := postSearch(t, f.ts.URL, q)
		if single.StatusCode != http.StatusOK {
			t.Fatalf("single member %d status %d", i, single.StatusCode)
		}
		// Hits and per-member execution stats: a cycle charges each member
		// what it costs alone.
		if !reflect.DeepEqual(br.Responses[i], sr) || sr.Stats == nil || sr.Stats.DocsScored == 0 {
			t.Errorf("member %d: batch answered %+v, /search %+v; want the same hits and stats, with something scored",
				i, br.Responses[i], sr)
		}
	}

	// One query through either endpoint: the same hits, the same stats,
	// the same query-log entry.
	f.server.ResetLog()
	_, sr := postSearch(t, f.ts.URL, queries[0])
	logged := f.server.QueryLog()
	f.server.ResetLog()
	_, one := postBatch(t, f.ts.URL, BatchSearchRequest{Queries: queries[:1]})
	if !reflect.DeepEqual(one.Responses, []SearchResponse{sr}) {
		t.Errorf("one-member batch answered %+v, /search %+v", one.Responses, sr)
	}
	if got := f.server.QueryLog(); len(got) != 1 || !reflect.DeepEqual(got, logged) {
		t.Errorf("one-member batch logged %+v, /search %+v", got, logged)
	}
}

// TestServerBatchValidation pins the shared request decoding: the
// batch endpoint enforces exactly the single endpoint's rules — empty
// query, negative k — plus its own member cap, and
// rejected batches log nothing.
func TestServerBatchValidation(t *testing.T) {
	f := getFixture(t)
	q := f.topicQueryText(2, 4)

	for name, batch := range map[string]BatchSearchRequest{
		"empty batch": {},
		"empty query": {Queries: []SearchRequest{{Query: q}, {Query: "   "}}},
		"negative k":  {Queries: []SearchRequest{{Query: q}, {Query: q, K: -2}}},
	} {
		resp, _ := postBatch(t, f.ts.URL, batch)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// The member cap rejects oversized batches outright.
	f.server.SetMaxBatch(2)
	defer f.server.SetMaxBatch(0)
	resp, _ := postBatch(t, f.ts.URL, BatchSearchRequest{Queries: []SearchRequest{
		{Query: q}, {Query: q}, {Query: q},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch status %d, want 400", resp.StatusCode)
	}

	// The SetMaxK clamp applies to batch members through the shared
	// decoder — the clamp can no longer be bypassed by batching.
	f.server.SetMaxK(3)
	defer f.server.SetMaxK(0)
	okResp, br := postBatch(t, f.ts.URL, BatchSearchRequest{Queries: []SearchRequest{{Query: q, K: 500000}}})
	if okResp.StatusCode != http.StatusOK {
		t.Fatalf("clamped batch status %d", okResp.StatusCode)
	}
	if len(br.Responses[0].Hits) > 3 {
		t.Errorf("batch member returned %d hits, SetMaxK cap is 3", len(br.Responses[0].Hits))
	}

	if log := f.server.QueryLog(); len(log) != 1 {
		// Only the single successful (clamped) batch should have logged.
		t.Errorf("query log has %d entries after validation failures, want 1", len(log))
	}
}

// TestBatchCycleAdversaryView is the privacy proof the batch endpoint
// must pass: submitting an obfuscation cycle through one POST
// /search/batch leaves exactly the query log that query-by-query
// submission leaves — same entries, same order, same sequence numbers
// — so the curious adversary of the threat model (who analyzes the
// retained log) cannot even tell which transport was used, and every
// log-based attack yields identical guesses. The (ε1, ε2) guarantee is
// a property of the cycle's content, which both transports submit
// verbatim.
func TestBatchCycleAdversaryView(t *testing.T) {
	f := getFixture(t)
	cl, err := NewClient(f.ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatal(err)
	}
	terms := f.an.Analyze(f.topicQueryText(3, 9))
	cycle, err := f.obf.Obfuscate(terms, rand.New(rand.NewSource(62)))
	if err != nil {
		t.Fatal(err)
	}

	// Transport A: one request per cycle member, in order.
	f.server.ResetLog()
	for _, q := range cycle.Queries {
		sorted := append([]string{}, q...)
		sort.Strings(sorted)
		resp, _ := postSearch(t, f.ts.URL, SearchRequest{Query: strings.Join(sorted, " "), K: 10})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sequential submit status %d", resp.StatusCode)
		}
	}
	seqLog := f.server.QueryLog()

	// Transport B: the whole cycle in one batch round-trip.
	f.server.ResetLog()
	if _, err := cl.SubmitBatch(context.Background(), cycle.Queries); err != nil {
		t.Fatal(err)
	}
	batchLog := f.server.QueryLog()

	if !reflect.DeepEqual(seqLog, batchLog) {
		t.Fatalf("adversary's view differs between transports:\nsequential: %v\nbatch:      %v", seqLog, batchLog)
	}
	if len(batchLog) != cycle.Len() {
		t.Fatalf("batch logged %d entries for a %d-query cycle", len(batchLog), cycle.Len())
	}

	// A log-based attack sees the same cycle either way and produces
	// the same guess — run the coherence attack over both recovered
	// logs with identical randomness.
	recover := func(log []LoggedQuery) [][]string {
		out := make([][]string, len(log))
		for i, entry := range log {
			out[i] = strings.Fields(entry.Query)
		}
		return out
	}
	attack := &adversary.CoherenceAttack{Eng: f.beng}
	guessSeq := attack.GuessUser(recover(seqLog), rand.New(rand.NewSource(63)))
	guessBatch := attack.GuessUser(recover(batchLog), rand.New(rand.NewSource(63)))
	if guessSeq != guessBatch {
		t.Errorf("coherence attack guesses differ: sequential %d, batch %d", guessSeq, guessBatch)
	}
}

// TestClientSearchCycleMatchesSearch: the single-round-trip cycle
// submission returns exactly the genuine query's results, like the
// query-by-query path does for the same cycle.
func TestClientSearchCycleMatchesSearch(t *testing.T) {
	f := getFixture(t)
	q := f.topicQueryText(1, 8)
	// Same RNG seed ⇒ both clients generate the same cycle.
	clA, err := NewClient(f.ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(64)))
	if err != nil {
		t.Fatal(err)
	}
	clB, err := NewClient(f.ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(64)))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := clA.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := clB.SearchCycle(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, batch) {
		t.Fatalf("cycle results differ:\nsequential: %v\nbatch:      %v", seq, batch)
	}
	if clB.LastCycle() == nil || clB.LastCycle().Len() != clA.LastCycle().Len() {
		t.Error("SearchCycle did not retain the cycle")
	}
}
