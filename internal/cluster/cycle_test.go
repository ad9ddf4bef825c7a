package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// wireTap is a transport that shows every router→shard cycle
// (/cluster/batch body) to see before forwarding the request.
type wireTap struct {
	see func(batchRequest)
}

func (w wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/cluster/batch") {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		var br batchRequest
		err = json.NewDecoder(body).Decode(&br)
		body.Close()
		if err != nil {
			return nil, err
		}
		w.see(br)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// overlappingCycle builds an n-member cycle over one pool of n words:
// member i is the pool without word i, so every term recurs in n−1
// members — the overlap ghosts of one masking topic have, and far past
// the engine's sharing gate on every segment.
func overlappingCycle(pool []string) [][]string {
	cycle := make([][]string, len(pool))
	for i := range pool {
		for j, w := range pool {
			if j != i {
				cycle[i] = append(cycle[i], w)
			}
		}
	}
	return cycle
}

// TestCycleScoresAgainstOneSnapshot interleaves routed ingest with
// routed cycles and inspects the wire: every member of one cycle must
// carry the same merged Docs/TotalLen. Per-member snapshots let an
// ingest ack land between two members, scoring one cycle against two
// collections and splitting the shards' shared traversal.
func TestCycleScoresAgainstOneSnapshot(t *testing.T) {
	var mu sync.Mutex
	collections := map[int]bool{}
	tap := wireTap{see: func(br batchRequest) {
		first := br.Queries[0].Global
		for i, q := range br.Queries {
			if q.Global.Docs != first.Docs || q.Global.TotalLen != first.TotalLen {
				t.Errorf("member %d scores against %d docs / %d tokens, member 0 against %d / %d",
					i, q.Global.Docs, q.Global.TotalLen, first.Docs, first.TotalLen)
				return
			}
		}
		mu.Lock()
		collections[first.Docs] = true
		mu.Unlock()
	}}
	tc := newTestCluster(t, vsm.BM25, 3, Config{HTTPClient: &http.Client{Transport: tap}})
	docs := synthDocs(t, 140, 77)
	if _, err := tc.router.Add(docs[:20]...); err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	reqs := make([]vsm.Request, 48)
	for i := range reqs {
		reqs[i] = vsm.Request{Terms: an.Analyze(queryFrom(docs[i%20], i, 12)), K: 5}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 20; i < len(docs); i++ {
			if _, err := tc.router.Add(docs[i]); err != nil {
				t.Errorf("add: %v", err)
				return
			}
		}
	}()
	for ingesting := true; ingesting && !t.Failed(); {
		select {
		case <-done:
			ingesting = false
		default:
		}
		if _, err := tc.router.SearchBatch(context.Background(), reqs); err != nil {
			t.Error(err)
		}
	}
	<-done
	if len(collections) < 2 {
		t.Errorf("cycles saw %d distinct collection sizes: ingest never interleaved", len(collections))
	}
}

// TestRoutedCycleSharesTraversal is the guard on the routed path: a
// cycle of overlapping members sent through the router must cost each
// member, on every segment of every shard, exactly the work of the flat
// scan — the postings, decodes and documents of its own lists, as the
// work counters the wire carries back report them. (The shard engines
// of a segment.Store are deliberately uninstrumented, so there is no
// trace ring to consult; vsm's own tests check the "batch" trace
// label.)
func TestRoutedCycleSharesTraversal(t *testing.T) {
	for _, scoring := range []vsm.Scoring{vsm.Cosine, vsm.BM25} {
		scoring := scoring
		t.Run(scoring.String(), func(t *testing.T) {
			tc := newTestCluster(t, scoring, 3, Config{})
			docs := synthDocs(t, 120, 91)
			if _, err := tc.router.Add(docs...); err != nil {
				t.Fatal(err)
			}
			for i, st := range tc.stores {
				if n := st.Stats().Segments; n < 2 {
					t.Fatalf("shard %d has %d sealed segments, want several", i, n)
				}
			}
			pool := textproc.NewAnalyzer().Analyze(queryFrom(docs[3], 0, 6))
			if len(pool) < 4 {
				t.Fatalf("pool of %d terms, want ≥ 4 members", len(pool))
			}
			cycle := overlappingCycle(pool)
			reqs := make([]vsm.Request, len(cycle))
			for i, terms := range cycle {
				reqs[i] = vsm.Request{Terms: terms, K: 3}
			}
			routed, err := tc.router.SearchBatch(context.Background(), reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range routed {
				// The reference work: the member alone on every shard's store,
				// in process. Postings, decodes and documents touched do not
				// depend on the collection statistics, so local statistics
				// serve.
				var want vsm.ExecStats
				for _, st := range tc.stores {
					resp, err := st.SearchRequest(context.Background(),
						vsm.Request{Terms: cycle[i], K: 3})
					if err != nil {
						t.Fatal(err)
					}
					want.Add(resp.Stats)
				}
				got := routed[i].Stats
				if got.Postings == 0 || got.DocsPruned != 0 {
					t.Errorf("member %d: no postings counted, or some pruned: %+v", i, got)
				}
				if got.Postings != want.Postings || got.BlocksDecoded != want.BlocksDecoded || got.DocsScored != want.DocsScored {
					t.Errorf("member %d: routed work %+v, alone %+v", i, got, want)
				}
			}
		})
	}
}

// TestShardBatchIgnoresLegacyMode pins mixed-version rolling restarts:
// a /cluster/batch member that still carries the retired "mode" field —
// a router one release behind its shard — is answered exactly like the
// same member without it, whatever the value, never with a 400.
func TestShardBatchIgnoresLegacyMode(t *testing.T) {
	tc := newTestCluster(t, vsm.BM25, 1, Config{})
	docs := synthDocs(t, 40, 17)
	if _, err := tc.router.Add(docs...); err != nil {
		t.Fatal(err)
	}
	terms := textproc.NewAnalyzer().Analyze(queryFrom(docs[5], 0, 4))
	global := &vsm.GlobalStats{Docs: len(docs), TotalLen: 4000, DF: make([]int, len(terms))}
	for i := range global.DF {
		global.DF[i] = 3
	}
	post := func(mode string) batchResponse {
		t.Helper()
		member := map[string]interface{}{"terms": terms, "k": 5, "global": global}
		if mode != "" {
			member["mode"] = mode
		}
		body, err := json.Marshal(map[string]interface{}{"queries": []interface{}{member}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(tc.servers[0].URL+"/cluster/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %q: status %d, want 200", mode, resp.StatusCode)
		}
		var br batchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		return br
	}
	want := post("")
	if len(want.Responses) != 1 || len(want.Responses[0].Hits) == 0 {
		t.Fatalf("no hits without a mode: %+v", want)
	}
	for _, mode := range []string{"auto", "blockmax", "exhaustive", "turbo"} {
		if got := post(mode); !reflect.DeepEqual(got, want) {
			t.Errorf("mode %q changed the answer:\n%+v\nwant %+v", mode, got, want)
		}
	}
}

// TestShardBatchRejectsBadStatistics pins the shard's answer to a
// /cluster/batch body no router would send: statistics the scorer
// cannot weigh with (a df below zero or above the collection size
// makes idf negative or NaN, terms in a collection of no tokens make
// BM25's avgdl zero), a df list that does not line up with the terms, a
// non-positive k. Each is a 400 naming the member — before
// this check the first two were ranked with garbage weights and
// answered 200, and the others came back as a 500.
func TestShardBatchRejectsBadStatistics(t *testing.T) {
	tc := newTestCluster(t, vsm.BM25, 1, Config{})
	docs := synthDocs(t, 40, 17)
	if _, err := tc.router.Add(docs...); err != nil {
		t.Fatal(err)
	}
	terms := textproc.NewAnalyzer().Analyze(queryFrom(docs[5], 0, 3))
	if len(terms) != 3 {
		t.Fatalf("query analyzed to %v, want three terms", terms)
	}
	for _, tt := range []struct {
		name   string
		k      int
		global vsm.GlobalStats
		status int
	}{
		{"well-formed", 5, vsm.GlobalStats{Docs: 40, TotalLen: 4000, DF: []int{3, 0, 40}}, http.StatusOK},
		{"negative df", 5, vsm.GlobalStats{Docs: 40, TotalLen: 4000, DF: []int{3, -1, 3}}, http.StatusBadRequest},
		{"df above docs", 5, vsm.GlobalStats{Docs: 40, TotalLen: 4000, DF: []int{3, 41, 3}}, http.StatusBadRequest},
		{"df on an empty collection", 5, vsm.GlobalStats{Docs: 0, TotalLen: 0, DF: []int{0, 1, 0}}, http.StatusBadRequest},
		{"short df", 5, vsm.GlobalStats{Docs: 40, TotalLen: 4000, DF: []int{3, 3}}, http.StatusBadRequest},
		{"negative docs", 5, vsm.GlobalStats{Docs: -1, TotalLen: 4000, DF: []int{0, 0, 0}}, http.StatusBadRequest},
		{"terms in a collection of no tokens", 5, vsm.GlobalStats{Docs: 40, TotalLen: 0, DF: []int{3, 3, 3}}, http.StatusBadRequest},
		{"zero k", 0, vsm.GlobalStats{Docs: 40, TotalLen: 4000, DF: []int{3, 3, 3}}, http.StatusBadRequest},
	} {
		good := map[string]interface{}{"terms": terms, "k": 5, "global": vsm.GlobalStats{Docs: 40, TotalLen: 4000, DF: []int{3, 3, 3}}}
		bad := map[string]interface{}{"terms": terms, "k": tt.k, "global": tt.global}
		body, err := json.Marshal(map[string]interface{}{"queries": []interface{}{good, bad}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(tc.servers[0].URL+"/cluster/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tt.status {
			t.Errorf("%s: status %d (%s), want %d", tt.name, resp.StatusCode, bytes.TrimSpace(msg), tt.status)
		}
		if tt.status == http.StatusBadRequest && !bytes.Contains(msg, []byte("query 1")) {
			t.Errorf("%s: error %q does not name the offending member", tt.name, bytes.TrimSpace(msg))
		}
	}
}

// TestShardDeleteRejectsMalformedParameters pins the shard's answer to
// a DELETE /cluster/doc/{gid} whose seq or instance does not parse: a
// 400 naming the parameter, the document untouched. Read as absent — as
// they were — a malformed seq applied a journalled delete unjournalled,
// so its re-drive met a 404 and the router retired the record as
// rejected, and a malformed instance skipped the restart precondition.
func TestShardDeleteRejectsMalformedParameters(t *testing.T) {
	tc := newTestCluster(t, vsm.BM25, 1, Config{})
	docs := synthDocs(t, 12, 19)
	gids, err := tc.router.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/cluster/doc/%d", tc.servers[0].URL, gids[4])
	do := func(method, query string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, url+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(bytes.TrimSpace(msg))
	}
	instance := tc.shards[0].instance
	for _, tt := range []struct {
		name, query, names string
		status             int
	}{
		{"seq is not a number", "?seq=next", "seq", http.StatusBadRequest},
		{"negative seq", fmt.Sprintf("?seq=-1&instance=%d", instance), "seq", http.StatusBadRequest},
		{"seq overflows", "?seq=18446744073709551616", "seq", http.StatusBadRequest},
		{"instance is not a number", "?seq=99&instance=0x2a", "instance", http.StatusBadRequest},
		{"another process's instance", fmt.Sprintf("?seq=99&instance=%d", instance+2), "instance mismatch", http.StatusPreconditionFailed},
	} {
		status, msg := do(http.MethodDelete, tt.query)
		if status != tt.status || !strings.Contains(msg, tt.names) {
			t.Errorf("%s: %d %q, want %d naming %q", tt.name, status, msg, tt.status, tt.names)
		}
		if status, _ := do(http.MethodGet, ""); status != http.StatusOK {
			t.Fatalf("%s: document gone after a refused delete (GET %d)", tt.name, status)
		}
	}
	// Well-formed, the delete applies, and its re-drive under the same
	// sequence is acknowledged.
	good := fmt.Sprintf("?seq=99&instance=%d", instance)
	for _, what := range []string{"delete", "re-driven delete"} {
		if status, msg := do(http.MethodDelete, good); status != http.StatusOK {
			t.Fatalf("%s: %d %q, want 200", what, status, msg)
		}
	}
	if status, _ := do(http.MethodGet, ""); status != http.StatusNotFound {
		t.Fatalf("deleted document still served (GET %d)", status)
	}
}
