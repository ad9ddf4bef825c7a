package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// wireTap is a transport that shows every router→shard cycle — the
// requests a shard rebuilds from the /cluster/batch frame — to see
// before forwarding the request.
type wireTap struct {
	see func([]vsm.Request)
}

func (w wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/cluster/batch") {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		frame, err := io.ReadAll(body)
		body.Close()
		if err != nil {
			return nil, err
		}
		cycle, err := decodeBatchRequest(frame)
		if err != nil {
			return nil, err
		}
		w.see(cycle)
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
// carry the same merged Docs/TotalLen, and equal terms the same df.
// Per-member snapshots let an ingest ack land between two members,
// scoring one cycle against two collections and splitting the shards'
// shared traversal. The frame now makes this hold by construction — it
// has room for one snapshot and one df per distinct term — so what the
// test still guards is the decoder handing every member that one
// snapshot, and a router that would go back to taking several.
func TestCycleScoresAgainstOneSnapshot(t *testing.T) {
	var mu sync.Mutex
	collections := map[int]bool{}
	tap := wireTap{see: func(cycle []vsm.Request) {
		first := cycle[0].Global
		df := map[string]int{}
		for i, q := range cycle {
			if q.Global.Docs != first.Docs || q.Global.TotalLen != first.TotalLen {
				t.Errorf("member %d scores against %d docs / %d tokens, member 0 against %d / %d",
					i, q.Global.Docs, q.Global.TotalLen, first.Docs, first.TotalLen)
				return
			}
			for j, term := range q.Terms {
				if was, ok := df[term]; ok && was != q.Global.DF[j] {
					t.Errorf("member %d weighs a term with df %d, an earlier member with %d", i, q.Global.DF[j], was)
					return
				}
				df[term] = q.Global.DF[j]
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

// TestShardBatchRejectsBadStatistics pins the shard's answer to a
// /cluster/batch body no router would send: statistics the scorer
// cannot weigh with (a df above the collection size makes idf negative
// or NaN, terms in a collection of no tokens make BM25's avgdl zero), a
// non-positive k — each a 400 naming the member, from Request.Validate —
// and a body that is not a well-formed frame at all: a 400 from the
// decoder, or 415 when it does not even claim to be one. (A negative df
// and a df list that does not line up with the terms, which the JSON
// body could say, the frame has no way to.)
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
	// Member 0 is well-formed and asks for terms[0] alone; member 1 brings
	// in the other two, so whatever is wrong with their statistics is
	// member 1's.
	frame := func(k, docs int, totalLen int64, df ...int) []byte {
		members := []vsm.Request{{Terms: terms[:1], K: 5}, {Terms: terms, K: k}}
		return appendBatchRequest(nil, docs, totalLen, members, func(term string) int {
			for i := range terms {
				if terms[i] == term {
					return df[i]
				}
			}
			t.Fatalf("df asked for %q", term)
			return 0
		})
	}
	good := frame(5, 40, 4000, 3, 0, 40)
	// The last byte of the payload is member 1's reference to terms[2].
	badRef := append([]byte(nil), good...)
	badRef[len(badRef)-1] = 7
	unsealed := append([]byte(nil), badRef...)
	sealFrame(badRef)
	for _, tt := range []struct {
		name        string
		contentType string
		body        []byte
		status      int
		names       string
	}{
		{"well-formed", batchContentType, good, http.StatusOK, ""},
		{"df above docs", batchContentType, frame(5, 40, 4000, 3, 41, 3), http.StatusBadRequest, "query 1"},
		{"df on an empty collection", batchContentType, frame(5, 0, 0, 0, 1, 0), http.StatusBadRequest, "query 1"},
		{"terms in a collection of no tokens", batchContentType, frame(5, 40, 0, 0, 3, 3), http.StatusBadRequest, "query 1"},
		{"zero k", batchContentType, frame(0, 40, 4000, 3, 3, 3), http.StatusBadRequest, "query 1"},
		{"bad CRC", batchContentType, unsealed, http.StatusBadRequest, "checksum"},
		{"short frame", batchContentType, good[:len(good)-3], http.StatusBadRequest, "cut short"},
		{"bytes after the frame", batchContentType, append(append([]byte(nil), good...), 0), http.StatusBadRequest, "after the frame"},
		{"reference out of range", batchContentType, badRef, http.StatusBadRequest, "member 1 refers to term 7"},
		{"JSON body", "application/json", []byte(`{"queries":[{"terms":["a"],"k":5,"global":{"docs":40,"total_len":4000,"df":[3]}}]}`), http.StatusUnsupportedMediaType, batchContentType},
		{"frame under a JSON content type", "application/json", good, http.StatusUnsupportedMediaType, batchContentType},
	} {
		resp, err := http.Post(tc.servers[0].URL+"/cluster/batch", tt.contentType, bytes.NewReader(tt.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tt.status {
			t.Errorf("%s: status %d (%s), want %d", tt.name, resp.StatusCode, bytes.TrimSpace(msg), tt.status)
		}
		if tt.status == http.StatusOK {
			if got, err := decodeBatchReply(msg); err != nil || len(got) != 2 || len(got[1].Hits) == 0 {
				t.Errorf("%s: reply %+v, %v; want two members, the second with hits", tt.name, got, err)
			}
		} else if !bytes.Contains(msg, []byte(tt.names)) {
			t.Errorf("%s: error %q does not say %q", tt.name, bytes.TrimSpace(msg), tt.names)
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
