package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/frame"
	"toppriv/internal/search"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// wireTap is a transport that shows every router→shard cycle — the
// requests a shard rebuilds from a request frame on its cycle stream — to
// see before the frame is sent.
type wireTap struct {
	see func([]vsm.Request)
}

func (w wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols || streamKindOf(req.Header.Get("Upgrade")) != cycleStreams {
		return resp, err
	}
	resp.Body = tapStream{resp.Body.(io.ReadWriteCloser), w.see}
	return resp, nil
}

// tapStream decodes each request frame the router writes on a stream —
// one frame per Write — and shows it to see.
type tapStream struct {
	io.ReadWriteCloser
	see func([]vsm.Request)
}

func (s tapStream) Write(frame []byte) (int, error) {
	cycle, err := decodeBatchRequest(frame)
	if err != nil {
		return 0, err
	}
	s.see(cycle)
	return s.ReadWriteCloser.Write(frame)
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

// decodeCycleReply reads the reply frame of a cycle stream's exchange:
// the cycle's responses, or the shard's refusal as a *statusError.
func decodeCycleReply(b []byte) ([]vsm.Response, error) {
	return decodeReply(b, maxBatchReply, decodeBatchReply)
}

// rawStream opens a stream of kind to the shard served by ts by hand —
// the upgrade request written to a plain TCP connection and the 101 read
// off it — so that a test can send a shard what no router would.
func rawStream(t *testing.T, ts *httptest.Server, kind *streamKind) (*net.TCPConn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	// A shard that keeps a stream open it should have closed fails the
	// test instead of hanging it.
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "GET /cluster/stream HTTP/1.1\r\nHost: shard\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", kind.token)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != kind.token {
		t.Fatalf("upgrade answered %s, Upgrade %q", resp.Status, resp.Header.Get("Upgrade"))
	}
	return conn.(*net.TCPConn), br
}

// TestShardBatchRejectsBadStatistics pins the shard's answer to a
// request frame no router would send on its stream: statistics the
// scorer cannot weigh with (a df above the collection size makes idf
// negative or NaN, terms in a collection of no tokens make BM25's avgdl
// zero), a non-positive k — each a 400 refusal frame naming the member,
// from Request.Validate, after which the stream still answers — and
// bytes that are not a well-formed frame at all: a 400 refusal from the
// decoder, after which the stream is closed when the frame lost its
// framing. (A negative df and a df list that does not line up with the
// terms, which the JSON body could say, the frame has no way to.) A
// request that is no upgrade to a stream gets 426 over HTTP, and nothing
// serves POST /cluster/batch or the JSON control plane any more.
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
	request := func(k, docs int, totalLen int64, df ...int) []byte {
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
	good := request(5, 40, 4000, 3, 0, 40)
	// The last byte of the payload is member 1's reference to terms[2].
	badRef := append([]byte(nil), good...)
	badRef[len(badRef)-1] = 7
	unsealed := append([]byte(nil), badRef...)
	frame.Seal(badRef)
	checkGood := func(name string, reply []byte) {
		t.Helper()
		if got, err := decodeCycleReply(reply); err != nil || len(got) != 2 || len(got[1].Hits) == 0 {
			t.Errorf("%s: reply %+v, %v; want two members, the second with hits", name, got, err)
		}
	}
	for _, tt := range []struct {
		name string
		body []byte
		// end closes the router's side of the connection after body.
		end    bool
		status int
		says   string
		// lost: the frame lost the stream's framing, so the shard closes
		// the stream after refusing it.
		lost bool
	}{
		{"well-formed", good, false, http.StatusOK, "", false},
		{"df above docs", request(5, 40, 4000, 3, 41, 3), false, http.StatusBadRequest, "query 1", false},
		{"df on an empty collection", request(5, 0, 0, 0, 1, 0), false, http.StatusBadRequest, "query 1", false},
		{"terms in a collection of no tokens", request(5, 40, 0, 0, 3, 3), false, http.StatusBadRequest, "query 1", false},
		{"zero k", request(0, 40, 4000, 3, 3, 3), false, http.StatusBadRequest, "query 1", false},
		{"reference out of range", badRef, false, http.StatusBadRequest, "member 1 refers to term 7", false},
		{"bad CRC", unsealed, false, http.StatusBadRequest, "checksum", true},
		{"short frame", good[:len(good)-3], true, http.StatusBadRequest, "cut short", true},
		{"bytes after the frame", append(append([]byte(nil), good...), 0), false, http.StatusBadRequest, "after the frame", true},
		{"JSON body", []byte(`{"queries":[{"terms":["a"],"k":5,"global":{"docs":40,"total_len":4000,"df":[3]}}]}`), false, http.StatusBadRequest, "longer than its bound", true},
	} {
		conn, br := rawStream(t, tc.servers[0], cycleStreams)
		if _, err := conn.Write(tt.body); err != nil {
			t.Fatal(err)
		}
		if tt.end {
			conn.CloseWrite()
		}
		reply, err := readFrame(br, nil, maxBatchReply)
		if err != nil {
			t.Fatalf("%s: no reply frame: %v", tt.name, err)
		}
		if tt.status == http.StatusOK {
			checkGood(tt.name, reply)
		} else {
			_, err := decodeCycleReply(reply)
			var se *statusError
			if !errors.As(err, &se) || se.code != tt.status || !strings.Contains(se.msg, tt.says) {
				t.Errorf("%s: %v, want a %d refusal saying %q", tt.name, err, tt.status, tt.says)
			}
		}
		if tt.lost {
			if rest, err := readFrame(br, nil, maxBatchReply); err != io.EOF {
				t.Errorf("%s: stream still open after a frame that lost its framing: %x, %v", tt.name, rest, err)
			}
			continue
		}
		if tt.end {
			continue
		}
		if _, err := conn.Write(good); err != nil {
			t.Fatal(err)
		}
		reply, err = readFrame(br, nil, maxBatchReply)
		if err != nil {
			t.Fatalf("%s: the stream did not answer the next frame: %v", tt.name, err)
		}
		checkGood(tt.name+", then a well-formed frame", reply)
	}

	// Over HTTP: only an upgrade to a stream is one, a 426 names every
	// token, and the retired JSON endpoints are gone.
	base := tc.servers[0].URL
	for _, tt := range []struct {
		name, method, path, upgrade string
		status                      int
	}{
		{"no upgrade", http.MethodGet, "/cluster/stream", "", http.StatusUpgradeRequired},
		{"another protocol", http.MethodGet, "/cluster/stream", "websocket", http.StatusUpgradeRequired},
		{"POST", http.MethodPost, "/cluster/stream", cycleStreams.token, http.StatusMethodNotAllowed},
		{"the old batch endpoint", http.MethodPost, "/cluster/batch", "", http.StatusNotFound},
		{"the old stats endpoint", http.MethodGet, "/cluster/stats", "", http.StatusNotFound},
		{"the old document endpoint", http.MethodGet, "/cluster/doc/0", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tt.method, base+tt.path, bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		if tt.upgrade != "" {
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", tt.upgrade)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tt.status {
			t.Errorf("%s: status %d (%s), want %d", tt.name, resp.StatusCode, bytes.TrimSpace(msg), tt.status)
		}
		for _, token := range []string{cycleStreams.token, mutationStreams.token, controlStreams.token} {
			if tt.status == http.StatusUpgradeRequired && (!strings.Contains(resp.Header.Get("Upgrade"), token) || !bytes.Contains(msg, []byte(token))) {
				t.Errorf("%s: Upgrade %q, message %q: not both name %q", tt.name, resp.Header.Get("Upgrade"), bytes.TrimSpace(msg), token)
			}
		}
	}
}

// TestShardRefusesMalformedMutation pins a shard's answer to a frame on
// a mutation stream whose seq or instance is malformed, absent or another
// process's, or that is no well-formed mutation frame at all, a cycle's
// frame included: a refusal naming the fault, the document untouched.
// After a frame that lost the stream's framing the shard closes the
// stream; after any other refusal the stream still answers. A seq read as
// absent once applied a journalled delete unjournalled, so its re-drive
// met a 404 and the router retired the record as rejected; an instance
// read as absent skipped the restart precondition. Over HTTP nothing
// serves POST /cluster/mutate any more, and an unknown Upgrade token gets
// 426.
func TestShardRefusesMalformedMutation(t *testing.T) {
	tc := newTestCluster(t, vsm.BM25, 1, Config{})
	docs := synthDocs(t, 12, 19)
	gids, err := tc.router.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	base := tc.servers[0].URL
	// send writes frame on the stream and returns the status and message
	// of the frame it is answered with: 200 for an ack, a refusal's own.
	send := func(conn *net.TCPConn, br *bufio.Reader, frame []byte, end bool) (int, string) {
		t.Helper()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if end {
			conn.CloseWrite()
		}
		reply, err := readFrame(br, nil, maxStats)
		if err != nil {
			t.Fatalf("no answer frame: %v", err)
		}
		_, err = decodeReply(reply, maxStats, decodeStats)
		var se *statusError
		switch {
		case err == nil:
			return http.StatusOK, ""
		case !errors.As(err, &se):
			t.Fatalf("the answer is neither an ack nor a refusal: %v", err)
		}
		return se.code, se.msg
	}
	held := func() bool {
		_, ok := tc.router.Doc(gids[4])
		return ok
	}
	instance := tc.shards[0].instance
	gid := uint64(gids[4])
	good := payloadFrame(99, instance, opDelete, gid)
	unsealed := append([]byte(nil), good...)
	unsealed[len(unsealed)-1] ^= 1
	noSeq := payloadFrame(0, instance, opDelete, gid)
	// A cycle's seq and instance are its collection size and length, and
	// its two terms read as op 2.
	cycle := appendBatchRequest(nil, 12, 400, []vsm.Request{{Terms: []string{"shard", "rule"}, K: 5}}, func(string) int { return 1 })
	next := tc.stores[0].NextID()
	for _, tt := range []struct {
		name   string
		frame  []byte
		end    bool
		status int
		names  string
		// lost: the frame lost the stream's framing, so the shard closes
		// the stream after refusing it.
		lost bool
	}{
		{"no seq", noSeq, false, http.StatusBadRequest, "seq", false},
		{"padded seq", payloadFrame([]byte{0xe3, 0x00}, instance, opDelete, gid), false, http.StatusBadRequest, "integer", false},
		{"seq overflows", payloadFrame(bytes.Repeat([]byte{0xff}, 10), 1, instance, opDelete, gid), false, http.StatusBadRequest, "integer", false},
		{"padded instance", payloadFrame(99, []byte{0xaa, 0x80, 0x00}, opDelete, gid), false, http.StatusBadRequest, "integer", false},
		{"another process's instance", payloadFrame(99, instance+2, opDelete, gid), false, http.StatusPreconditionFailed, "instance mismatch", false},
		{"unknown op", payloadFrame(99, instance, 2, gid), false, http.StatusBadRequest, "op 2", false},
		{"a cycle frame", cycle, false, http.StatusBadRequest, "op 2", false},
		{"bad CRC", unsealed, false, http.StatusBadRequest, "checksum", true},
		{"short frame", good[:len(good)-1], true, http.StatusBadRequest, "cut short", true},
		{"bytes after the frame", append(append([]byte(nil), good...), 0), false, http.StatusBadRequest, "after the frame", true},
		{"JSON body", []byte(fmt.Sprintf(`{"seq":99,"delete":%d}`, gid)), false, http.StatusBadRequest, "longer than its bound", true},
	} {
		conn, br := rawStream(t, tc.servers[0], mutationStreams)
		status, msg := send(conn, br, tt.frame, tt.end)
		if status != tt.status || !strings.Contains(msg, tt.names) {
			t.Errorf("%s: %d %q, want %d naming %q", tt.name, status, msg, tt.status, tt.names)
		}
		if !held() {
			t.Fatalf("%s: document gone after a refused delete", tt.name)
		}
		if st := tc.stores[0]; st.NextID() != next || st.NumDocs() != len(docs) {
			t.Fatalf("%s: the store changed: next ID %d → %d, %d → %d documents", tt.name, next, st.NextID(), len(docs), st.NumDocs())
		}
		switch {
		case tt.lost:
			if rest, err := readFrame(br, nil, maxStats); err != io.EOF {
				t.Errorf("%s: stream still open after a frame that lost its framing: %x, %v", tt.name, rest, err)
			}
		case !tt.end:
			if status, msg := send(conn, br, noSeq, false); status != http.StatusBadRequest {
				t.Errorf("%s: the stream answered the next frame %d %q, want a 400 refusal", tt.name, status, msg)
			}
		}
	}

	// Over HTTP: the old endpoint is gone, and another token is no stream.
	for _, tt := range []struct {
		name, method, path, upgrade string
		status                      int
	}{
		{"the old mutation endpoint", http.MethodPost, "/cluster/mutate", "", http.StatusNotFound},
		{"an unknown token", http.MethodGet, "/cluster/stream", "toppriv-mutate", http.StatusUpgradeRequired},
	} {
		req, err := http.NewRequest(tt.method, base+tt.path, bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		if tt.upgrade != "" {
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", tt.upgrade)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tt.status {
			t.Errorf("%s: status %d, want %d", tt.name, resp.StatusCode, tt.status)
		}
		if !held() {
			t.Fatalf("%s: document gone", tt.name)
		}
	}

	// Well-formed, the delete applies, and its re-drive under the same
	// sequence on the same stream is acknowledged.
	conn, br := rawStream(t, tc.servers[0], mutationStreams)
	for _, what := range []string{"delete", "re-driven delete"} {
		if status, msg := send(conn, br, good, false); status != http.StatusOK {
			t.Fatalf("%s: %d %q, want 200", what, status, msg)
		}
	}
	if held() {
		t.Fatal("deleted document still served")
	}
}

// TestClusterIndexesEscapeHeavyDocument: a document public /index
// accepts reaches its shard whatever its text. Its text here is '<', '>'
// and '&' just short of /index's 32 MiB limit, which JSON on the shard
// hop escaped to six bytes each, past the shard's limit: the add failed
// for good.
func TestClusterIndexesEscapeHeavyDocument(t *testing.T) {
	const maxIndexBody = 32 << 20 // search's cap on a POST /index body
	tc := newTestCluster(t, vsm.BM25, 2, Config{})
	srv, err := search.NewServer(tc.router, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := serveNamed(t, srv)
	defer front.Close()
	const head, tail = `{"docs":[{"title":"markup","text":"`, `"}]}`
	text := strings.Repeat("<&>", (maxIndexBody-len(head)-len(tail))/3)
	resp, err := http.Post(front.URL+"/index", "application/json", strings.NewReader(head+text+tail))
	if err != nil {
		t.Fatal(err)
	}
	var ids search.IndexResponse
	err = json.NewDecoder(resp.Body).Decode(&ids)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || len(ids.IDs) != 1 {
		t.Fatalf("POST /index of a %d-byte body: %d, %+v, %v", len(head)+len(text)+len(tail), resp.StatusCode, ids, err)
	}
	gid := ids.IDs[0]
	doc, ok := tc.stores[tc.router.ring.place(gid)].Doc(gid)
	if !ok || doc.Title != "markup" || doc.Text != text {
		t.Fatalf("gid %d on its shard: ok=%v, title %q, %d text bytes of %d", gid, ok, doc.Title, len(doc.Text), len(text))
	}
}

// TestRouterAddRefusesOversizedShare: a share of an add that cannot fit
// a mutation frame fails the call before the record is logged: no gid
// is burned, nothing is pending, and the journal is as it was.
func TestRouterAddRefusesOversizedShare(t *testing.T) {
	tc := newTestCluster(t, vsm.BM25, 2, Config{JournalDir: t.TempDir(), noHealthLoop: true})
	r := tc.router
	t.Cleanup(func() { r.Close() })
	wal := r.journal.Size()
	huge := corpus.Document{Title: "huge", Text: strings.Repeat("x", maxMutationBody)}
	if _, err := r.Add(huge); err == nil || !strings.Contains(err.Error(), "over the") {
		t.Fatalf("an add over the frame bound: %v", err)
	}
	if r.nextGid != 0 || len(r.pending) != 0 || r.journal.Size() != wal {
		t.Fatalf("a refused add left next gid %d, %d pending, journal %d → %d bytes", r.nextGid, len(r.pending), wal, r.journal.Size())
	}
	docs := synthDocs(t, 3, 23)
	gids, err := r.Add(docs...)
	if err != nil || gids[0] != 0 {
		t.Fatalf("the next add: gids %v, %v; want them from 0", gids, err)
	}
}
