package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/search"
	"toppriv/internal/telemetry"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// ownedBy returns the survivor gids the ring places on shard i.
func ownedBy(r *Router, gids []corpus.DocID, i int) map[corpus.DocID]bool {
	owned := make(map[corpus.DocID]bool)
	for _, gid := range gids {
		if r.ring.place(gid) == i {
			owned[gid] = true
		}
	}
	return owned
}

// degradedWant cuts the healthy full-retrieval result down to what the
// survivors can serve: drop the dead shard's documents, keep order,
// truncate to k. Because the router scores with cached full-cluster
// statistics, survivor scores must be bit-identical to the healthy
// run's.
func degradedWant(full []vsm.Result, dead map[corpus.DocID]bool, k int) []vsm.Result {
	out := make([]vsm.Result, 0, k)
	for _, res := range full {
		if dead[res.Doc] {
			continue
		}
		out = append(out, res)
		if len(out) == k {
			break
		}
	}
	return out
}

func checkDegradedResults(t *testing.T, resp vsm.Response, want []vsm.Result, deadName string) {
	t.Helper()
	if !resp.Degraded {
		t.Fatal("response from partial cluster not marked Degraded")
	}
	okShards, failShards := 0, 0
	for _, st := range resp.Shards {
		if st.OK {
			okShards++
			continue
		}
		failShards++
		if st.Shard != deadName {
			t.Fatalf("healthy shard %s reported failed: %s", st.Shard, st.Err)
		}
		if st.Err == "" {
			t.Fatal("failed shard carries no error")
		}
	}
	if failShards != 1 {
		t.Fatalf("%d shards reported failed, want exactly the dead one", failShards)
	}
	if len(resp.Hits) != len(want) {
		t.Fatalf("degraded merge returned %d hits, want %d", len(resp.Hits), len(want))
	}
	for i := range want {
		if resp.Hits[i].Doc != want[i].Doc || math.Abs(resp.Hits[i].Score-want[i].Score) > 0 {
			t.Fatalf("degraded rank %d: got doc %d score %.12f, want doc %d score %.12f",
				i, resp.Hits[i].Doc, resp.Hits[i].Score, want[i].Doc, want[i].Score)
		}
	}
}

// TestClusterDegradesOnDeadShard: killing a shard process must never
// fail a query — the survivors' merged results come back flagged, with
// scores unchanged from the healthy run, within the shard deadline.
func TestClusterDegradesOnDeadShard(t *testing.T) {
	tc := newTestCluster(t, vsm.BM25, 3, Config{Deadline: 2 * time.Second})
	r := tc.router
	docs := synthDocs(t, 50, 77)
	gids, err := r.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}

	queries := make([][]string, 0, 6)
	an := textproc.NewAnalyzer()
	for i := 0; i < 6; i++ {
		queries = append(queries, an.Analyze(queryFrom(docs[i*7], i*5, 4)))
	}

	// Healthy baseline at full retrieval.
	full := make([][]vsm.Result, len(queries))
	for i, terms := range queries {
		resp, err := r.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: len(gids)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Degraded {
			t.Fatalf("healthy cluster degraded: %+v", resp.Shards)
		}
		full[i] = resp.Hits
	}

	const victim = 1
	dead := ownedBy(r, gids, victim)
	if len(dead) == 0 || len(dead) == len(gids) {
		t.Fatalf("degenerate placement: victim owns %d of %d docs", len(dead), len(gids))
	}
	tc.servers[victim].Close()

	const k = 10
	for i, terms := range queries {
		resp, err := r.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: k})
		if err != nil {
			t.Fatalf("query against partial cluster errored: %v", err)
		}
		checkDegradedResults(t, resp, degradedWant(full[i], dead, k), r.shards[victim].name)
	}

	// Health surface: the victim is down with an error recorded, the
	// survivors are up, and the degraded-cycle counter moved.
	h := r.ClusterHealth()
	if h.Degraded == 0 {
		t.Fatal("degraded counter did not move")
	}
	for i, sh := range h.Shards {
		if i == victim {
			if sh.Up || sh.LastError == "" || sh.Errors == 0 {
				t.Fatalf("victim health not reported: %+v", sh)
			}
		} else if !sh.Up {
			t.Fatalf("survivor %s reported down: %+v", sh.Shard, sh)
		}
	}

	// All shards down: still no error — empty, fully degraded response.
	for _, ts := range tc.servers {
		ts.Close()
	}
	resp, err := r.SearchRequest(context.Background(), vsm.Request{Terms: queries[0], K: k})
	if err != nil {
		t.Fatalf("query against fully-dead cluster errored: %v", err)
	}
	if !resp.Degraded || len(resp.Hits) != 0 {
		t.Fatalf("fully-dead cluster: degraded=%v hits=%d", resp.Degraded, len(resp.Hits))
	}
	// Mutations are the opposite contract: they must error.
	if _, err := r.Add(docs[0]); err == nil {
		t.Fatal("ingest into dead cluster did not error")
	}
	if err := r.Delete(gids[0]); err == nil {
		t.Fatal("delete against dead cluster did not error")
	}
}

// TestClusterDeadlineBoundsSlowShard: a shard that stalls past its
// deadline is cut off — the query returns promptly with survivor
// results, and the stall does not leak goroutines.
func TestClusterDeadlineBoundsSlowShard(t *testing.T) {
	const deadline = 150 * time.Millisecond
	var stall atomic.Bool
	tc := newTestCluster(t, vsm.Cosine, 3, Config{Deadline: deadline})
	// Re-front shard 2 with a stalling proxy: same backing server, but
	// /cluster/batch hangs far past the router deadline when tripped.
	inner := tc.servers[2]
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stall.Load() && r.URL.Path == "/cluster/batch" {
			time.Sleep(10 * deadline)
		}
		proxyTo(t, inner.URL, w, r)
	}))
	defer slow.Close()
	shardURLs := []string{tc.servers[0].URL, tc.servers[1].URL, slow.URL}
	r, err := New(Config{Shards: shardURLs, Deadline: deadline, Analyzer: textproc.NewAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}

	docs := synthDocs(t, 40, 5)
	gids, err := r.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	terms := an.Analyze(queryFrom(docs[3], 2, 4))
	fullResp, err := r.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: len(gids)})
	if err != nil || fullResp.Degraded {
		t.Fatalf("healthy baseline failed: err=%v degraded=%v", err, fullResp.Degraded)
	}

	before := runtime.NumGoroutine()
	stall.Store(true)
	const k = 10
	start := time.Now()
	resp, err := r.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: k})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("slow shard failed the query: %v", err)
	}
	if elapsed > 6*deadline {
		t.Fatalf("query took %v, deadline %v not enforced", elapsed, deadline)
	}
	dead := ownedBy(r, gids, 2)
	checkDegradedResults(t, resp, degradedWant(fullResp.Hits, dead, k), slow.URL)
	for _, st := range resp.Shards {
		if !st.OK && !strings.Contains(st.Err, "deadline") {
			t.Fatalf("slow shard error does not name the deadline: %q", st.Err)
		}
	}
	stall.Store(false)

	// The stalled exchanges' goroutines must drain once their sleeps
	// and contexts unwind — no per-degraded-query leak.
	deadlineAt := time.Now().Add(15 * deadline)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadlineAt) {
			t.Fatalf("goroutines leaked: %d before stall, %d after settle", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// proxyTo forwards one request to a backing server, streaming status,
// headers and body — a minimal fault-injection seam.
func proxyTo(t testing.TB, base string, w http.ResponseWriter, r *http.Request) {
	var body bytes.Buffer
	if r.Body != nil {
		body.ReadFrom(r.Body)
	}
	req, err := http.NewRequest(r.Method, base+r.URL.Path, &body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for key, vals := range resp.Header {
		for _, v := range vals {
			w.Header().Add(key, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	w.Write(out.Bytes())
}

// rstListener RST-kills the first n accepted connections — a shard
// mid-restart as the router's transport sees it.
type rstListener struct {
	net.Listener
	kills atomic.Int32
}

func (l *rstListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.kills.Load() <= 0 {
			return c, nil
		}
		l.kills.Add(-1)
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		c.Close()
	}
}

// TestClusterRetryRidesOutFlakyShard: with a retry budget, connection
// resets from a restarting shard do not degrade the query; without
// one, they do.
func TestClusterRetryRidesOutFlakyShard(t *testing.T) {
	tc := newTestCluster(t, vsm.Cosine, 2, Config{})
	docs := synthDocs(t, 30, 9)
	if _, err := tc.router.Add(docs...); err != nil {
		t.Fatal(err)
	}

	// Re-front shard 1 through a flaky listener proxying to the real
	// shard. Keep-alives are disabled on the router's client so every
	// exchange dials the flaky listener fresh.
	inner := tc.servers[1]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &rstListener{Listener: ln}
	proxy := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		proxyTo(t, inner.URL, w, r)
	})}
	go proxy.Serve(fl)
	defer proxy.Close()

	noKeepAlive := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	shardURLs := []string{tc.servers[0].URL, "http://" + ln.Addr().String()}
	an := textproc.NewAnalyzer()
	terms := an.Analyze(queryFrom(docs[2], 0, 4))

	// Without retries the reset degrades the cycle.
	bare, err := New(Config{Shards: shardURLs, HTTPClient: noKeepAlive, Analyzer: textproc.NewAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	fl.kills.Store(1)
	resp, err := bare.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("reset without retry budget did not degrade")
	}

	// With a budget the same fault is invisible.
	retrying, err := New(Config{
		Shards:     shardURLs,
		HTTPClient: noKeepAlive,
		Retry:      search.RetryPolicy{Max: 2, Base: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		Analyzer:   textproc.NewAnalyzer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.kills.Store(2)
	resp, err = retrying.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatalf("retry budget did not ride out resets: %+v", resp.Shards)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("no hits after recovery")
	}
}

// TestClusterPartialIngestBurnsGidRange: when one shard rejects its
// slice of an Add after another shard already accepted, the failed
// batch's gid range must be burned — a fresh Add assigns strictly
// higher gids. Reusing the range would bind the same gid to different
// documents: the shard that accepted would silently skip the replayed
// gids (idempotency check) while other shards indexed the new
// documents under them.
func TestClusterPartialIngestBurnsGidRange(t *testing.T) {
	var failIngest atomic.Bool
	tc := newTestCluster(t, vsm.Cosine, 2, Config{})
	inner := tc.servers[1]
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failIngest.Load() && r.URL.Path == "/cluster/index" {
			http.Error(w, "injected ingest failure", http.StatusInternalServerError)
			return
		}
		proxyTo(t, inner.URL, w, r)
	}))
	defer proxy.Close()
	r, err := New(Config{
		Shards:   []string{tc.servers[0].URL, proxy.URL},
		Analyzer: textproc.NewAnalyzer(),
	})
	if err != nil {
		t.Fatal(err)
	}

	docs := synthDocs(t, 40, 21)
	base, err := r.Add(docs[:4]...)
	if err != nil {
		t.Fatal(err)
	}

	// The failed batch must straddle both shards: shard 0 has to accept
	// part of it (so its gids get mapped) and the proxied shard 1 has to
	// own part of it (so the injected failure fires at all).
	failed := docs[4:20]
	burnedTop := base[len(base)-1] + corpus.DocID(len(failed))
	owned := [2]int{}
	for gid := base[len(base)-1] + 1; gid <= burnedTop; gid++ {
		owned[r.ring.place(gid)]++
	}
	if owned[0] == 0 || owned[1] == 0 {
		t.Fatalf("degenerate placement: failed range splits %d/%d across the shards", owned[0], owned[1])
	}

	failIngest.Store(true)
	if _, err := r.Add(failed...); err == nil {
		t.Fatal("partial ingest did not error")
	}
	failIngest.Store(false)

	fresh, err := r.Add(docs[20:]...)
	if err != nil {
		t.Fatal(err)
	}
	if fresh[0] <= burnedTop {
		t.Fatalf("fresh Add reused gid %d from the failed range (burned through %d)", fresh[0], burnedTop)
	}
	// Every fresh gid must resolve to exactly the document it was
	// assigned to — no silent idempotency drops, no cross-shard aliasing.
	for i, gid := range fresh {
		got, ok := r.Doc(gid)
		if !ok {
			t.Fatalf("gid %d reported ingested but not fetchable", gid)
		}
		if got.Text != docs[20+i].Text {
			t.Fatalf("gid %d names the wrong document", gid)
		}
	}
	// A router restarted against these shards resumes above everything
	// any shard has mapped, burned holes included.
	r2, err := New(Config{
		Shards:   []string{tc.servers[0].URL, proxy.URL},
		Analyzer: textproc.NewAnalyzer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	again, err := r2.Add(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	if again[0] <= fresh[len(fresh)-1] {
		t.Fatalf("restarted router assigned gid %d at or below high-water %d", again[0], fresh[len(fresh)-1])
	}
}

// TestClusterMetricsExposition: EnableMetrics registers the per-shard
// health families and they appear in the text exposition.
func TestClusterMetricsExposition(t *testing.T) {
	tc := newTestCluster(t, vsm.Cosine, 2, Config{})
	docs := synthDocs(t, 10, 3)
	if _, err := tc.router.Add(docs...); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tc.router.EnableMetrics(reg, nil)
	mustSearch(t, tc.router, vsm.Request{Query: "topic", K: 3})
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"toppriv_cluster_shard_requests_total",
		"toppriv_cluster_shard_up",
		"toppriv_cluster_shard_seconds",
		"toppriv_cluster_degraded_queries_total",
		"toppriv_cluster_shards 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// One one-member cycle over two shards: the request frame twice, and
	// two replies no shorter than an empty one.
	cycle := []vsm.Request{{Terms: textproc.NewAnalyzer().Analyze("topic"), K: 3}}
	var merged shardStats
	df := 0
	for _, c := range tc.router.shards {
		st := c.snapStats()
		merged.Docs += st.Docs
		merged.TotalLen += st.TotalLen
		df += st.DF[cycle[0].Terms[0]]
	}
	frame := appendBatchRequest(nil, merged.Docs, merged.TotalLen, cycle, func(string) int { return df })
	sent := fmt.Sprintf("toppriv_cluster_batch_bytes_total{dir=\"sent\"} %d\n", 2*len(frame))
	if !strings.Contains(text, sent) {
		t.Fatalf("exposition missing %q:\n%s", sent, text)
	}
	if empty := len(appendBatchReply(nil, make([]vsm.Response, 1))); tc.router.mBatchReceived.Value() < uint64(2*empty) {
		t.Fatalf("%d reply bytes counted, two empty replies are %d", tc.router.mBatchReceived.Value(), 2*empty)
	}
}
