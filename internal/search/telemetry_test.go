package search

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/telemetry"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// telemetryFixture builds a fresh server per test so metric counts
// start from zero — the shared fixture's registry accumulates across
// tests and would make exact-count assertions order-dependent.
type telemetryFixture struct {
	server *Server
	ts     *httptest.Server
	gt     *corpus.GroundTruth
	an     *textproc.Analyzer
}

func newTelemetryFixture(t *testing.T) *telemetryFixture {
	t.Helper()
	spec := corpus.GenSpec{Seed: 97, NumDocs: 120, NumTopics: 4, DocLenMin: 40, DocLenMax: 70}
	an := textproc.NewAnalyzer()
	c, gt, err := corpus.Synthesize(spec, an)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := vsm.NewEngine(idx, an, vsm.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(engine, c.Docs)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &telemetryFixture{server: srv, ts: ts, gt: gt, an: an}
}

func (f *telemetryFixture) queryText(topic, n int) string {
	var out []string
	for _, w := range f.gt.TopicWords[topic] {
		if _, ok := f.an.AnalyzeTerm(w); ok {
			out = append(out, w)
			if len(out) == n {
				break
			}
		}
	}
	return strings.Join(out, " ")
}

func (f *telemetryFixture) search(t *testing.T, req SearchRequest) SearchResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(f.ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search returned %s", resp.Status)
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// scrape fetches /metrics and parses it back through the package's
// own text-format parser.
func (f *telemetryFixture) scrape(t *testing.T) map[string]telemetry.ParsedFamily {
	t.Helper()
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text format v0.0.4", ct)
	}
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics exposition: %v", err)
	}
	byName := make(map[string]telemetry.ParsedFamily, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

func findSample(fam telemetry.ParsedFamily, labels map[string]string) (telemetry.ParsedSample, bool) {
	for _, s := range fam.Samples {
		ok := true
		for k, v := range labels {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return telemetry.ParsedSample{}, false
}

func TestMetricsEndpoint(t *testing.T) {
	f := newTelemetryFixture(t)
	const n = 5
	for i := 0; i < n; i++ {
		f.search(t, SearchRequest{Query: f.queryText(i%4, 4), K: 5})
	}
	fams := f.scrape(t)

	reqs, ok := fams["toppriv_http_requests_total"]
	if !ok {
		t.Fatal("toppriv_http_requests_total missing from exposition")
	}
	if s, ok := findSample(reqs, map[string]string{"endpoint": "/search"}); !ok || s.Value != n {
		t.Fatalf("http_requests_total{endpoint=/search} = %v (found=%v), want %d", s.Value, ok, n)
	}

	queries, ok := fams["toppriv_queries_total"]
	if !ok {
		t.Fatal("toppriv_queries_total missing from exposition")
	}
	var total float64
	for _, s := range queries.Samples {
		if s.Labels["scorer"] != "cosine" {
			t.Fatalf("queries_total scorer = %q, want cosine", s.Labels["scorer"])
		}
		total += s.Value
	}
	if total != n {
		t.Fatalf("sum of toppriv_queries_total = %v, want %d", total, n)
	}

	lat, ok := fams["toppriv_query_seconds"]
	if !ok {
		t.Fatal("toppriv_query_seconds missing from exposition")
	}
	if lat.Type != "histogram" {
		t.Fatalf("toppriv_query_seconds TYPE = %q, want histogram", lat.Type)
	}
	var count float64
	for _, s := range lat.Samples {
		if strings.HasSuffix(s.Name, "_count") {
			count += s.Value
		}
	}
	if count != n {
		t.Fatalf("toppriv_query_seconds observation count = %v, want %d", count, n)
	}

	phase, ok := fams["toppriv_query_phase_seconds"]
	if !ok {
		t.Fatal("toppriv_query_phase_seconds missing from exposition")
	}
	for _, want := range []string{"resolve", "fetch", "traverse", "merge"} {
		found := false
		for _, s := range phase.Samples {
			if s.Labels["phase"] == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("toppriv_query_phase_seconds has no phase=%q samples", want)
		}
	}

	if _, ok := fams["toppriv_querylog_retained"]; !ok {
		t.Fatal("toppriv_querylog_retained missing from exposition")
	}
	if _, ok := fams["toppriv_querylog_evicted_total"]; !ok {
		t.Fatal("toppriv_querylog_evicted_total missing from exposition")
	}
}

func TestInlineTrace(t *testing.T) {
	f := newTelemetryFixture(t)
	q := f.queryText(1, 5)
	sr := f.search(t, SearchRequest{Query: q, K: 5, Trace: true})
	if sr.Trace == nil {
		t.Fatal("trace requested but response carries none")
	}
	tr := sr.Trace
	if tr.TotalNS <= 0 {
		t.Fatalf("trace TotalNS = %d, want > 0", tr.TotalNS)
	}
	if tr.Terms == 0 {
		t.Fatal("trace Terms = 0, want the resolved term count")
	}
	if tr.K != 5 {
		t.Fatalf("trace K = %d, want 5", tr.K)
	}
	if tr.Scorer != "cosine" {
		t.Fatalf("trace Scorer = %q, want cosine", tr.Scorer)
	}
	sum := tr.ResolveNS + tr.FetchNS + tr.TraverseNS + tr.MergeNS
	if sum > tr.TotalNS {
		t.Fatalf("phase sum %d exceeds total %d", sum, tr.TotalNS)
	}
	// The trace must never carry query content: marshal it and check no
	// query term leaks into the JSON. This guards the wire shape, not
	// just the struct definition.
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range strings.Fields(q) {
		if bytes.Contains(b, []byte(w)) {
			t.Fatalf("trace JSON %s leaks query term %q", b, w)
		}
	}
	// An untraced request stays untraced.
	if sr2 := f.search(t, SearchRequest{Query: q, K: 5}); sr2.Trace != nil {
		t.Fatal("trace present without being requested")
	}
}

func TestBatchInlineTrace(t *testing.T) {
	f := newTelemetryFixture(t)
	// Members drawn from one topic overlap heavily, so the cycle-at-a-
	// time shared traversal engages and the trace carries the batch
	// size.
	batch := BatchSearchRequest{Queries: []SearchRequest{
		{Query: f.queryText(0, 4), K: 5, Trace: true},
		{Query: f.queryText(0, 5), K: 5},
		{Query: f.queryText(0, 6), K: 5, Trace: true},
	}}
	body, _ := json.Marshal(batch)
	resp, err := http.Post(f.ts.URL+"/search/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch returned %s", resp.Status)
	}
	var br BatchSearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Responses[0].Trace == nil || br.Responses[2].Trace == nil {
		t.Fatal("tracing members got no trace")
	}
	if br.Responses[1].Trace != nil {
		t.Fatal("non-tracing member got a trace")
	}
	if b := br.Responses[0].Trace.Batch; b == 0 {
		t.Fatal("batch trace carries no batch size")
	}
}

func TestDebugTraces(t *testing.T) {
	f := newTelemetryFixture(t)
	f.server.SetAdminToken("hunter2")
	for i := 0; i < 3; i++ {
		f.search(t, SearchRequest{Query: f.queryText(i%4, 4), K: 5})
	}

	get := func(path, token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, f.ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("/debug/traces", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /debug/traces returned %s, want 401", resp.Status)
	}

	resp = get("/debug/traces", "hunter2")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces returned %s", resp.Status)
	}
	var tr TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) != 3 {
		t.Fatalf("retained %d traces, want 3", len(tr.Traces))
	}
	for i := 1; i < len(tr.Traces); i++ {
		if tr.Traces[i].Seq <= tr.Traces[i-1].Seq {
			t.Fatalf("traces not in seq order: %d then %d", tr.Traces[i-1].Seq, tr.Traces[i].Seq)
		}
	}

	resp = get("/debug/traces?n=1", "hunter2")
	defer resp.Body.Close()
	var one TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if len(one.Traces) != 1 || one.Traces[0].Seq != tr.Traces[2].Seq {
		t.Fatalf("?n=1 returned %d traces (seq %v), want the newest", len(one.Traces), one.Traces)
	}

	resp = get("/debug/traces?n=bogus", "hunter2")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n returned %s, want 400", resp.Status)
	}
}

func TestQueryLogStatsAndEviction(t *testing.T) {
	f := newTelemetryFixture(t)
	f.server.SetQueryLogCap(3)
	for i := 0; i < 5; i++ {
		f.search(t, SearchRequest{Query: f.queryText(i%4, 3), K: 3})
	}

	resp, err := http.Get(f.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	ql := st.QueryLog
	if ql.Retained != 3 || ql.Evicted != 2 || ql.HeadSeq != 2 || ql.TailSeq != 5 {
		t.Fatalf("querylog stats = %+v, want retained=3 evicted=2 head=2 tail=5", ql)
	}
	if st.NumDocs == 0 {
		t.Fatal("index stats lost from /stats reply")
	}

	fams := f.scrape(t)
	ev, ok := fams["toppriv_querylog_evicted_total"]
	if !ok || len(ev.Samples) == 0 || ev.Samples[0].Value != 2 {
		t.Fatalf("toppriv_querylog_evicted_total = %+v, want 2", ev)
	}

	// Shrinking the cap evicts oldest-first and counts those too.
	f.server.SetQueryLogCap(1)
	if got := f.server.queryLogStats(); got.Retained != 1 || got.Evicted != 4 || got.HeadSeq != 4 {
		t.Fatalf("after shrink: %+v, want retained=1 evicted=4 head=4", got)
	}
}

func TestHTTPErrorCounter(t *testing.T) {
	f := newTelemetryFixture(t)
	resp, err := http.Post(f.ts.URL+"/search", "application/json", strings.NewReader(`{"query":""}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query returned %s, want 400", resp.Status)
	}
	fams := f.scrape(t)
	errs, ok := fams["toppriv_http_errors_total"]
	if !ok {
		t.Fatal("toppriv_http_errors_total missing from exposition")
	}
	if s, ok := findSample(errs, map[string]string{"endpoint": "/search"}); !ok || s.Value != 1 {
		t.Fatalf("http_errors_total{endpoint=/search} = %v (found=%v), want 1", s.Value, ok)
	}
}

func TestClientTelemetryHelpers(t *testing.T) {
	f := getFixture(t)
	client, err := NewClient(f.ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.SearchPlain(f.topicQueryText(0, 4)); err != nil {
		t.Fatal(err)
	}

	text, err := client.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "# TYPE toppriv_query_seconds histogram") {
		t.Fatalf("MetricsText missing query histogram; got %d bytes", len(text))
	}

	traces, err := client.Traces(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("Traces returned none after a query")
	}

	st, err := client.StatsFull()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumDocs == 0 || st.QueryLog.TailSeq == 0 {
		t.Fatalf("StatsFull = %+v, want index stats and querylog seq", st)
	}
}

// TestHTTPResponseBytesCounter: toppriv_http_response_bytes_total
// counts, per endpoint, exactly the body bytes a client read — error
// bodies included — and the search replies arrive with Content-Length,
// not chunked.
func TestHTTPResponseBytesCounter(t *testing.T) {
	f := newTelemetryFixture(t)
	read := map[string]float64{}
	post := func(endpoint, body string, wantStatus int) {
		t.Helper()
		resp, err := http.Post(f.ts.URL+endpoint, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s returned %s, want %d", endpoint, resp.Status, wantStatus)
		}
		if wantStatus == http.StatusOK && (resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0) {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte reply", endpoint, resp.ContentLength, resp.TransferEncoding, len(got))
		}
		read[endpoint] += float64(len(got))
	}
	q := func(topic int) string { return `{"query":"` + f.queryText(topic, 4) + `","k":5}` }
	post("/search", q(0), http.StatusOK)
	post("/search", q(1), http.StatusOK)
	post("/search", `{"query":""}`, http.StatusBadRequest)
	post("/search/batch", `{"queries":[`+q(0)+`,`+q(2)+`,`+q(3)+`]}`, http.StatusOK)

	fam, ok := f.scrape(t)["toppriv_http_response_bytes_total"]
	if !ok {
		t.Fatal("toppriv_http_response_bytes_total missing from exposition")
	}
	for endpoint, want := range read {
		if s, ok := findSample(fam, map[string]string{"endpoint": endpoint}); !ok || s.Value != want || want == 0 {
			t.Errorf("http_response_bytes_total{endpoint=%s} = %v (found=%v), want the %v bytes read", endpoint, s.Value, ok, want)
		}
	}
}

// TestMountedHandlerReachesConnection: a route mounted with Handle gets
// the connection through http.ResponseController — a flush reaches the
// client before the handler returns, and a hijack hands over the socket
// — while the instrumentation still counts the request.
func TestMountedHandlerReachesConnection(t *testing.T) {
	f := newTelemetryFixture(t)
	flushed := make(chan struct{})
	f.server.Handle("/flush", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "first\n")
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("flush through a mounted handler: %v", err)
			return
		}
		<-flushed
		io.WriteString(w, "second\n")
	}))
	f.server.Handle("/hijack", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Errorf("hijack through a mounted handler: %v", err)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer conn.Close()
		brw.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 8\r\nConnection: close\r\n\r\nhijacked")
		brw.Flush()
	}))

	resp, err := http.Get(f.ts.URL + "/flush")
	if err != nil {
		t.Fatal(err)
	}
	line := make([]byte, len("first\n"))
	if _, err := io.ReadFull(resp.Body, line); err != nil || string(line) != "first\n" {
		t.Fatalf("read %q before the handler returned (%v), want the flushed first line", line, err)
	}
	close(flushed)
	rest, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(rest) != "second\n" {
		t.Fatalf("rest of the flushed reply %q", rest)
	}

	resp, err = http.Get(f.ts.URL + "/hijack")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "hijacked" {
		t.Fatalf("hijacked route answered %d %q", resp.StatusCode, body)
	}

	fam, ok := f.scrape(t)["toppriv_http_requests_total"]
	if !ok {
		t.Fatal("toppriv_http_requests_total missing from exposition")
	}
	for _, endpoint := range []string{"/flush", "/hijack"} {
		if s, ok := findSample(fam, map[string]string{"endpoint": endpoint}); !ok || s.Value != 1 {
			t.Errorf("http_requests_total{endpoint=%s} = %v (found=%v), want 1", endpoint, s.Value, ok)
		}
	}
}
