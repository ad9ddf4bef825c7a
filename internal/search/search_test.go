package search

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"toppriv/internal/belief"
	"toppriv/internal/core"
	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/lda"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

type fixture struct {
	server *Server
	ts     *httptest.Server
	obf    *core.Obfuscator
	beng   *belief.Engine
	gt     *corpus.GroundTruth
	an     *textproc.Analyzer
	c      *corpus.Corpus
}

var shared *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if shared != nil {
		shared.server.ResetLog()
		return shared
	}
	spec := corpus.GenSpec{Seed: 71, NumDocs: 400, NumTopics: 8, DocLenMin: 60, DocLenMax: 100}
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
	m, _, err := lda.Train(c, lda.TrainSpec{NumTopics: 8, Iterations: 100, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	inf, err := lda.NewInferencer(m, lda.InferSpec{})
	if err != nil {
		t.Fatal(err)
	}
	beng, err := belief.NewEngine(inf)
	if err != nil {
		t.Fatal(err)
	}
	obf, err := core.NewObfuscator(beng, core.Params{Eps1: 0.04, Eps2: 0.015})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	shared = &fixture{server: srv, ts: ts, obf: obf, beng: beng, gt: gt, an: an, c: c}
	return shared
}

func (f *fixture) topicQueryText(topic, n int) string {
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

func TestServerSearchEndpoint(t *testing.T) {
	f := getFixture(t)
	body, _ := json.Marshal(SearchRequest{Query: f.topicQueryText(0, 5), K: 7})
	resp, err := http.Post(f.ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Hits) == 0 || len(sr.Hits) > 7 {
		t.Fatalf("got %d hits", len(sr.Hits))
	}
	if sr.Hits[0].Title == "" {
		t.Error("hits should carry titles when docs are provided")
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	f := getFixture(t)
	// Wrong method.
	resp, err := http.Get(f.ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search status %d", resp.StatusCode)
	}
	// Bad JSON.
	resp, err = http.Post(f.ts.URL+"/search", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status %d", resp.StatusCode)
	}
	// Empty query.
	body, _ := json.Marshal(SearchRequest{Query: "   "})
	resp, err = http.Post(f.ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty query status %d", resp.StatusCode)
	}
}

func TestServerDocEndpoint(t *testing.T) {
	f := getFixture(t)
	resp, err := http.Get(f.ts.URL + "/doc/0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc corpus.Document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Text == "" {
		t.Error("document body empty")
	}
	for _, path := range []string{"/doc/999999", "/doc/-1", "/doc/abc"} {
		resp, err := http.Get(f.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServerStatsEndpoint(t *testing.T) {
	f := getFixture(t)
	resp, err := http.Get(f.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats index.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.NumDocs != 400 {
		t.Errorf("stats NumDocs = %d", stats.NumDocs)
	}
}

func TestServerQueryLog(t *testing.T) {
	f := getFixture(t)
	f.server.ResetLog()
	body, _ := json.Marshal(SearchRequest{Query: "stock market"})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(f.ts.URL+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		body, _ = json.Marshal(SearchRequest{Query: "stock market"})
	}
	log := f.server.QueryLog()
	if len(log) != 3 {
		t.Fatalf("log has %d entries, want 3", len(log))
	}
	for i, entry := range log {
		if entry.Seq != i || entry.Query != "stock market" {
			t.Errorf("log[%d] = %+v", i, entry)
		}
	}
}

func TestClientPrivateSearchMatchesPlain(t *testing.T) {
	// The headline usability property of TopPriv: the user gets the
	// exact results of her genuine query, ghosts notwithstanding.
	f := getFixture(t)
	cl, err := NewClient(f.ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	q := f.topicQueryText(1, 8)
	private, err := cl.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := cl.SearchPlain(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(private) != len(plain) {
		t.Fatalf("private %d hits, plain %d hits", len(private), len(plain))
	}
	for i := range private {
		if private[i].Doc != plain[i].Doc {
			t.Fatalf("result %d differs: %v vs %v", i, private[i], plain[i])
		}
	}
}

func TestClientSubmitsWholeCycle(t *testing.T) {
	f := getFixture(t)
	f.server.ResetLog()
	cl, err := NewClient(f.ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Search(f.topicQueryText(2, 10)); err != nil {
		t.Fatal(err)
	}
	cycle := cl.LastCycle()
	if cycle == nil {
		t.Fatal("no cycle recorded")
	}
	log := f.server.QueryLog()
	if len(log) != cycle.Len() {
		t.Fatalf("server saw %d queries, cycle has %d", len(log), cycle.Len())
	}
	// The genuine query must be present in the log (sorted word order).
	sortedUser := append([]string{}, cycle.UserQuery()...)
	want := strings.Join(sortTerms(sortedUser), " ")
	found := false
	for _, entry := range log {
		if entry.Query == want {
			found = true
		}
	}
	if !found {
		t.Error("genuine query not found in server log")
	}
}

func TestClientRejectsEmptyQuery(t *testing.T) {
	f := getFixture(t)
	cl, _ := NewClient(f.ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(3)))
	if _, err := cl.Search("the of and"); err == nil {
		t.Error("stopword-only query must error")
	}
}

func TestClientFetchDocument(t *testing.T) {
	f := getFixture(t)
	cl, _ := NewClient(f.ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(4)))
	raw, err := cl.FetchDocument(0)
	if err != nil {
		t.Fatal(err)
	}
	var doc corpus.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != 0 {
		t.Errorf("fetched doc ID %d", doc.ID)
	}
	if _, err := cl.FetchDocument(999999); err == nil {
		t.Error("missing doc must error")
	}
}

func TestClientConstructorValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := NewClient(f.ts.URL, nil, nil, f.an, rand.New(rand.NewSource(5))); err == nil {
		t.Error("nil obfuscator must error")
	}
	if _, err := NewClient(f.ts.URL, nil, (*core.Obfuscator)(nil), f.an, rand.New(rand.NewSource(5))); err == nil {
		t.Error("typed-nil *core.Obfuscator must error")
	}
	if _, err := NewClient(f.ts.URL, nil, (*core.Session)(nil), f.an, rand.New(rand.NewSource(5))); err == nil {
		t.Error("typed-nil *core.Session must error")
	}
	if _, err := NewClient(f.ts.URL, nil, f.obf, f.an, nil); err == nil {
		t.Error("nil rng must error")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, nil); err == nil {
		t.Error("nil engine must error")
	}
}

func sortTerms(terms []string) []string {
	out := append([]string{}, terms...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestClientJitterSleepsPerQuery(t *testing.T) {
	f := getFixture(t)
	cl, err := NewClient(f.ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	var naps int
	cl.Jitter = time.Second
	cl.sleep = func(d time.Duration) {
		if d < 0 || d >= time.Second {
			t.Errorf("jitter delay %v outside [0, 1s)", d)
		}
		naps++
	}
	if _, err := cl.Search(f.topicQueryText(0, 10)); err != nil {
		t.Fatal(err)
	}
	if naps != cl.LastCycle().Len() {
		t.Errorf("slept %d times for a %d-query cycle", naps, cl.LastCycle().Len())
	}
}

func TestClientServerErrors(t *testing.T) {
	f := getFixture(t)
	// A server that always fails.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "index corrupted", http.StatusInternalServerError)
	}))
	defer bad.Close()
	cl, err := NewClient(bad.URL, nil, f.obf, f.an, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Search(f.topicQueryText(0, 8))
	if err == nil {
		t.Fatal("expected error from failing server")
	}
	if !strings.Contains(err.Error(), "500") {
		t.Errorf("error should carry the status: %v", err)
	}
	// A server that is gone entirely.
	gone := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	gone.Close()
	cl2, _ := NewClient(gone.URL, nil, f.obf, f.an, rand.New(rand.NewSource(23)))
	if _, err := cl2.Search(f.topicQueryText(0, 8)); err == nil {
		t.Error("expected transport error")
	}
	// Garbage JSON response.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{not json"))
	}))
	defer garbage.Close()
	cl3, _ := NewClient(garbage.URL, nil, f.obf, f.an, rand.New(rand.NewSource(24)))
	if _, err := cl3.Search(f.topicQueryText(0, 8)); err == nil {
		t.Error("expected decode error")
	}
}
