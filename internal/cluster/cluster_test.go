package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/search"
	"toppriv/internal/segment"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// mustSearch answers one request from the router or a reference engine
// and fails the test on an error.
func mustSearch(t testing.TB, s vsm.RequestSearcher, req vsm.Request) []vsm.Result {
	t.Helper()
	resp, err := s.SearchRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Hits
}

// synthDocs mirrors the segment package's test corpus: topic-skewed
// synthetic documents with enough vocabulary overlap to make ranking
// non-trivial.
func synthDocs(t testing.TB, n int, seed int64) []corpus.Document {
	t.Helper()
	c, _, err := corpus.Synthesize(corpus.GenSpec{
		Seed: seed, NumDocs: n, NumTopics: 6, DocLenMin: 30, DocLenMax: 60,
	}, textproc.NewAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	return c.Docs
}

// queryFrom builds a query from consecutive words of a document.
func queryFrom(doc corpus.Document, start, n int) string {
	fields := splitWords(doc.Text)
	if len(fields) == 0 {
		return ""
	}
	start %= len(fields)
	end := start + n
	if end > len(fields) {
		end = len(fields)
	}
	out := ""
	for _, w := range fields[start:end] {
		out += w + " "
	}
	return out
}

func splitWords(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ' ' || r == '\n' || r == '\t' || r == '.' || r == ',' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

// testCluster is an in-process cluster: n shard stores, each mounted
// on its own search.Server behind an httptest listener, fronted by a
// Router — real HTTP, the real wire, separate vocabularies.
type testCluster struct {
	router  *Router
	shards  []*Shard
	stores  []*segment.Store
	servers []*httptest.Server
}

func newTestCluster(t testing.TB, scoring vsm.Scoring, n int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		st, err := segment.Open(segment.Config{
			Scoring:  scoring,
			Analyzer: textproc.NewAnalyzer(),
			// Tiny threshold so even small corpora exercise sealed
			// segments and merges inside each shard.
			SealThreshold:     6,
			DisableCompaction: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sh := NewShard(st)
		srv, err := search.NewServer(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		sh.Mount(srv)
		ts := httptest.NewServer(srv)
		tc.stores = append(tc.stores, st)
		tc.shards = append(tc.shards, sh)
		tc.servers = append(tc.servers, ts)
		urls[i] = ts.URL
	}
	t.Cleanup(tc.close)
	cfg.Shards = urls
	if cfg.Analyzer == nil {
		cfg.Analyzer = textproc.NewAnalyzer()
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 10 * time.Second
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = r
	return tc
}

func (tc *testCluster) close() {
	for _, ts := range tc.servers {
		ts.Close()
	}
	for _, st := range tc.stores {
		st.Close()
	}
}

// TestClusterEquivalenceProperty is the distributed tier's correctness
// anchor, the cross-process form of the segment store's merge
// equivalence property: for random interleavings of routed adds,
// routed deletes, and shard-local flush/compact, every query against a
// 3-shard cluster must return exactly the documents — and the same
// scores to within 1e-9 — as a from-scratch single index.Build over
// the survivors. Checked for both scorers, all three execution modes,
// full retrieval and top-k.
func TestClusterEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial HTTP property test")
	}
	for _, scoring := range []vsm.Scoring{vsm.Cosine, vsm.BM25} {
		scoring := scoring
		t.Run(scoring.String(), func(t *testing.T) {
			for trial := int64(0); trial < 2; trial++ {
				runClusterTrial(t, scoring, trial)
			}
		})
	}
}

func runClusterTrial(t *testing.T, scoring vsm.Scoring, trial int64) {
	t.Helper()
	tc := newTestCluster(t, scoring, 3, Config{})
	r := tc.router
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, 60, 300+trial)
	rng := rand.New(rand.NewSource(9000 + trial))

	type entry struct {
		gid corpus.DocID
		doc corpus.Document
	}
	var alive []entry
	i := 0
	for i < len(docs) {
		// Routed batch add of 1–3 documents.
		n := 1 + rng.Intn(3)
		if i+n > len(docs) {
			n = len(docs) - i
		}
		gids, err := r.Add(docs[i : i+n]...)
		if err != nil {
			t.Fatalf("trial %d: add: %v", trial, err)
		}
		for j, gid := range gids {
			alive = append(alive, entry{gid: gid, doc: docs[i+j]})
		}
		i += n
		for rng.Float64() < 0.25 && len(alive) > 1 {
			j := rng.Intn(len(alive))
			if err := r.Delete(alive[j].gid); err != nil {
				t.Fatalf("trial %d: delete %d: %v", trial, alive[j].gid, err)
			}
			alive = append(alive[:j], alive[j+1:]...)
		}
		if rng.Intn(10) == 0 {
			// Shard-local segment churn: results must be layout-invariant.
			st := tc.stores[rng.Intn(len(tc.stores))]
			if rng.Intn(2) == 0 {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			} else if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(alive) < 10 {
		t.Fatalf("trial %d: only %d survivors", trial, len(alive))
	}

	// Reference: one index over the survivors in global-ID order.
	refDocs := make([]corpus.Document, len(alive))
	gidToRef := make(map[corpus.DocID]corpus.DocID, len(alive))
	for j, e := range alive {
		refDocs[j] = corpus.Document{Title: e.doc.Title, Text: e.doc.Text}
		gidToRef[e.gid] = corpus.DocID(j)
	}
	refCorpus, err := corpus.Build(refDocs, an, textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	refIdx, err := index.Build(refCorpus)
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := vsm.NewEngine(refIdx, an, scoring)
	if err != nil {
		t.Fatal(err)
	}

	queries := make([]string, 0, 12)
	for q := 0; q < 10; q++ {
		queries = append(queries, queryFrom(docs[rng.Intn(len(docs))], rng.Intn(25), 3+rng.Intn(4)))
	}
	queries = append(queries, "zzzzunseenterm", "")

	for _, q := range queries {
		terms := an.Analyze(q)
		for _, k := range []int{5, len(alive) + 5} {
			resp, err := r.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: k})
			if err != nil {
				t.Fatalf("trial %d query %q: %v", trial, q, err)
			}
			if resp.Degraded {
				t.Fatalf("trial %d query %q: degraded with all shards healthy: %+v",
					trial, q, resp.Shards)
			}
			label := fmt.Sprintf("trial %d query %q k=%d", trial, q, k)
			compareWithRebuild(t, label, resp.Hits, mustSearch(t, refEng, vsm.Request{Terms: terms, K: k}), k > len(alive), gidToRef)
		}
	}
	// The same queries as obfuscation-style cycles: auto-mode members
	// submitted together, which the shards serve with the shared
	// cycle-at-a-time traversal.
	cycle := make([][]string, 0, len(queries))
	for _, q := range queries {
		cycle = append(cycle, an.Analyze(q))
	}
	checkCycleAgainstRebuild(t, fmt.Sprintf("trial %d", trial), r, refEng, gidToRef, len(alive), cycle)

	// The aggregate stats surface must agree with the reference on the
	// collection-level numbers.
	stats := r.ComputeStats()
	if stats.NumDocs != len(alive) {
		t.Fatalf("trial %d: cluster reports %d docs, %d survive", trial, stats.NumDocs, len(alive))
	}
}

// compareWithRebuild holds one routed result list to the single-index
// reference: under full retrieval the document sets and per-document
// scores must agree to 1e-9; under top-k the scores agree rank by rank
// (exact floating-point ties may order differently across placements).
func compareWithRebuild(t *testing.T, label string, got, want []vsm.Result, full bool, gidToRef map[corpus.DocID]corpus.DocID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: cluster %d docs, reference %d", label, len(got), len(want))
	}
	if !full {
		for j := range got {
			if math.Abs(got[j].Score-want[j].Score) > 1e-9 {
				t.Fatalf("%s rank %d: cluster %.12f, reference %.12f", label, j, got[j].Score, want[j].Score)
			}
		}
		return
	}
	gotScores := make(map[corpus.DocID]float64, len(got))
	for _, res := range got {
		ref, ok := gidToRef[res.Doc]
		if !ok {
			t.Fatalf("%s: cluster returned dead/unknown doc %d", label, res.Doc)
		}
		gotScores[ref] = res.Score
	}
	for _, res := range want {
		gs, ok := gotScores[res.Doc]
		if !ok {
			t.Fatalf("%s: reference doc %d missing from cluster results", label, res.Doc)
		}
		if math.Abs(gs-res.Score) > 1e-9 {
			t.Fatalf("%s doc %d: cluster %.12f, reference %.12f", label, res.Doc, gs, res.Score)
		}
	}
}

// checkCycleAgainstRebuild submits cycle as one batch of auto-mode
// members — the shape a TopPriv client sends and the one the shards'
// engines evaluate in a single shared traversal — at top-k and at full
// retrieval, and holds every member to the reference.
func checkCycleAgainstRebuild(t *testing.T, label string, r *Router, refEng *vsm.Engine, gidToRef map[corpus.DocID]corpus.DocID, nAlive int, cycle [][]string) {
	t.Helper()
	for _, k := range []int{5, nAlive + 5} {
		reqs := make([]vsm.Request, len(cycle))
		for i, terms := range cycle {
			reqs[i] = vsm.Request{Terms: terms, K: k}
		}
		resps, err := r.SearchBatch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("%s: cycle: %v", label, err)
		}
		for i, resp := range resps {
			if resp.Degraded {
				t.Fatalf("%s: cycle degraded with all shards healthy: %+v", label, resp.Shards)
			}
			compareWithRebuild(t, fmt.Sprintf("%s cycle member %d k=%d", label, i, k),
				resp.Hits, mustSearch(t, refEng, vsm.Request{Terms: cycle[i], K: k}), k > nAlive, gidToRef)
		}
	}
}

// TestClusterDocRoundTrip: routed fetch, title resolution (cache and
// cold-miss paths), and delete-then-404.
func TestClusterDocRoundTrip(t *testing.T) {
	tc := newTestCluster(t, vsm.Cosine, 3, Config{})
	r := tc.router
	docs := synthDocs(t, 12, 42)
	gids, err := r.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, gid := range gids {
		got, ok := r.Doc(gid)
		if !ok {
			t.Fatalf("doc %d not found after add", gid)
		}
		if got.ID != gid || got.Text != docs[i].Text {
			t.Fatalf("doc %d round-trip mismatch", gid)
		}
		title, ok := r.Title(gid)
		if !ok || title != docs[i].Title {
			t.Fatalf("title %d: got %q ok=%v, want %q", gid, title, ok, docs[i].Title)
		}
	}
	// A fresh router over the same shards starts with a cold title
	// cache; Title must fall back to the owning shard.
	r2, err := New(Config{Shards: routerShardNames(r), Analyzer: textproc.NewAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	if title, ok := r2.Title(gids[0]); !ok || title != docs[0].Title {
		t.Fatalf("cold title: got %q ok=%v, want %q", title, ok, docs[0].Title)
	}
	// And it must resume gid assignment above the existing high-water.
	more, err := r2.Add(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	if more[0] != gids[len(gids)-1]+1 {
		t.Fatalf("restarted router assigned gid %d, want %d", more[0], gids[len(gids)-1]+1)
	}

	if err := r.Delete(gids[3]); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Doc(gids[3]); ok {
		t.Fatalf("doc %d still fetchable after delete", gids[3])
	}
	if err := r.Delete(gids[3]); err == nil {
		t.Fatal("double delete did not error")
	}
	if err := r.Delete(99999); err == nil {
		t.Fatal("deleting unknown gid did not error")
	}
}

func routerShardNames(r *Router) []string {
	names := make([]string, len(r.shards))
	for i, c := range r.shards {
		names[i] = c.name
	}
	return names
}

// TestClusterRejectsMixedScoring: a router must refuse a cluster whose
// shards disagree on the scoring function — merged statistics cannot
// make a bm25 shard and a cosine shard comparable.
func TestClusterRejectsMixedScoring(t *testing.T) {
	tcA := newTestCluster(t, vsm.Cosine, 1, Config{})
	tcB := newTestCluster(t, vsm.BM25, 1, Config{})
	_, err := New(Config{
		Shards:   []string{tcA.servers[0].URL, tcB.servers[0].URL},
		Analyzer: textproc.NewAnalyzer(),
	})
	if err == nil {
		t.Fatal("mixed-scoring cluster accepted")
	}
}
