package vsm

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/linkrank"
	"toppriv/internal/textproc"
)

func buildEngine(t *testing.T, scoring Scoring, texts ...string) *Engine {
	t.Helper()
	docs := make([]corpus.Document, len(texts))
	for i, text := range texts {
		docs[i] = corpus.Document{Text: text}
	}
	an := textproc.NewAnalyzer(textproc.WithStemming(false))
	c, err := corpus.Build(docs, an, textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(idx, an, scoring)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mustSearch answers one request through SearchRequest and fails the
// test on an error.
func mustSearch(t testing.TB, e *Engine, req Request) []Result {
	t.Helper()
	resp, err := e.SearchRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Hits
}

func TestSearchRanksRelevantFirst(t *testing.T) {
	for _, scoring := range []Scoring{Cosine, BM25} {
		e := buildEngine(t, scoring,
			"apache helicopter army weapons apache helicopter",
			"stock market investors trading volume",
			"apache webserver software configuration",
			"cooking recipes kitchen dinner",
		)
		res := mustSearch(t, e, Request{Query: "apache helicopter army", K: 10})
		if len(res) == 0 {
			t.Fatalf("%v: no results", scoring)
		}
		if res[0].Doc != 0 {
			t.Errorf("%v: top doc = %d, want 0 (results %v)", scoring, res[0].Doc, res)
		}
		// Documents sharing no query term must not appear.
		for _, r := range res {
			if r.Doc == 1 || r.Doc == 3 {
				t.Errorf("%v: irrelevant doc %d retrieved", scoring, r.Doc)
			}
		}
	}
}

func TestSearchScoresDescending(t *testing.T) {
	e := buildEngine(t, Cosine,
		"alpha beta gamma", "alpha beta", "alpha", "delta epsilon")
	res := mustSearch(t, e, Request{Query: "alpha beta gamma", K: 10})
	for i := 1; i < len(res); i++ {
		if res[i-1].Score < res[i].Score {
			t.Fatalf("scores not descending: %v", res)
		}
	}
}

func TestSearchTopKBound(t *testing.T) {
	e := buildEngine(t, Cosine,
		"x common", "y common", "z common", "w common", "v common")
	res := mustSearch(t, e, Request{Query: "common", K: 3})
	if len(res) != 3 {
		t.Errorf("k=3 returned %d results", len(res))
	}
	if _, err := e.SearchRequest(context.Background(), Request{Query: "common", K: 0}); err == nil {
		t.Error("k=0 should be a validation error")
	}
}

func TestSearchEmptyAndUnknown(t *testing.T) {
	e := buildEngine(t, Cosine, "alpha beta")
	if res := mustSearch(t, e, Request{Query: "", K: 5}); res != nil {
		t.Error("empty query should return nil")
	}
	if res := mustSearch(t, e, Request{Query: "zzzz qqqq", K: 5}); res != nil {
		t.Error("out-of-vocabulary query should return nil")
	}
	if res := mustSearch(t, e, Request{Query: "the and of", K: 5}); res != nil {
		t.Error("stopword-only query should return nil")
	}
}

func TestCosineNormalization(t *testing.T) {
	// A short doc fully about the topic should beat a long doc that
	// mentions it once among much other content.
	e := buildEngine(t, Cosine,
		"apache helicopter",
		"apache one two three four five six seven eight nine ten eleven twelve",
	)
	res := mustSearch(t, e, Request{Query: "apache helicopter", K: 2})
	if len(res) != 2 || res[0].Doc != 0 {
		t.Errorf("normalization failed: %v", res)
	}
}

func TestBM25LengthNormalization(t *testing.T) {
	e := buildEngine(t, BM25,
		"apache helicopter",
		"apache one two three four five six seven eight nine ten eleven twelve",
	)
	res := mustSearch(t, e, Request{Query: "apache helicopter", K: 2})
	if len(res) != 2 || res[0].Doc != 0 {
		t.Errorf("BM25 length normalization failed: %v", res)
	}
}

func TestIDFDominates(t *testing.T) {
	// "rare" appears in one doc, "common" in all: a doc matching the rare
	// term should outrank one matching only the common term.
	e := buildEngine(t, Cosine,
		"rare common",
		"common filler1",
		"common filler2",
		"common filler3",
	)
	res := mustSearch(t, e, Request{Query: "rare common", K: 4})
	if res[0].Doc != 0 {
		t.Errorf("rare-term doc should rank first: %v", res)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	e := buildEngine(t, Cosine, "same text", "same text", "same text")
	for trial := 0; trial < 5; trial++ {
		res := mustSearch(t, e, Request{Query: "same text", K: 3})
		if len(res) != 3 {
			t.Fatalf("got %d results", len(res))
		}
		for i, r := range res {
			if r.Doc != corpus.DocID(i) {
				t.Fatalf("tie-break unstable: %v", res)
			}
		}
	}
}

func TestSearchTermsBypassesAnalysis(t *testing.T) {
	e := buildEngine(t, Cosine, "alpha beta", "gamma delta")
	res := mustSearch(t, e, Request{Terms: []string{"alpha"}, K: 5})
	if len(res) != 1 || res[0].Doc != 0 {
		t.Errorf("SearchTerms = %v", res)
	}
}

func TestNewEngineNilIndex(t *testing.T) {
	if _, err := NewEngine(nil, nil, Cosine); err == nil {
		t.Error("nil index should error")
	}
}

func TestScoringString(t *testing.T) {
	if Cosine.String() != "cosine" || BM25.String() != "bm25" {
		t.Error("Scoring.String broken")
	}
	if Scoring(99).String() == "" {
		t.Error("unknown scoring should still print")
	}
}

// Property: every cosine score lies in [0, 1+ε] (it is a normalized dot
// product of non-negative vectors).
func TestCosineScoreRange(t *testing.T) {
	spec := corpus.GenSpec{Seed: 9, NumDocs: 60, NumTopics: 5, DocLenMin: 20, DocLenMax: 40}
	c, gt, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := index.Build(c)
	e, _ := NewEngine(idx, textproc.NewAnalyzer(), Cosine)
	qs, _ := corpus.Workload(gt, corpus.WorkloadSpec{Seed: 3, NumQueries: 30})
	for _, q := range qs {
		for _, r := range mustSearch(t, e, Request{Query: q.Text(), K: 10}) {
			if r.Score < 0 || r.Score > 1+1e-9 || math.IsNaN(r.Score) {
				t.Fatalf("cosine score %v out of range for query %q", r.Score, q.Text())
			}
		}
	}
}

// Property: adding an irrelevant document never changes which documents
// match a query (only scores via idf may shift).
func TestSearchMonotoneUnderIrrelevantDocs(t *testing.T) {
	f := func(seed int64) bool {
		spec := corpus.GenSpec{Seed: seed, NumDocs: 30, NumTopics: 4, DocLenMin: 15, DocLenMax: 25}
		c, gt, err := corpus.Synthesize(spec, nil)
		if err != nil {
			return false
		}
		idx, _ := index.Build(c)
		an := textproc.NewAnalyzer()
		e, _ := NewEngine(idx, an, Cosine)
		q := gt.TopicWords[0][0] + " " + gt.TopicWords[0][1]
		res := mustSearch(t, e, Request{Query: q, K: 100})
		set := map[corpus.DocID]bool{}
		for _, r := range res {
			set[r.Doc] = true
		}
		// Every returned doc must actually contain a query term.
		terms := an.Analyze(q)
		for _, r := range res {
			found := false
			for _, term := range terms {
				for _, p := range idx.PostingsByTerm(term) {
					if p.Doc == r.Doc {
						found = true
					}
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestEngineWithPriorReordersTies(t *testing.T) {
	docs := []corpus.Document{
		{Text: "same text"},
		{Text: "same text"},
	}
	an := textproc.NewAnalyzer(textproc.WithStemming(false))
	c, err := corpus.Build(docs, an, textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := index.Build(c)
	// Without a prior, doc 0 wins the tie-break.
	plain, _ := NewEngine(idx, an, Cosine)
	res := mustSearch(t, plain, Request{Query: "same text", K: 2})
	if res[0].Doc != 0 {
		t.Fatalf("baseline tie-break broken: %v", res)
	}
	// A prior favoring doc 1 must flip the order.
	e, err := NewEngineWithPrior(idx, an, Cosine, []float64{0.1, 0.9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res = mustSearch(t, e, Request{Query: "same text", K: 2})
	if res[0].Doc != 1 {
		t.Fatalf("prior ignored: %v", res)
	}
	// Weight 0 is pure similarity: back to the tie-break.
	e0, err := NewEngineWithPrior(idx, an, Cosine, []float64{0.1, 0.9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res = mustSearch(t, e0, Request{Query: "same text", K: 2})
	if res[0].Doc != 0 {
		t.Fatalf("weight 0 should be pure similarity: %v", res)
	}
}

func TestEngineWithPriorValidation(t *testing.T) {
	e := buildEngine(t, Cosine, "alpha beta", "gamma delta")
	idx := e.Index()
	an := e.Analyzer()
	if _, err := NewEngineWithPrior(idx, an, Cosine, []float64{1}, 0.5); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := NewEngineWithPrior(idx, an, Cosine, []float64{1, 1}, 2); err == nil {
		t.Error("weight > 1 must error")
	}
	if _, err := NewEngineWithPrior(idx, an, Cosine, []float64{-1, 1}, 0.5); err == nil {
		t.Error("negative prior must error")
	}
	if _, err := NewEngineWithPrior(idx, an, Cosine, []float64{0, 0}, 0.5); err == nil {
		t.Error("all-zero prior must error")
	}
}

func TestEngineWithPageRankPrior(t *testing.T) {
	// End-to-end with the linkrank substrate: a link-popular relevant
	// doc outranks an equally-similar unpopular one.
	spec := corpus.GenSpec{Seed: 19, NumDocs: 40, NumTopics: 4, DocLenMin: 20, DocLenMax: 40}
	c, _, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := index.Build(c)
	topics := make([][]float64, c.NumDocs())
	for d := range topics {
		topics[d] = c.Docs[d].TrueTopics
	}
	g, err := linkrank.SyntheticGraph(topics, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := linkrank.PageRank(g, 0.85, 100, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	e, err := NewEngineWithPrior(idx, an, Cosine, pr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res := mustSearch(t, e, Request{Terms: an.Analyze(c.Docs[0].Text)[:5], K: 10})
	if len(res) == 0 {
		t.Fatal("no results with prior-modulated engine")
	}
	for _, r := range res {
		if r.Score < 0 {
			t.Fatalf("negative combined score %v", r.Score)
		}
	}
}
