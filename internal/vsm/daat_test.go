package vsm

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/linkrank"
	"toppriv/internal/textproc"
)

// TestMaxScoreMatchesExhaustive is the pruned path's correctness
// anchor: over random synthetic corpora, for both scoring functions,
// with and without tombstone filters and priors, and for k spanning
// "selective" to "nearly everything", DAAT/MaxScore must return
// exactly the documents and order of the exhaustive oracle, with
// scores within 1e-9 (in fact both paths share their accumulation
// order, so scores are expected bit-identical).
func TestMaxScoreMatchesExhaustive(t *testing.T) {
	for _, scoring := range []Scoring{Cosine, BM25} {
		scoring := scoring
		t.Run(scoring.String(), func(t *testing.T) {
			for trial := int64(0); trial < 6; trial++ {
				runMaxScoreTrial(t, scoring, trial)
			}
		})
	}
}

func runMaxScoreTrial(t *testing.T, scoring Scoring, trial int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(4200 + trial))
	spec := corpus.GenSpec{
		Seed:      900 + trial,
		NumDocs:   120 + int(trial)*40,
		NumTopics: 4 + int(trial%3),
		DocLenMin: 15, DocLenMax: 60,
	}
	c, gt, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()

	// Engine variants: plain, and (cosine/bm25 alike) prior-modulated.
	engines := map[string]*Engine{}
	plain, err := NewEngine(idx, an, scoring)
	if err != nil {
		t.Fatal(err)
	}
	engines["plain"] = plain
	topics := make([][]float64, c.NumDocs())
	for d := range topics {
		topics[d] = c.Docs[d].TrueTopics
	}
	g, err := linkrank.SyntheticGraph(topics, 3, 77+trial)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := linkrank.PageRank(g, 0.85, 50, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	withPrior, err := NewEngineWithPrior(idx, an, scoring, pr, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	engines["prior"] = withPrior

	// Random tombstone sets: none, sparse, heavy.
	keeps := map[string]func(corpus.DocID) bool{
		"nokeep": nil,
	}
	for name, frac := range map[string]float64{"sparse": 0.1, "heavy": 0.6} {
		dead := make([]bool, c.NumDocs())
		for d := range dead {
			if rng.Float64() < frac {
				dead[d] = true
			}
		}
		keeps[name] = func(d corpus.DocID) bool { return !dead[d] }
	}

	queries := make([][]string, 0, 24)
	for i := 0; i < 10; i++ {
		topic := gt.TopicWords[rng.Intn(len(gt.TopicWords))]
		q := make([]string, 0, 4)
		for j := 0; j < 1+rng.Intn(4); j++ {
			q = append(q, topic[rng.Intn(len(topic))])
		}
		queries = append(queries, q)
	}
	// Multi-topic queries and repeated-term queries.
	for i := 0; i < 8; i++ {
		a := gt.TopicWords[rng.Intn(len(gt.TopicWords))]
		b := gt.TopicWords[rng.Intn(len(gt.TopicWords))]
		queries = append(queries, []string{
			a[rng.Intn(len(a))], b[rng.Intn(len(b))],
			a[rng.Intn(len(a))], a[rng.Intn(len(a))],
		})
	}

	for engName, eng := range engines {
		for keepName, keep := range keeps {
			for _, k := range []int{1, 10, 100} {
				for qi, q := range queries {
					var ex ExecStats
					terms := analyzeTerms(an, q)
					oracle := searchMode(t, eng, terms, k, keep, ExecExhaustive, &ex)
					for _, mode := range []ExecMode{ExecMaxScore} {
						var ms ExecStats
						pruned := searchMode(t, eng, terms, k, keep, mode, &ms)
						if len(pruned) != len(oracle) {
							t.Fatalf("%s/%s/%s/%s k=%d q%d %v: %d results vs oracle %d",
								scoring, engName, keepName, mode, k, qi, q, len(pruned), len(oracle))
						}
						for i := range pruned {
							if pruned[i].Doc != oracle[i].Doc {
								t.Fatalf("%s/%s/%s/%s k=%d q%d %v rank %d: doc %d vs oracle %d\npruned: %v\noracle: %v",
									scoring, engName, keepName, mode, k, qi, q, i, pruned[i].Doc, oracle[i].Doc, pruned, oracle)
							}
							if math.Abs(pruned[i].Score-oracle[i].Score) > 1e-9 {
								t.Fatalf("%s/%s/%s/%s k=%d q%d %v rank %d: score %.15f vs oracle %.15f",
									scoring, engName, keepName, mode, k, qi, q, i, pruned[i].Score, oracle[i].Score)
							}
						}
					}
				}
			}
		}
	}
}

// searchMode runs one analyzed query under an explicit Request.Mode,
// accumulating its work counters into stats when non-nil.
func searchMode(t testing.TB, eng *Engine, terms []string, k int, keep func(corpus.DocID) bool, mode ExecMode, stats *ExecStats) []Result {
	t.Helper()
	resp, err := eng.SearchRequest(context.Background(), Request{Terms: terms, K: k, Keep: keep, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	if stats != nil {
		stats.Add(resp.Stats)
	}
	return resp.Hits
}

// analyzeTerms runs each raw query word through the analyzer (the
// synthesized topic words are already normalized, but stemming must
// match the corpus pipeline).
func analyzeTerms(an *textproc.Analyzer, words []string) []string {
	out := make([]string, 0, len(words))
	for _, w := range words {
		out = append(out, an.Analyze(w)...)
	}
	return out
}

// TestMaxScorePrunesWork asserts the point of the whole exercise: for
// selective top-k queries the pruned path fully scores far fewer
// documents than the oracle.
func TestMaxScorePrunesWork(t *testing.T) {
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 5, NumDocs: 1500, NumTopics: 8, DocLenMin: 30, DocLenMax: 80,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	rng := rand.New(rand.NewSource(6))
	for _, scoring := range []Scoring{Cosine, BM25} {
		eng, err := NewEngine(idx, an, scoring)
		if err != nil {
			t.Fatal(err)
		}
		var ms, ex ExecStats
		for i := 0; i < 20; i++ {
			topic := gt.TopicWords[rng.Intn(len(gt.TopicWords))]
			q := analyzeTerms(an, []string{topic[0], topic[1], topic[2]})
			searchMode(t, eng, q, 10, nil, ExecMaxScore, &ms)
			searchMode(t, eng, q, 10, nil, ExecExhaustive, &ex)
		}
		if ms.DocsScored*2 > ex.DocsScored {
			t.Errorf("%v: MaxScore fully scored %d docs, exhaustive %d — expected ≥2× reduction",
				scoring, ms.DocsScored, ex.DocsScored)
		}
		t.Logf("%v: docs scored maxscore=%d exhaustive=%d pruned=%d",
			scoring, ms.DocsScored, ex.DocsScored, ms.DocsPruned)
	}
}

// impactlessSource hides every optional extension of the Source it
// wraps: the engine sees postings and statistics, no max-impact bounds.
type impactlessSource struct{ Source }

// TestAutoPlan pins the planner rule (effectiveMode) through the trace
// every response can carry: without impact metadata or for near-full
// retrieval (4k ≥ N) the flat scan; otherwise MaxScore under BM25 and
// the flat scan under cosine. Batch members that cannot join the shared
// traversal follow the same rule.
func TestAutoPlan(t *testing.T) {
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 31, NumDocs: 300, NumTopics: 5, DocLenMin: 20, DocLenMax: 50,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	terms := analyzeTerms(an, gt.TopicWords[0][:3])
	ctx := context.Background()
	n := idx.NumDocs()
	for _, tc := range []struct {
		scoring Scoring
		impacts bool
		k       int
		want    ExecMode
	}{
		{Cosine, true, 10, ExecExhaustive},
		{Cosine, true, n, ExecExhaustive},
		{Cosine, false, 10, ExecExhaustive},
		{BM25, true, 10, ExecMaxScore},
		{BM25, true, (n - 1) / 4, ExecMaxScore},
		{BM25, true, (n + 3) / 4, ExecExhaustive},
		{BM25, true, n, ExecExhaustive},
		{BM25, false, 10, ExecExhaustive},
	} {
		var src Source = idx
		if !tc.impacts {
			src = impactlessSource{idx}
		}
		eng, err := NewEngineOver(src, an, tc.scoring)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := eng.SearchRequest(ctx, Request{Terms: terms, K: tc.k, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Trace.Mode; got != tc.want.String() {
			t.Errorf("%v impacts=%v k=%d N=%d: auto ran %q, want %q", tc.scoring, tc.impacts, tc.k, n, got, tc.want)
		}
		// An explicit mode is honoured when the source can run it.
		resp, err = eng.SearchRequest(ctx, Request{Terms: terms, K: tc.k, Mode: ExecMaxScore, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		want := ExecMaxScore
		if !tc.impacts {
			want = ExecExhaustive
		}
		if got := resp.Trace.Mode; got != want.String() {
			t.Errorf("%v impacts=%v k=%d: explicit maxscore ran %q, want %q", tc.scoring, tc.impacts, tc.k, got, want)
		}
	}

	// Two BM25 statistics with different avgdl cannot share one
	// traversal: the pair on the first shares, the straggler runs alone
	// under the single-query rule.
	eng, err := NewEngine(idx, an, BM25)
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := globalFor(idx, terms, 3, 0), globalFor(idx, terms, 3, 5000)
	resps, err := eng.SearchBatch(ctx, []Request{
		{Terms: terms, K: 10, Global: ga, Trace: true},
		{Terms: terms, K: 10, Global: ga, Trace: true},
		{Terms: terms, K: 10, Global: gb, Trace: true},
		{Terms: terms, K: n, Global: gb, Trace: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"batch", "batch", "maxscore", "exhaustive"} {
		if got := resps[i].Trace.Mode; got != want {
			t.Errorf("batch member %d ran %q, want %q", i, got, want)
		}
	}
}
