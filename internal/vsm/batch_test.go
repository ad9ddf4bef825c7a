package vsm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
)

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

// cycleQueries builds a batch of queries shaped like an obfuscation
// cycle: members drawn from a couple of shared topics, so terms repeat
// across members the way a cycle's ghosts share masking topics.
func cycleQueries(gt *corpus.GroundTruth, an *textproc.Analyzer, rng *rand.Rand, n int) [][]string {
	// Sample from each topic's head — topical word distributions are
	// peaked, so a cycle's members keep drawing the same few words.
	pool := func(words []string) []string {
		if len(words) > 8 {
			return words[:8]
		}
		return words
	}
	a := pool(gt.TopicWords[rng.Intn(len(gt.TopicWords))])
	b := pool(gt.TopicWords[rng.Intn(len(gt.TopicWords))])
	queries := make([][]string, n)
	for i := range queries {
		src := a
		if i%2 == 1 {
			src = b
		}
		q := make([]string, 0, 6)
		for j := 0; j < 2+rng.Intn(4); j++ {
			q = append(q, src[rng.Intn(len(src))])
		}
		queries[i] = analyzeTerms(an, q)
	}
	return queries
}

// TestSearchBatchMatchesSingle is the batch path's correctness anchor:
// over random corpora, both scorings, mixed per-member k, with and
// without tombstone filters, every batch member's hits must
// be bit-identical — documents, ranks, and float64 scores — to running
// the same Request alone through SearchRequest.
func TestSearchBatchMatchesSingle(t *testing.T) {
	ctx := context.Background()
	for _, scoring := range []Scoring{Cosine, BM25} {
		scoring := scoring
		t.Run(scoring.String(), func(t *testing.T) {
			for trial := int64(0); trial < 4; trial++ {
				rng := rand.New(rand.NewSource(7100 + trial))
				c, gt, err := corpus.Synthesize(corpus.GenSpec{
					Seed:    300 + trial,
					NumDocs: 150 + int(trial)*60, NumTopics: 5,
					DocLenMin: 15, DocLenMax: 60,
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				idx, err := index.Build(c)
				if err != nil {
					t.Fatal(err)
				}
				an := textproc.NewAnalyzer()
				eng, err := NewEngine(idx, an, scoring)
				if err != nil {
					t.Fatal(err)
				}

				dead := make([]bool, c.NumDocs())
				for d := range dead {
					dead[d] = rng.Float64() < 0.15
				}
				keep := func(d corpus.DocID) bool { return !dead[d] }

				queries := cycleQueries(gt, an, rng, 8)
				ks := []int{10, 10, 1, 10, 25, 10, 100, 10}
				reqs := make([]Request, len(queries))
				for i, q := range queries {
					reqs[i] = Request{Terms: q, K: ks[i]}
					if i%3 == 2 {
						reqs[i].Keep = keep
					}
				}
				// One member that resolves to nothing.
				reqs = append(reqs, Request{Terms: []string{"zzzznotaword"}, K: 5})

				batch, err := eng.SearchBatch(ctx, reqs)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) != len(reqs) {
					t.Fatalf("%d responses for %d requests", len(batch), len(reqs))
				}
				for i, req := range reqs {
					single, err := eng.SearchRequest(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					if len(batch[i].Hits) != len(single.Hits) {
						t.Fatalf("trial %d member %d: batch %d hits, single %d",
							trial, i, len(batch[i].Hits), len(single.Hits))
					}
					for j := range single.Hits {
						if batch[i].Hits[j] != single.Hits[j] {
							t.Fatalf("trial %d member %d rank %d: batch %+v vs single %+v",
								trial, i, j, batch[i].Hits[j], single.Hits[j])
						}
					}
				}
			}
		})
	}
}

// TestSearchBatchSharesTraversal pins what sharing means: a cycle of
// overlapping queries runs as one scan over the union of its members'
// terms — fewer lists than the members hold between them — and charges
// each member the postings of its own lists.
func TestSearchBatchSharesTraversal(t *testing.T) {
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 11, NumDocs: 600, NumTopics: 6, DocLenMin: 30, DocLenMax: 70,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	eng, err := NewEngine(idx, an, BM25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	queries := cycleQueries(gt, an, rng, 8)
	reqs := make([]Request, len(queries))
	for i, q := range queries {
		reqs[i] = Request{Terms: q, K: 10, Trace: true}
	}
	batch, err := eng.SearchBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	memberTerms := 0
	for i := range batch {
		if batch[i].Stats.Postings == 0 {
			t.Errorf("member %d: no postings counted", i)
		}
		single, err := eng.SearchRequest(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if single.Stats != batch[i].Stats {
			t.Errorf("member %d: charged %+v in the cycle, %+v alone", i, batch[i].Stats, single.Stats)
		}
		memberTerms += single.Trace.Terms
	}
	if tr := batch[0].Trace; tr.Mode != "batch" || tr.Batch != len(reqs) || tr.Terms >= memberTerms {
		t.Errorf("cycle trace %+v: want one batch of %d over fewer than the members' %d term lists", tr, len(reqs), memberTerms)
	}
}

// partsSource is a Source put together by hand: one index's dictionary
// and statistics over whatever parts hold the postings.
type partsSource struct {
	*index.Index
	parts []Part
}

func (s partsSource) AppendParts(dst []Part) []Part { return append(dst, s.parts...) }

// splitParts deals c's documents out to n parts, document d to part
// d mod n: each part an index of its own over the shared dictionary,
// reporting its documents under the IDs they have in c.
func splitParts(t testing.TB, c *corpus.Corpus, n int) []Part {
	t.Helper()
	parts := make([]Part, n)
	for p := range parts {
		sub := &corpus.Corpus{Vocab: c.Vocab}
		for d := p; d < c.NumDocs(); d += n {
			sub.Docs = append(sub.Docs, c.Docs[d])
			sub.Bags = append(sub.Bags, c.Bags[d])
			parts[p].IDs = append(parts[p].IDs, corpus.DocID(d))
		}
		idx, err := index.Build(sub)
		if err != nil {
			t.Fatal(err)
		}
		parts[p].Postings, parts[p].Norms = idx, DocNorms(idx)
	}
	return parts
}

// TestOneStrategy pins, through the trace every response can carry,
// that nothing selects how a query runs: a solo query is one flat scan
// ("exhaustive") whatever the scorer, the source or k; a cycle is one
// shared scan ("batch") whether or not its members have a term in
// common; and BM25 members that disagree on avgdl scan in one group per
// avgdl. Nothing is ever pruned.
func TestOneStrategy(t *testing.T) {
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 31, NumDocs: 300, NumTopics: 8, DocLenMin: 20, DocLenMax: 50,
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
	ran := func(what string, resp Response, want string) {
		t.Helper()
		if resp.Trace.Mode != want || resp.Stats.DocsPruned != 0 || len(resp.Hits) == 0 {
			t.Errorf("%s: ran %q with %d hits, stats %+v; want %q and nothing pruned", what, resp.Trace.Mode, len(resp.Hits), resp.Stats, want)
		}
	}
	for _, scoring := range []Scoring{Cosine, BM25} {
		static, err := NewEngine(idx, an, scoring)
		if err != nil {
			t.Fatal(err)
		}
		split, err := NewEngineOver(partsSource{idx, splitParts(t, c, 3)}, an, scoring)
		if err != nil {
			t.Fatal(err)
		}
		for name, eng := range map[string]*Engine{"static index": static, "three-part source": split} {
			for _, k := range []int{10, (n + 3) / 4} {
				resp, err := eng.SearchRequest(ctx, Request{Terms: terms, K: k, Trace: true})
				if err != nil {
					t.Fatal(err)
				}
				ran(fmt.Sprintf("%v over a %s, k=%d of N=%d", scoring, name, k, n), resp, "exhaustive")
			}
		}
	}

	eng, err := NewEngine(idx, an, BM25)
	if err != nil {
		t.Fatal(err)
	}
	// One topic per member, no word twice: a cycle with no term in
	// common.
	seen := map[string]bool{}
	var disjoint []Request
	for _, words := range gt.TopicWords[:8] {
		var q []string
		for _, w := range analyzeTerms(an, words) {
			if len(q) < 3 && !seen[w] {
				seen[w] = true
				q = append(q, w)
			}
		}
		disjoint = append(disjoint, Request{Terms: q, K: 10, Trace: true})
	}
	resps, err := eng.SearchBatch(ctx, disjoint)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		ran(fmt.Sprintf("disjoint cycle member %d %v", i, disjoint[i].Terms), resp, "batch")
	}

	// Two BM25 statistics with different avgdl cannot share one length
	// cache: each group is a scan of its own.
	ga, gb := globalFor(idx, terms, 3, 0), globalFor(idx, terms, 3, 5000)
	resps, err = eng.SearchBatch(ctx, []Request{
		{Terms: terms, K: 10, Global: gb, Trace: true},
		{Terms: terms, K: 10, Global: ga, Trace: true},
		{Terms: terms, K: 10, Global: ga, Trace: true},
		{Terms: terms, K: n, Global: gb, Trace: true},
		{Terms: terms, K: 10, Global: ga, Trace: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, group := range []int{2, 3, 3, 2, 3} {
		ran(fmt.Sprintf("two-avgdl batch member %d", i), resps[i], "batch")
		if got := resps[i].Trace.Batch; got != group {
			t.Errorf("two-avgdl batch member %d: scanned in a group of %d, want %d", i, got, group)
		}
	}
}

// TestSearchBatchValidation pins the error surface: non-positive k, or
// injected statistics the scorer cannot weigh with, fail the whole batch
// naming the offending member; an empty batch is a no-op.
func TestSearchBatchValidation(t *testing.T) {
	eng, _ := testEngine(t)
	if _, err := eng.SearchBatch(context.Background(), []Request{
		{Terms: []string{"alpha"}, K: 5},
		{Terms: []string{"beta"}, K: 0},
	}); err == nil {
		t.Error("k = 0 batch member must error")
	}
	if _, err := eng.SearchBatch(context.Background(), []Request{
		{Terms: []string{"alpha"}, K: 5},
		{Terms: []string{"alpha", "beta"}, K: 5, Global: &GlobalStats{Docs: 300, TotalLen: 0, DF: []int{10, 10}}},
	}); err == nil || !strings.Contains(err.Error(), "member 1") {
		t.Errorf("terms that occur in a collection of no tokens: err = %v, want one naming member 1", err)
	}
	resps, err := eng.SearchBatch(context.Background(), nil)
	if err != nil || resps != nil {
		t.Errorf("empty batch = %v, %v; want nil, nil", resps, err)
	}
	if _, err := eng.SearchRequest(context.Background(), Request{Query: "alpha", K: -1}); err == nil {
		t.Error("negative k request must error")
	}
}

// TestSearchCancellation pins context handling: an already-canceled
// context aborts single and batch execution with the context's error,
// and an execution stopped part-way does not poison the ones after it.
func TestSearchCancellation(t *testing.T) {
	eng, gt := testEngine(t)
	q := analyzeTerms(eng.Analyzer(), gt.TopicWords[0][:3])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SearchRequest(ctx, Request{Terms: q, K: 10}); err != context.Canceled {
		t.Errorf("canceled request returned %v, want context.Canceled", err)
	}
	q2 := analyzeTerms(eng.Analyzer(), gt.TopicWords[1][:3])
	if _, err := eng.SearchBatch(ctx, []Request{
		{Terms: q, K: 10},
		{Terms: q2, K: 10},
	}); err != context.Canceled {
		t.Errorf("canceled batch returned %v, want context.Canceled", err)
	}
	t.Run("pool stays clean", interruptedScanLeavesPoolClean)
}

// cancelingPostings is a part's Postings whose DocLen — which the BM25
// flat scan reads in the middle of its traversal, once per document —
// cancels a context after a set number of reads.
type cancelingPostings struct {
	Postings
	reads, cancelAt int
	cancel          context.CancelFunc
}

func (s *cancelingPostings) DocLen(d corpus.DocID) int {
	if s.reads++; s.reads == s.cancelAt {
		s.cancel()
	}
	return s.Postings.DocLen(d)
}

// interruptedScanLeavesPoolClean extends the cancellation contract to
// what happens next. A flat scan stopped between blocks — its
// members' accumulators hold contributions no sweep took out — or
// abandoned inside its sweep by a panicking keep filter must not hand
// those states back to the pool: the same engine then answers a stream
// of solo queries and cycles bit for bit like an engine that was never
// interrupted. Each interruption happens twice: with the members on
// the paths denseRule picks (the keep filter keeps them all sparse),
// and with every member sent down the dense path, whose accumulators
// only a sweep to the end of the range clears. The stream after them
// runs on either path and by the rule, against a new engine for every
// query, so a state left dirty by a scan that did finish shows too.
func interruptedScanLeavesPoolClean(t *testing.T) {
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 23, NumDocs: 2500, NumTopics: 5, DocLenMin: 20, DocLenMax: 50,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	rng := rand.New(rand.NewSource(24))
	var cycles [][]Request
	for i := 0; i < 10; i++ {
		var reqs []Request
		for _, q := range cycleQueries(gt, an, rng, 8) {
			reqs = append(reqs, Request{Terms: q, K: 10})
		}
		cycles = append(cycles, reqs)
	}
	for _, scoring := range []Scoring{Cosine, BM25} {
		// Three parts, the interruptions in the middle one: by then the
		// first has been swept into the members' heaps.
		parts := splitParts(t, c, 3)
		fresh := func() *Engine {
			e, err := NewEngineOver(partsSource{idx, parts}, an, scoring)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		src := &cancelingPostings{Postings: parts[1].Postings}
		interrupted := slices.Clone(parts)
		interrupted[1].Postings = src
		eng, err := NewEngineOver(partsSource{idx, interrupted}, an, scoring)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []density{byRule, allDense} {
			eng.withDensity(d)
			if scoring == BM25 {
				// Mid-traversal: a hundred documents into the middle part's
				// first lists, with thousands of postings still to come.
				// Each interrupted call scores under an avgdl of its own, so
				// the length cache starts cold and DocLen gets read.
				withAvgLen := func(req Request, extraLen int64) Request {
					req.Global = globalFor(idx, req.Terms, 1, extraLen)
					return req
				}
				ctx, cancel := context.WithCancel(context.Background())
				src.reads, src.cancelAt, src.cancel = 0, 100, cancel
				var reqs []Request
				for _, req := range cycles[2] {
					reqs = append(reqs, withAvgLen(req, 1000+int64(d)))
				}
				if _, err := eng.SearchBatch(ctx, reqs); err != context.Canceled {
					t.Fatalf("batch canceled mid-traversal returned %v, want context.Canceled", err)
				}
				ctx, cancel = context.WithCancel(context.Background())
				src.reads, src.cancelAt, src.cancel = 0, 100, cancel
				solo := withAvgLen(cycles[2][0], 2000+int64(d))
				if _, err := eng.SearchRequest(ctx, solo); err != context.Canceled {
					t.Fatalf("request canceled mid-traversal returned %v, want context.Canceled", err)
				}
				src.cancelAt = 0
			}
			// Mid-sweep: the filter gives up on the hundredth document of
			// the first member it is asked about.
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("panicking keep filter did not propagate")
					}
				}()
				calls := 0
				reqs := append([]Request(nil), cycles[3]...)
				for i := range reqs {
					reqs[i].Keep = func(corpus.DocID) bool {
						if calls++; calls == 100 {
							panic("keep filter gave up")
						}
						return true
					}
				}
				eng.SearchBatch(context.Background(), reqs)
			}()
		}

		for n := 0; n < 60; n++ {
			eng.withDensity([]density{byRule, allDense, allSparse}[n%3])
			reqs := cycles[n%len(cycles)]
			var got, want []Response
			if n%2 == 0 {
				if got, err = eng.SearchBatch(context.Background(), reqs); err != nil {
					t.Fatal(err)
				}
				if want, err = fresh().SearchBatch(context.Background(), reqs); err != nil {
					t.Fatal(err)
				}
			} else {
				g, err := eng.SearchRequest(context.Background(), reqs[n%len(reqs)])
				if err != nil {
					t.Fatal(err)
				}
				w, err := fresh().SearchRequest(context.Background(), reqs[n%len(reqs)])
				if err != nil {
					t.Fatal(err)
				}
				got, want = []Response{g}, []Response{w}
			}
			for i := range want {
				if err := sameHits(got[i].Hits, want[i].Hits); err != nil {
					t.Fatalf("%v, query %d after the interruptions, member %d: %v", scoring, n, i, err)
				}
				if got[i].Stats != want[i].Stats {
					t.Fatalf("%v, query %d after the interruptions, member %d: stats %+v, fresh engine %+v", scoring, n, i, got[i].Stats, want[i].Stats)
				}
			}
		}
	}
}

// testEngine builds a small engine over a synthetic corpus for API
// surface tests.
func testEngine(t *testing.T) (*Engine, *corpus.GroundTruth) {
	t.Helper()
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 21, NumDocs: 300, NumTopics: 5, DocLenMin: 20, DocLenMax: 50,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(idx, textproc.NewAnalyzer(), Cosine)
	if err != nil {
		t.Fatal(err)
	}
	return eng, gt
}

// globalFor builds the statistics a router would inject for terms: the
// index's own collection scaled up as if mult−1 more shards held
// identical documents, with extraLen more tokens among them (which
// moves BM25's avgdl). Terms this index lacks get df 1 — another shard
// holds them — so the cosine wire-order norm sees them.
func globalFor(idx *index.Index, terms []string, mult int, extraLen int64) *GlobalStats {
	g := &GlobalStats{Docs: idx.NumDocs() * mult, TotalLen: extraLen, DF: make([]int, len(terms))}
	for d := 0; d < idx.NumDocs(); d++ {
		g.TotalLen += int64(idx.DocLen(corpus.DocID(d)) * mult)
	}
	for i, term := range terms {
		g.DF[i] = 1
		if id := idx.Vocab().ID(term); id != textproc.InvalidTerm {
			g.DF[i] = idx.DocFreq(id) * mult
		}
	}
	return g
}

// TestSearchBatchGlobalBitIdentical is the property that lets a routed
// cycle share: members carrying injected statistics join the
// cycle-at-a-time traversal and still return, bit for bit, what
// SearchRequest returns for them alone. Four batch shapes per scoring,
// with and without the tombstone filter a store always sets: every
// member on one Global; two Globals with different avgdl (under BM25
// each avgdl has a denoms cache, and a scan, of its own); Global mixed
// with local members; a Global equal to the local statistics.
func TestSearchBatchGlobalBitIdentical(t *testing.T) {
	ctx := context.Background()
	// stats[i%len] picks member i's statistics: 0 = local, 1 = Global
	// A, 2 = Global B (another avgdl), 3 = a Global equal to the index's
	// own statistics.
	shapes := []struct {
		name  string
		stats []int
	}{
		{"one-global", []int{1}},
		{"two-globals", []int{1, 1, 2}},
		{"global-and-local", []int{1, 0, 1}},
		{"global-equals-local", []int{3, 0}},
	}
	for _, scoring := range []Scoring{Cosine, BM25} {
		for _, shape := range shapes {
			for _, filtered := range []bool{false, true} {
				scoring, shape, filtered := scoring, shape, filtered
				name := scoring.String() + "/" + shape.name
				if filtered {
					name += "/keep"
				}
				t.Run(name, func(t *testing.T) {
					for trial := int64(0); trial < 3; trial++ {
						rng := rand.New(rand.NewSource(8200 + trial))
						c, gt, err := corpus.Synthesize(corpus.GenSpec{
							Seed:    410 + trial,
							NumDocs: 400 + int(trial)*150, NumTopics: 5,
							DocLenMin: 15, DocLenMax: 60,
						}, nil)
						if err != nil {
							t.Fatal(err)
						}
						idx, err := index.Build(c)
						if err != nil {
							t.Fatal(err)
						}
						an := textproc.NewAnalyzer()
						eng, err := NewEngine(idx, an, scoring)
						if err != nil {
							t.Fatal(err)
						}
						var keep func(corpus.DocID) bool
						if filtered {
							dead := make([]bool, c.NumDocs())
							for d := range dead {
								dead[d] = rng.Float64() < 0.15
							}
							keep = func(d corpus.DocID) bool { return !dead[d] }
						}
						queries := cycleQueries(gt, an, rng, 12)
						queries[4] = append(queries[4], "zzzzothershardterm", queries[4][0])
						reqs := make([]Request, len(queries))
						for i, q := range queries {
							reqs[i] = Request{Terms: q, K: 10, Keep: keep, Trace: true}
							switch shape.stats[i%len(shape.stats)] {
							case 1:
								reqs[i].Global = globalFor(idx, q, 3, 131)
							case 2:
								reqs[i].Global = globalFor(idx, q, 3, 977)
							case 3:
								reqs[i].Global = globalFor(idx, q, 1, 0)
							}
						}
						batch, err := eng.SearchBatch(ctx, reqs)
						if err != nil {
							t.Fatal(err)
						}
						for i, req := range reqs {
							req.Trace = false
							solo, err := eng.SearchRequest(ctx, req)
							if err != nil {
								t.Fatal(err)
							}
							if len(batch[i].Hits) != len(solo.Hits) {
								t.Fatalf("trial %d member %d: batch %d hits, solo %d", trial, i, len(batch[i].Hits), len(solo.Hits))
							}
							for j, h := range solo.Hits {
								b := batch[i].Hits[j]
								if b.Doc != h.Doc || math.Float64bits(b.Score) != math.Float64bits(h.Score) {
									t.Fatalf("trial %d member %d rank %d: batch %+v, solo %+v", trial, i, j, b, h)
								}
							}
							if mode := batch[i].Trace.Mode; mode != "batch" {
								t.Fatalf("trial %d member %d: ran as %q, want a shared scan", trial, i, mode)
							}
							if bs, es := batch[i].Stats, solo.Stats; bs != es || bs.DocsPruned != 0 {
								t.Errorf("trial %d member %d: shared stats %+v, solo %+v", trial, i, bs, es)
							}
						}
					}
				})
			}
		}
	}
}

// TestQueryTextMatchesTerms holds the token memo to the pipeline it
// replaces: a batch whose members carry Query text answers, hits, scores
// and ExecStats, exactly as the same batch with Terms =
// Analyze(Query) does, with the memo cold and warm. The text comes in
// the forms a server meets: surface words in mixed case, and analyzed
// terms joined with spaces (which the engine analyzes a second time,
// so a stem Porter does not map to itself misses, as it does today).
func TestQueryTextMatchesTerms(t *testing.T) {
	ctx := context.Background()
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 21, NumDocs: 300, NumTopics: 5, DocLenMin: 15, DocLenMax: 60,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	rng := rand.New(rand.NewSource(22))
	var texts []string
	for _, words := range gt.TopicWords {
		for i := 0; i+3 <= len(words) && i < 12; i += 3 {
			surface := strings.Join(words[i:i+3], " ")
			texts = append(texts, strings.ToUpper(surface[:1])+surface[1:]+", the "+words[i], strings.Join(an.Analyze(surface), " "))
		}
	}
	texts = append(texts, "hous televis basebal franchis", "the and of", "zzzz qqqq", "")
	for _, scoring := range []Scoring{Cosine, BM25} {
		eng, err := NewEngine(idx, an, scoring)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			rng.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
			text := make([]Request, len(texts))
			terms := make([]Request, len(texts))
			for i, q := range texts {
				text[i] = Request{Query: q, K: 10}
				terms[i] = Request{Terms: an.Analyze(q), K: 10}
			}
			got, err := eng.SearchBatch(ctx, text)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.SearchBatch(ctx, terms)
			if err != nil {
				t.Fatal(err)
			}
			for i := range texts {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%v pass %d: %q as text %+v, as terms %+v", scoring, pass, texts[i], got[i], want[i])
				}
			}
		}
	}
}
