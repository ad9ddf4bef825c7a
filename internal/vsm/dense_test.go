package vsm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
)

// builderPostings is a memtable's kind of postings: plain lists that
// grow in place, read through a slice iterator.
type builderPostings struct{ b index.Builder }

func (p *builderPostings) IterInto(id textproc.TermID, it *index.Iterator) {
	it.ResetList(p.b.List(id))
}

func (p *builderPostings) DocLen(d corpus.DocID) int { return p.b.DocLen(d) }

// memtablePart holds documents [from, to) of c the way a store's
// memtable does: uncompressed lists, norms summed as each document
// arrives, documents reported under their IDs in c.
func memtablePart(c *corpus.Corpus, from, to int) Part {
	p := &builderPostings{}
	part := Part{Postings: p}
	for d := from; d < to; d++ {
		_, tfs := p.b.Add(c.Bags[d])
		sq := 0.0
		for _, tf := range tfs {
			w := 1 + math.Log(float64(tf))
			sq += w * w
		}
		part.Norms = append(part.Norms, math.Sqrt(sq))
		part.IDs = append(part.IDs, corpus.DocID(d))
	}
	return part
}

// segmentPart holds documents [from, to) of c the way a sealed segment
// does: a block-compressed index over the shared dictionary, documents
// reported under their IDs in c.
func segmentPart(t testing.TB, c *corpus.Corpus, from, to int) Part {
	t.Helper()
	idx, err := index.Build(&corpus.Corpus{Vocab: c.Vocab, Docs: c.Docs[from:to], Bags: c.Bags[from:to]})
	if err != nil {
		t.Fatal(err)
	}
	part := Part{Postings: idx, Norms: DocNorms(idx)}
	for d := from; d < to; d++ {
		part.IDs = append(part.IDs, corpus.DocID(d))
	}
	return part
}

// tombstone marks about one document in eight of each part dead,
// deterministically.
func tombstone(parts []Part, seed int64) []Part {
	rng := rand.New(rand.NewSource(seed))
	parts = slices.Clone(parts)
	for p := range parts {
		parts[p].Dead = make([]bool, len(parts[p].IDs))
		for d := range parts[p].Dead {
			parts[p].Dead[d] = rng.Intn(8) == 0
		}
	}
	return parts
}

// threeWays builds an engine over src three times: one that picks each
// member's path by denseRule, one that sends every member down the
// dense path and one that sends every member down the sparse path — the
// path every member took before the dense one existed.
func threeWays(t testing.TB, build func() (*Engine, error)) [3]*Engine {
	t.Helper()
	var engs [3]*Engine
	for i, d := range []density{byRule, allDense, allSparse} {
		e, err := build()
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = e.withDensity(d)
	}
	return engs
}

// agree runs reqs as one cycle through each of engs, and each member
// alone through the first, and fails unless every response carries the
// same hits, bit for bit, and the same work counters.
func agree(t *testing.T, name string, engs [3]*Engine, reqs []Request) [][]Result {
	t.Helper()
	ctx := context.Background()
	var runs [3][]Response
	for i, e := range engs {
		resps, err := e.SearchBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = resps
	}
	hits := make([][]Result, len(reqs))
	for m := range reqs {
		want := runs[0][m]
		for i, how := range []string{"all dense", "all sparse"} {
			got := runs[i+1][m]
			if err := sameHits(got.Hits, want.Hits); err != nil {
				t.Fatalf("%s member %d (k=%d) %s: %v", name, m, reqs[m].K, how, err)
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s member %d %s: stats %+v, by the rule %+v", name, m, how, got.Stats, want.Stats)
			}
		}
		for i, e := range engs {
			solo, err := e.SearchRequest(ctx, reqs[m])
			if err != nil {
				t.Fatal(err)
			}
			if err := sameHits(solo.Hits, want.Hits); err != nil || solo.Stats != want.Stats {
				t.Fatalf("%s member %d engine %d alone: %v, stats %+v, in the cycle %+v", name, m, i, err, solo.Stats, want.Stats)
			}
		}
		hits[m] = want.Hits
	}
	return hits
}

// ruleSplit counts, over every part of src, the members of reqs that
// denseRule sends down each path, from the lists their resolved terms
// have there — the lengths and last documents flatScan reads.
func ruleSplit(src Source, reqs []Request) (dense, sparse int) {
	var it index.Iterator
	for _, part := range src.AppendParts(nil) {
		for _, req := range reqs {
			postings, hi := 0, 0
			seen := map[textproc.TermID]bool{}
			for _, term := range req.Terms {
				id := src.Vocab().ID(term)
				if id == textproc.InvalidTerm || seen[id] {
					continue
				}
				seen[id] = true
				if part.IterInto(id, &it); it.Valid() {
					postings += it.Len()
					hi = max(hi, int(it.LastDoc())+1)
				}
			}
			if denseRule(postings, hi) {
				dense++
			} else {
				sparse++
			}
		}
	}
	return dense, sparse
}

// TestDenseAndSparsePathsAgree holds the two ways a member can take
// over a part to each other and to the rule that picks between them:
// an engine that sends every member dense and one that sends every
// member sparse return, bit for bit, the hits and counters of the
// engine that picks by denseRule — alone and in a cycle; over a static
// index, a one-memtable store and a store of two segments and a
// memtable (reported IDs that are not the local ones, with and without
// tombstones); under local and router-injected statistics; for both
// scorers; with and without a keep filter; at k = 1, 10 and 100. Each cycle mixes members of common terms, which the
// rule sends dense, with members of rare ones, which it keeps sparse.
func TestDenseAndSparsePathsAgree(t *testing.T) {
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 45, NumDocs: 900, NumTopics: 6, DocLenMin: 20, DocLenMax: 60,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	n := c.NumDocs()
	rng := rand.New(rand.NewSource(46))

	// Terms by document frequency: the head reaches most documents, the
	// tail a handful.
	byDF := make([]string, 0, idx.NumTerms())
	for id := 0; id < idx.NumTerms(); id++ {
		if idx.DocFreq(textproc.TermID(id)) > 0 {
			byDF = append(byDF, c.Vocab.Term(textproc.TermID(id)))
		}
	}
	slices.SortStableFunc(byDF, func(a, b string) int {
		return idx.DocFreq(c.Vocab.ID(b)) - idx.DocFreq(c.Vocab.ID(a))
	})
	head, tail := byDF[:30], byDF[len(byDF)-200:]
	pick := func(from []string, n int) []string {
		q := make([]string, n)
		for i := range q {
			q[i] = from[rng.Intn(len(from))]
		}
		return q
	}
	var queries [][]string
	for i := 0; i < 3; i++ {
		queries = append(queries, pick(head, 4+rng.Intn(6)), pick(tail, 2))
	}
	queries = append(queries, cycleQueries(gt, an, rng, 4)...)
	queries[0] = append(queries[0], "zzzzothershardterm", queries[0][0])

	segs := []Part{segmentPart(t, c, 0, n/3), segmentPart(t, c, n/3, 2*n/3), memtablePart(c, 2*n/3, n)}
	sources := []struct {
		name string
		src  Source
	}{
		{"memtable store", partsSource{idx, []Part{memtablePart(c, 0, n)}}},
		{"segments and memtable", partsSource{idx, segs}},
		{"tombstoned segments and memtable", partsSource{idx, tombstone(segs, 47)}},
	}
	keep := func(d corpus.DocID) bool { return d%7 != 3 }
	ks := []int{1, 10, 100}
	for _, scoring := range []Scoring{Cosine, BM25} {
		type setup struct {
			name string
			src  Source
			engs [3]*Engine
		}
		setups := []setup{
			{"static index", whole{idx, DocNorms(idx)}, threeWays(t, func() (*Engine, error) { return NewEngine(idx, an, scoring) })},
		}
		for _, s := range sources {
			src := s.src
			setups = append(setups, setup{s.name, src, threeWays(t, func() (*Engine, error) { return NewEngineOver(src, an, scoring) })})
		}
		for _, s := range setups {
			for _, global := range []bool{false, true} {
				for _, filtered := range []bool{false, true} {
					reqs := make([]Request, len(queries))
					for i, q := range queries {
						reqs[i] = Request{Terms: q, K: ks[i%len(ks)]}
						if global {
							reqs[i].Global = globalFor(idx, q, 3, 131)
						}
						if filtered && i%2 == 0 {
							reqs[i].Keep = keep
						}
					}
					name := fmt.Sprintf("%v over a %s, global=%v keep=%v", scoring, s.name, global, filtered)
					agree(t, name, s.engs, reqs)
					if !global && !filtered {
						if dense, sparse := ruleSplit(s.src, reqs); dense == 0 || sparse == 0 {
							t.Fatalf("%s: the rule sent %d members dense and %d sparse; the cycle must hold both", name, dense, sparse)
						}
					}
				}
			}
		}
	}
}

// handCorpus builds a corpus of the given texts, analyzed.
func handCorpus(t testing.TB, texts ...string) *corpus.Corpus {
	t.Helper()
	docs := make([]corpus.Document, len(texts))
	for i, text := range texts {
		docs[i] = corpus.Document{Text: text}
	}
	c, err := corpus.Build(docs, textproc.NewAnalyzer(), textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDenseRuleBoundary holds the rule to its edge — a member whose
// lists hold, between them, exactly as many postings as the range they
// span goes dense; one document more in the range keeps it sparse — and
// the three engines to each other on collections built to sit on
// either side of it, with a document in the range that holds no query
// term.
func TestDenseRuleBoundary(t *testing.T) {
	if !denseRule(6, 6) || denseRule(6, 7) {
		t.Fatalf("denseRule(6, 6) = %v, denseRule(6, 7) = %v; want dense at postings equal to the range, sparse one below", denseRule(6, 6), denseRule(6, 7))
	}
	for _, tc := range []struct {
		name  string
		texts []string
		hi    int
	}{
		// alpha on 0, 1, 3, 5 and beta on 2, 5: six postings over six
		// documents.
		{"at the boundary", []string{"alpha", "alpha alpha", "beta", "alpha filler", "filler", "alpha beta"}, 6},
		// alpha on 0, 1, 3, 6 and beta on 2, 6: six over seven.
		{"one below", []string{"alpha", "alpha alpha", "beta", "alpha filler", "filler", "filler", "alpha beta"}, 7},
	} {
		c := handCorpus(t, tc.texts...)
		idx, err := index.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		terms := textproc.NewAnalyzer().Analyze("alpha beta")
		dense, _ := ruleSplit(whole{Index: idx}, []Request{{Terms: terms}})
		if want := tc.hi == 6; (dense == 1) != want {
			t.Fatalf("%s: the rule sent the member dense = %v, want %v", tc.name, dense == 1, want)
		}
		for _, scoring := range []Scoring{Cosine, BM25} {
			engs := threeWays(t, func() (*Engine, error) { return NewEngine(idx, textproc.NewAnalyzer(), scoring) })
			for _, k := range []int{1, 10, 100} {
				agree(t, fmt.Sprintf("%s %v k=%d", tc.name, scoring, k), engs, []Request{{Terms: terms, K: k}})
			}
		}
	}
}

// TestDenseSweepOffersBM25TiesAtTheRoot pins the BM25 gate's edge: with
// a full heap, a document whose raw score equals the root's but whose
// ID is smaller must still be offered, because it wins the tie. Two
// parts hold the same document text; the first reports it as 7 and
// fills a one-hit heap with it, the second reports it as 3.
func TestDenseSweepOffersBM25TiesAtTheRoot(t *testing.T) {
	c := handCorpus(t, "gamma delta", "gamma epsilon epsilon zeta", "gamma delta", "eta gamma theta iota kappa")
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	first, second := segmentPart(t, c, 0, 2), memtablePart(c, 2, 4)
	first.IDs, second.IDs = []corpus.DocID{7, 8}, []corpus.DocID{3, 4}
	src := partsSource{idx, []Part{first, second}}
	engs := threeWays(t, func() (*Engine, error) { return NewEngineOver(src, nil, BM25) })
	hits := agree(t, "BM25 tie at the root", engs, []Request{{Query: "gamma", K: 1}})
	if len(hits[0]) != 1 || hits[0][0].Doc != 3 {
		t.Fatalf("hits %+v: want document 3, which ties document 7 and has the smaller ID", hits[0])
	}
}

// TestDenseSweepOffersOnlyReachedDocuments pins the cosine gate at
// bound 0 — a heap that never fills: a dense sweep offers exactly the
// documents the scan reached, never an untouched one, whether the
// document has a norm, a norm of 0 (an empty document) or none at all
// (past the part's norms).
func TestDenseSweepOffersOnlyReachedDocuments(t *testing.T) {
	texts := []string{"alpha beta", "", "gamma", "alpha", "gamma delta", "", "beta beta", "delta", "alpha gamma", "epsilon"}
	c := handCorpus(t, texts...)
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	short := segmentPart(t, c, 0, len(texts))
	short.Norms = short.Norms[:len(texts)-3]
	reached := 0
	for _, text := range texts {
		if strings.Contains(text, "alpha") || strings.Contains(text, "beta") {
			reached++
		}
	}
	for name, src := range map[string]Source{
		"an index":                    whole{idx, DocNorms(idx)},
		"a part with norms cut short": partsSource{idx, []Part{short}},
	} {
		src := src
		engs := threeWays(t, func() (*Engine, error) { return NewEngineOver(src, nil, Cosine) })
		hits := agree(t, name, engs, []Request{{Query: "alpha beta", K: 100}})
		if len(hits[0]) != reached {
			t.Fatalf("%s: %d hits %+v, want the %d documents holding a query term", name, len(hits[0]), hits[0], reached)
		}
	}
}

// TestDenseSweepAgreesWithSweep is the dense sweep's counterpart of
// TestSweepGateNeverRejectsAnAdmissibleDocument, on the same
// adversarial accumulators: raw scores crowding the gate's limit, runs
// of equal finals, documents without a norm or past the norms, seeded
// heaps of larger IDs, k = 1 and heaps that never fill, reported IDs,
// tombstones and keep filters. For each, sweepDense over the
// whole range must leave the heap, the counters and an all-zero
// accumulator exactly as sweep over the reached list does.
func TestDenseSweepAgreesWithSweep(t *testing.T) {
	const nDocs = 300
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 3000; trial++ {
		e := &Engine{scoring: Scoring(trial % 2)}
		qnorm := 1.0
		var part Part
		if e.scoring == Cosine {
			qnorm = 0.2 + 3*rng.Float64()
			part.Norms = make([]float64, nDocs-7)
			for d := range part.Norms {
				if part.Norms[d] = 0.5 + 9*rng.Float64(); rng.Intn(25) == 0 {
					part.Norms[d] = 0
				}
			}
		}
		if trial%5 == 4 {
			part.IDs = make([]corpus.DocID, nDocs)
			for d := range part.IDs {
				part.IDs[d] = corpus.DocID(2*d + 17)
			}
		}
		if trial%13 == 12 {
			part.Dead = make([]bool, nDocs)
			for d := range part.Dead {
				part.Dead[d] = rng.Intn(6) == 0
			}
		}
		var keep func(corpus.DocID) bool
		if trial%7 == 6 {
			dead := rng.Intn(nDocs)
			keep = func(d corpus.DocID) bool { return int(d)%5 != dead%5 }
		}
		k := []int{1, 2, 10, 50, nDocs + 20}[rng.Intn(5)]
		den := func(d int) float64 {
			if d < len(part.Norms) && part.Norms[d] > 0 {
				return part.Norms[d] * qnorm
			}
			return 1
		}
		hi := nDocs - rng.Intn(20) // the member's lists end before the part does
		sparse, dense := &queryState{}, &queryState{}
		sparse.ensureDoc(nDocs - 1)
		dense.ensureDoc(nDocs - 1)
		pivot := 0.05 + rng.Float64()
		for d := 0; d < hi; d++ {
			var s float64
			switch rng.Intn(10) {
			case 0, 1:
				continue
			case 2, 3, 4, 5:
				s = nudge(pivot*den(d), rng.Intn(9)-4)
			default:
				s = (0.01 + 1.05*rng.Float64()*pivot) * den(d)
			}
			sparse.score[d], dense.score[d] = s, s
			sparse.reached = append(sparse.reached, corpus.DocID(d))
		}
		if trial%3 == 2 {
			for i := 0; i < k && i < 40; i++ {
				r := Result{Doc: corpus.DocID(nDocs + 1000 - i), Score: pivot}
				if rng.Intn(2) == 0 {
					r.Score = nudge(pivot, rng.Intn(5)-2)
				}
				pushTopK(&sparse.heap, k, r)
			}
			dense.heap = append(dense.heap, sparse.heap...)
		}

		ms := batchMember{qs: sparse, qnorm: qnorm, k: k, keep: keep}
		md := batchMember{qs: dense, qnorm: qnorm, k: k, keep: keep, dense: true, hi: hi}
		sparse.unswept, dense.unswept = true, true
		e.sweep(&ms, &part)
		e.sweepDense(&md, &part)
		if err := sameHits(drainTopK(&dense.heap), drainTopK(&sparse.heap)); err != nil {
			t.Fatalf("trial %d (%v, k=%d, keep=%v, ids=%v, dead=%v): %v",
				trial, e.scoring, k, keep != nil, part.IDs != nil, part.Dead != nil, err)
		}
		if md.stats != ms.stats {
			t.Fatalf("trial %d: dense stats %+v, sparse %+v", trial, md.stats, ms.stats)
		}
		if dense.unswept || len(dense.reached) != 0 {
			t.Fatalf("trial %d: dense state unswept=%v with %d reached", trial, dense.unswept, len(dense.reached))
		}
		for d, s := range dense.score {
			if s != 0 {
				t.Fatalf("trial %d: document %d left in the dense accumulator (score %v)", trial, d, s)
			}
		}
	}
}
