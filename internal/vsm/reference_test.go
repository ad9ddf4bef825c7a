package vsm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
)

// refIndex is the reference scorer's whole view of a collection:
// per-document term counts taken straight from the analyzed bags. It has
// no postings lists, blocks, iterators, accumulator arrays or heaps, and
// calls nothing in the engine — the point of it is that a bug in the
// flat-scan kernel cannot also be a bug here.
type refIndex struct {
	vocab *textproc.Vocab
	tf    []map[textproc.TermID]int // tf[d][term]
	dl    []int                     // analyzed length of d
	df    map[textproc.TermID]int
	total int       // Σ dl
	norm  []float64 // lnc vector norm of d
}

func newRefIndex(c *corpus.Corpus) *refIndex {
	r := &refIndex{vocab: c.Vocab, df: map[textproc.TermID]int{}}
	for _, bag := range c.Bags {
		counts := map[textproc.TermID]int{}
		for _, id := range bag {
			counts[id]++
		}
		ids := make([]int, 0, len(counts))
		for id := range counts {
			r.df[id]++
			ids = append(ids, int(id))
		}
		// Squares are summed in ascending term order, the order a
		// term-major pass over an inverted index adds them in.
		sort.Ints(ids)
		sum := 0.0
		for _, id := range ids {
			w := 1 + math.Log(float64(counts[textproc.TermID(id)]))
			sum += w * w
		}
		r.tf = append(r.tf, counts)
		r.dl = append(r.dl, len(bag))
		r.total += len(bag)
		r.norm = append(r.norm, math.Sqrt(sum))
	}
	return r
}

// refTerm is one distinct query term with its textbook weight.
type refTerm struct {
	id  textproc.TermID
	qtf int
	df  float64 // collection df the weight is computed from
	w   float64
}

// search ranks the collection for req the way the textbooks state it:
// for every document, sum w(t,q)·w(t,d) over the query's distinct terms
// in ascending term order, normalize, sort. prior is the engine's
// per-document multiplier (nil for none). The returned stats are the
// flat scan's definition of the work: postings of the terms that carry
// weight, matching documents kept and rejected.
func (r *refIndex) search(scoring Scoring, prior []float64, req Request) ([]Result, ExecStats) {
	const k1, b = 1.2, 0.75
	g := req.Global
	n := float64(len(r.tf))
	avgdl := 0.0
	if len(r.tf) > 0 {
		avgdl = float64(r.total) / float64(len(r.tf))
	}
	if g != nil {
		n = float64(g.Docs)
		if g.Docs > 0 {
			avgdl = float64(g.TotalLen) / float64(g.Docs)
		}
	}

	// Distinct terms this collection's dictionary knows, ascending.
	byID := map[textproc.TermID]*refTerm{}
	for i, term := range req.Terms {
		id := r.vocab.ID(term)
		if id == textproc.InvalidTerm {
			continue
		}
		t := byID[id]
		if t == nil {
			t = &refTerm{id: id, df: float64(r.df[id])}
			if g != nil {
				t.df = float64(g.DF[i]) // a repeated term repeats its df
			}
			byID[id] = t
		}
		t.qtf++
	}
	terms := make([]*refTerm, 0, len(byID))
	for _, t := range byID {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].id < terms[j].id })

	qnorm := 1.0
	for _, t := range terms {
		switch {
		case t.df == 0:
		case scoring == BM25:
			t.w = math.Log(1 + (n-t.df+0.5)/(t.df+0.5))
		default:
			t.w = (1 + math.Log(float64(t.qtf))) * math.Log(1+n/t.df)
		}
	}
	if scoring == Cosine {
		sum := 0.0
		if g == nil {
			for _, t := range terms {
				sum += t.w * t.w
			}
		} else {
			// Under injected statistics the query norm covers the whole
			// bag as sent — terms only other shards hold included — in
			// first-occurrence order.
			seen := map[string]bool{}
			for i, term := range req.Terms {
				if seen[term] || g.DF[i] == 0 {
					continue
				}
				seen[term] = true
				qtf := 0
				for _, other := range req.Terms {
					if other == term {
						qtf++
					}
				}
				w := (1 + math.Log(float64(qtf))) * math.Log(1+n/float64(g.DF[i]))
				sum += w * w
			}
		}
		qnorm = math.Sqrt(sum)
	}
	var st ExecStats
	if len(terms) == 0 || qnorm == 0 || (scoring == BM25 && g != nil && g.Docs == 0) {
		return nil, st
	}
	for _, t := range terms {
		if t.w != 0 {
			st.Postings += r.df[t.id]
		}
	}

	var all []Result
	for d := range r.tf {
		raw, matched := 0.0, false
		for _, t := range terms {
			tf := float64(r.tf[d][t.id])
			if tf == 0 || t.w == 0 {
				continue
			}
			matched = true
			if scoring == BM25 {
				raw += t.w * (tf * (k1 + 1) / (tf + k1*(1-b+b*float64(r.dl[d])/avgdl)))
			} else {
				raw += t.w * (1 + math.Log(tf))
			}
		}
		if !matched {
			continue
		}
		if req.Keep != nil && !req.Keep(corpus.DocID(d)) {
			st.DocsFiltered++
			continue
		}
		st.DocsScored++
		s := raw
		if scoring == Cosine && r.norm[d] > 0 {
			s /= r.norm[d] * qnorm
		}
		if prior != nil {
			s *= prior[d]
		}
		all = append(all, Result{Doc: corpus.DocID(d), Score: s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Doc < all[j].Doc
	})
	if len(all) > req.K {
		all = all[:req.K]
	}
	return all, st
}

// sameHits compares two rankings document by document and score bit by
// score bit.
func sameHits(got, want []Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: doc %d score %016x, want doc %d score %016x",
				i, got[i].Doc, math.Float64bits(got[i].Score), want[i].Doc, math.Float64bits(want[i].Score))
		}
	}
	return nil
}

// TestEngineMatchesReferenceScorer holds both ways into the engine — a
// solo request and a cycle through SearchBatch — to the naive reference
// scorer, bit for bit. The solo flat scan and the shared
// traversal are one kernel, so comparing them with each other proves
// nothing about it; this does. Each collection is searched as one index
// (with and without a prior) and dealt out to three parts the way a live
// store holds it: reported IDs that are not the local ones, a tombstone
// or more in every part, documents of unequal length under equal local
// IDs.
func TestEngineMatchesReferenceScorer(t *testing.T) {
	ctx := context.Background()
	ks := []int{1, 10, 100}
	for trial := int64(0); trial < 3; trial++ {
		rng := rand.New(rand.NewSource(9300 + trial))
		c, gt, err := corpus.Synthesize(corpus.GenSpec{
			Seed:    510 + trial,
			NumDocs: 250 + int(trial)*230, NumTopics: 5,
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
		ref := newRefIndex(c)

		rawPrior := make([]float64, c.NumDocs())
		maxPrior := 0.0
		for d := range rawPrior {
			rawPrior[d] = rng.Float64()
			maxPrior = math.Max(maxPrior, rawPrior[d])
		}
		const priorWeight = 0.4
		scaledPrior := make([]float64, len(rawPrior))
		for d, p := range rawPrior {
			scaledPrior[d] = (1 - priorWeight) + priorWeight*p/maxPrior
		}
		dead := make([]bool, c.NumDocs())
		for d := range dead {
			dead[d] = rng.Float64() < 0.2
		}
		randomKeep := func(d corpus.DocID) bool { return !dead[d] }

		parts := splitParts(t, c, 3)
		tomb := make([]bool, c.NumDocs())
		tombRng := rand.New(rand.NewSource(9400 + trial))
		unequal := false
		for p := range parts {
			parts[p].Dead = make([]bool, len(parts[p].IDs))
			for local, d := range parts[p].IDs {
				parts[p].Dead[local] = local == 1 || tombRng.Float64() < 0.1
				tomb[d] = parts[p].Dead[local]
				unequal = unequal || parts[p].DocLen(corpus.DocID(local)) != parts[0].DocLen(corpus.DocID(local))
			}
		}
		if !unequal {
			t.Fatal("every part holds documents of the same lengths under the same local IDs")
		}

		queries := cycleQueries(gt, an, rng, 9)
		// A term no document of this collection holds (another shard's),
		// and a repeated one.
		queries[3] = append(queries[3], "zzzzothershardterm", queries[3][0])

		for _, scoring := range []Scoring{Cosine, BM25} {
			for _, over := range []string{"index", "index with prior", "three parts"} {
				eng, err := NewEngine(idx, an, scoring)
				var prior []float64
				switch over {
				case "index with prior":
					eng, err = NewEngineWithPrior(idx, an, scoring, rawPrior, priorWeight)
					prior = scaledPrior
				case "three parts":
					eng, err = NewEngineOver(partsSource{idx, parts}, an, scoring)
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, keep := range []func(corpus.DocID) bool{nil, randomKeep} {
					for globals := 0; globals <= 2; globals++ {
						name := fmt.Sprintf("trial %d %v over %s keep=%v globals=%d", trial, scoring, over, keep != nil, globals)
						reqs := make([]Request, len(queries))
						for i, q := range queries {
							reqs[i] = Request{Terms: q, K: ks[i%len(ks)], Keep: keep, Trace: true}
							switch {
							case globals == 1, globals == 2 && i%3 != 2:
								reqs[i].Global = globalFor(idx, q, 3, 131)
							case globals == 2:
								reqs[i].Global = globalFor(idx, q, 3, 977)
							}
						}
						batch, err := eng.SearchBatch(ctx, reqs)
						if err != nil {
							t.Fatal(err)
						}
						for i, req := range reqs {
							refReq := req
							if over == "three parts" {
								// To the reference a tombstone is a filter.
								refReq.Keep = func(d corpus.DocID) bool { return !tomb[d] && (keep == nil || keep(d)) }
							}
							want, wantStats := ref.search(scoring, prior, refReq)
							check := func(how string, resp Response) {
								t.Helper()
								if err := sameHits(resp.Hits, want); err != nil {
									t.Fatalf("%s member %d (k=%d) %s: %v", name, i, req.K, how, err)
								}
								// Every flat scan, alone or shared, counts the
								// same work.
								got := resp.Stats
								if got.Postings != wantStats.Postings || got.DocsScored != wantStats.DocsScored ||
									got.DocsFiltered != wantStats.DocsFiltered || got.DocsPruned != 0 {
									t.Errorf("%s member %d %s: stats %+v, reference %+v", name, i, how, got, wantStats)
								}
							}
							check("in the batch", batch[i])
							solo, err := eng.SearchRequest(ctx, req)
							if err != nil {
								t.Fatal(err)
							}
							check("alone", solo)
						}
					}
				}
			}
		}
	}
}
