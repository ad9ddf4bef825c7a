package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"toppriv/internal/corpus"
	"toppriv/internal/search"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// reference is a from-scratch single index over a set of documents,
// the oracle clustered answers are compared with. gids[i] is the
// global ID of reference document i, ascending, so that ties break the
// same way on both sides.
type reference struct {
	eng  *vsm.Engine
	gids []corpus.DocID
}

func buildReference(docs map[corpus.DocID]corpus.Document, an *textproc.Analyzer, scoring vsm.Scoring) (*reference, error) {
	ref := &reference{gids: make([]corpus.DocID, 0, len(docs))}
	for gid := range docs {
		ref.gids = append(ref.gids, gid)
	}
	sort.Slice(ref.gids, func(i, j int) bool { return ref.gids[i] < ref.gids[j] })
	ordered := make([]corpus.Document, len(ref.gids))
	for i, gid := range ref.gids {
		d := docs[gid]
		ordered[i] = corpus.Document{Title: d.Title, Text: d.Text}
	}
	// No pruning: a live store indexes every term it is given.
	c, err := corpus.Build(ordered, an, textproc.PruneSpec{})
	if err != nil {
		return nil, fmt.Errorf("reference corpus: %w", err)
	}
	ref.eng, err = buildEngine(c, an, scoring)
	return ref, err
}

// search answers query with global IDs.
func (ref *reference) search(ctx context.Context, query string, k int) ([]vsm.Result, error) {
	resp, err := ref.eng.SearchRequest(ctx, vsm.Request{Query: query, K: k})
	if err != nil {
		return nil, err
	}
	for i := range resp.Hits {
		resp.Hits[i].Doc = ref.gids[resp.Hits[i].Doc]
	}
	return resp.Hits, nil
}

// scoreTol is the agreement required between a clustered score and the
// rebuild's: summation order differs across shards, nothing else may.
const scoreTol = 1e-9

func closeScores(a, b float64) bool {
	return math.Abs(a-b) <= scoreTol*math.Max(1, math.Abs(b))
}

// sameRanking compares got with the oracle's want. With tol false the
// two must be identical; with tol true scores may differ by scoreTol,
// and two documents may swap places only where their scores tie within
// it.
func sameRanking(got []search.SearchHit, want []vsm.Result, tol bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if !tol {
			if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
				return fmt.Errorf("hit %d is doc %d score %v, oracle has doc %d score %v", i, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score)
			}
			continue
		}
		if !closeScores(got[i].Score, want[i].Score) {
			return fmt.Errorf("hit %d scores %v, oracle %v", i, got[i].Score, want[i].Score)
		}
		if got[i].Doc != want[i].Doc {
			tied := (i > 0 && closeScores(want[i-1].Score, want[i].Score)) ||
				(i+1 < len(want) && closeScores(want[i+1].Score, want[i].Score)) ||
				i+1 == len(want)
			if !tied {
				return fmt.Errorf("hit %d is doc %d, oracle has doc %d (score %v, no tie)", i, got[i].Doc, want[i].Doc, want[i].Score)
			}
		}
	}
	return nil
}

// checkAgainstOracle compares the first answer every client kept for
// every query with the oracle: the engine itself, called directly, for
// single-node stacks; a from-scratch rebuild for clustered ones.
func checkAgainstOracle(st *stack, clients []*loadClient, in *inputs, sz sizes, res *result) error {
	ctx := context.Background()
	oracle := func(query string) ([]vsm.Result, error) {
		resp, err := st.engine.SearchRequest(ctx, vsm.Request{Query: query, K: sz.K})
		return resp.Hits, err
	}
	if st.rig != nil {
		docs := make(map[corpus.DocID]corpus.Document, len(st.docs))
		for i, d := range st.docs {
			docs[corpus.DocID(i)] = d
		}
		ref, err := buildReference(docs, in.an, st.w.Scoring)
		if err != nil {
			return err
		}
		oracle = func(query string) ([]vsm.Result, error) { return ref.search(ctx, query, sz.K) }
	}
	want := map[string][]vsm.Result{}
	checked, bad := 0, 0
	for _, lc := range clients {
		for q, hits := range lc.first {
			w, ok := want[q]
			if !ok {
				var err error
				w, err = oracle(canonical(in.an.Analyze(q)))
				if err != nil {
					return err
				}
				want[q] = w
			}
			checked++
			if err := sameRanking(hits, w, st.rig != nil); err != nil {
				bad++
				if bad == 1 {
					res.Notes = append(res.Notes, fmt.Sprintf("query %q: %v", q, err))
				}
			}
		}
	}
	res.Attempted += checked
	res.fail(bad, "%d of %d distinct answers disagree with the oracle", bad, checked)
	res.diag("oracle_checks", "count", float64(checked), 0)
	return nil
}

// checkSurvivors requires a cluster's document count, a sample of
// titles and a sample of rankings to match a from-scratch rebuild over
// survivors, the documents (by gid) its acknowledged mutations leave.
func checkSurvivors(rig *clusterRig, survivors map[corpus.DocID]corpus.Document, in *inputs, sz sizes, seed int64, res *result) error {
	r := rig.router
	res.Attempted++
	if n := r.ComputeStats().NumDocs; n != len(survivors) {
		res.fail(1, "cluster holds %d documents, %d survive the acknowledged mutations", n, len(survivors))
	}

	// Titles: a seeded sample of the gids ever assigned, dead ones too.
	rng := rand.New(rand.NewSource(seed ^ 0x7171))
	maxGid := 0
	for gid := range survivors {
		maxGid = max(maxGid, int(gid)+1)
	}
	badTitles := 0
	for i := 0; i < sz.SurvivorTitles; i++ {
		gid := corpus.DocID(rng.Intn(maxGid))
		doc, ok := r.Doc(gid)
		want, alive := survivors[gid]
		if ok != alive || (ok && doc.Title != want.Title) {
			badTitles++
		}
	}
	res.Attempted += sz.SurvivorTitles
	res.fail(badTitles, "%d of %d sampled gids resolve wrongly", badTitles, sz.SurvivorTitles)

	ref, err := buildReference(survivors, in.an, rig.scoring)
	if err != nil {
		return err
	}
	ctx := context.Background()
	badRank := 0
	for i := 0; i < sz.SurvivorQueries; i++ {
		q := canonical(in.an.Analyze(in.queries[rng.Intn(len(in.queries))]))
		resp, err := r.SearchRequest(ctx, vsm.Request{Query: q, K: sz.K})
		if err != nil {
			return err
		}
		want, err := ref.search(ctx, q, sz.K)
		if err != nil {
			return err
		}
		got := make([]search.SearchHit, len(resp.Hits))
		for j, h := range resp.Hits {
			got[j] = search.SearchHit{Doc: h.Doc, Score: h.Score}
		}
		if resp.Degraded {
			badRank++
		} else if err := sameRanking(got, want, true); err != nil {
			badRank++
			if badRank == 1 {
				res.Notes = append(res.Notes, fmt.Sprintf("query %q: %v", q, err))
			}
		}
	}
	res.Attempted += sz.SurvivorQueries
	res.fail(badRank, "%d of %d rankings differ from a rebuild over the survivors", badRank, sz.SurvivorQueries)
	res.diag("survivor_docs", "count", float64(len(survivors)), 0)
	return nil
}
