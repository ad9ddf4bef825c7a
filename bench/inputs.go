package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"toppriv/internal/belief"
	"toppriv/internal/core"
	"toppriv/internal/corpus"
	"toppriv/internal/lda"
	"toppriv/internal/textproc"
)

// inputs are what the program under test receives: documents and
// queries. They are generated, never timed as set-up.
type inputs struct {
	an     *textproc.Analyzer
	corpus *corpus.Corpus
	// queries is the replay order; see makeInputs.
	queries []string
}

// queryPool is how many candidates corpus.Workload draws at a time when
// makeInputs fills its strata.
const queryPool = 2000

// makeInputs synthesizes the fixed corpus and the seed's query list.
//
// What a cycle costs follows from the query: its length, its topic (some
// topics take 6 ghosts to mask, some 13) and whether it straddles two
// topics (half the ghosts). A plain random draw of 600 queries moves the
// mean cycle length by 3% from seed to seed and every timing with it, so
// the list is stratified instead: at every length MinTerms..MaxTerms,
// PerTopic queries on every topic, every fifth of them on two topics
// (corpus.Workload's own share), which topics those are rotating with
// the length. Seeds then differ in words and in second topics, not in
// shape. The order is stratified too: every window of
// MaxTerms-MinTerms+1 consecutive queries holds one of every length, so
// a phase that ends mid-list saw the same mix as one that wrapped.
func makeInputs(sz sizes, seed int64) (*inputs, error) {
	an := textproc.NewAnalyzer()
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 1, NumDocs: sz.NumDocs, NumTopics: sz.NumTopics,
		WordsPerTopic: sz.WordsPerTopic, SharedWords: sz.SharedWords,
	}, an)
	if err != nil {
		return nil, fmt.Errorf("synthesize corpus: %w", err)
	}
	type stratum struct {
		topic    int
		twoTopic bool
	}
	nLen := sz.MaxTerms - sz.MinTerms + 1
	byLen := make([][]string, nLen)
	for i := range byLen {
		n := sz.MinTerms + i
		need := map[stratum]int{}
		for t := 0; t < sz.NumTopics; t++ {
			need[stratum{t, (t+n)%5 == 0}] = sz.PerTopic
		}
		for draw := int64(0); len(need) > 0; draw++ {
			if draw == 100 {
				return nil, fmt.Errorf("query workload: %d strata of length %d still empty after %d draws", len(need), n, draw)
			}
			qs, err := corpus.Workload(gt, corpus.WorkloadSpec{
				Seed: seed*100000 + draw*100 + int64(n), NumQueries: queryPool, MinTerms: n, MaxTerms: n,
			})
			if err != nil {
				return nil, fmt.Errorf("query workload: %w", err)
			}
			for _, q := range qs {
				s := stratum{q.TargetTopics[0], len(q.TargetTopics) == 2}
				if need[s] == 0 {
					continue
				}
				text := q.Text()
				if len(an.Analyze(text)) == 0 {
					continue
				}
				if need[s]--; need[s] == 0 {
					delete(need, s)
				}
				byLen[i] = append(byLen[i], text)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{an: an, corpus: c}
	for _, qs := range byLen {
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	}
	for round := 0; round < sz.NumTopics*sz.PerTopic; round++ {
		for _, i := range rng.Perm(nLen) {
			in.queries = append(in.queries, byLen[i][round])
		}
	}
	return in, nil
}

// clientOrder is client c's fixed replay order: the shared list,
// started at a different round so clients do not march in step.
func (in *inputs) clientOrder(c, clients int) []string {
	n := len(in.queries)
	off := (n / clients) * c
	out := make([]string, 0, n)
	out = append(out, in.queries[off:]...)
	return append(out, in.queries[:off]...)
}

// trainModel fits the LDA model on the representative sample and wraps
// it in the obfuscator. It is part of set-up: a deployment pays it
// before the first private query.
func trainModel(sz sizes, c *corpus.Corpus) (*core.Obfuscator, error) {
	sample, err := corpus.Sample(c, corpus.SampleSpec{
		DocFraction: float64(sz.LDASample) / float64(c.NumDocs()), Seed: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("sample corpus: %w", err)
	}
	m, err := lda.TrainParallel(sample, lda.TrainSpec{NumTopics: sz.LDATopics, Iterations: sz.LDAIters, Seed: 1}, 2)
	if err != nil {
		return nil, fmt.Errorf("train lda: %w", err)
	}
	// Model.TermID builds its lookup map on first use without a lock;
	// the clients share one model, so build it before they start.
	m.TermID("")
	inf, err := lda.NewInferencer(m, lda.InferSpec{})
	if err != nil {
		return nil, err
	}
	eng, err := belief.NewEngine(inf)
	if err != nil {
		return nil, err
	}
	return core.NewObfuscator(eng, core.Params{Eps1: sz.Eps1, Eps2: sz.Eps2})
}

// canonical is the query text the trusted client submits for a bag of
// terms: sorted and space-joined (search.Client.SubmitBatch).
func canonical(terms []string) string {
	sorted := append([]string{}, terms...)
	sort.Strings(sorted)
	return strings.Join(sorted, " ")
}

// plainDocs strips the generator's ground-truth mixtures: they are not
// part of a document a deployment would ingest, and would triple the
// ingest wire size.
func plainDocs(docs []corpus.Document) []corpus.Document {
	out := make([]corpus.Document, len(docs))
	for i, d := range docs {
		out[i] = corpus.Document{ID: d.ID, Title: d.Title, Text: d.Text}
	}
	return out
}
