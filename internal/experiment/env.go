// Package experiment is the evaluation harness: it reconstructs the
// paper's laboratory (corpus, workload, a grid of LDA models) and
// regenerates every table and figure of §V. README's "Experiments and
// benchmarks" says how to run it, and PAPER.md's "What this repository
// reproduces" where its results depart from the paper's.
package experiment

import (
	"fmt"
	"sort"
	"sync"

	"toppriv/internal/belief"
	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/lda"
	"toppriv/internal/textproc"
)

// EnvSpec sizes the laboratory. The defaults reproduce the paper's
// setup at laptop scale: the WSJ corpus becomes a 2,000-document
// synthetic corpus over the full 24-theme catalogue, the TREC-1/2
// queries become 150 topical queries of 2–20 terms, and the LDA model
// grid LDA050…LDA300 (0.25×–1.5× of the corpus topic count) becomes
// LDA008…LDA048 around the 32-topic ground truth.
type EnvSpec struct {
	// Seed drives corpus, workload and training seeds (offset
	// internally so the streams differ).
	Seed int64
	// NumDocs is the corpus size. Default 2000.
	NumDocs int
	// NumTopics is the ground-truth topic count. Default 32 (the whole
	// 24-theme catalogue plus synthesized topics).
	NumTopics int
	// Ks is the LDA model grid. Default {8, 16, 24, 32, 40, 48} —
	// 0.25x to 1.5x of the ground truth, mirroring the paper's
	// LDA050…LDA300 around its ~200-topic default.
	Ks []int
	// NumQueries is the workload size. Default 150.
	NumQueries int
	// TrainIters is the Gibbs sweep count per model. Default 120.
	TrainIters int
}

func (s EnvSpec) withDefaults() EnvSpec {
	if s.NumDocs == 0 {
		s.NumDocs = 2000
	}
	if s.NumTopics == 0 {
		s.NumTopics = 32
	}
	if len(s.Ks) == 0 {
		s.Ks = []int{8, 16, 24, 32, 40, 48}
	}
	if s.NumQueries == 0 {
		s.NumQueries = 150
	}
	if s.TrainIters == 0 {
		s.TrainIters = 120
	}
	return s
}

// Env is a fully-built laboratory: one corpus + workload, and one LDA
// model / belief engine per grid point. Build it once, run many
// experiments against it.
type Env struct {
	Spec    EnvSpec
	Corpus  *corpus.Corpus
	GT      *corpus.GroundTruth
	Index   *index.Index
	Queries []corpus.QuerySpec
	An      *textproc.Analyzer
	// Models and Engines are keyed by K, in Spec.Ks order.
	Models  map[int]*lda.Model
	Engines map[int]*belief.Engine
}

// ModelName formats a grid point like the paper's model names
// ("LDA008" … "LDA048").
func ModelName(k int) string { return fmt.Sprintf("LDA%03d", k) }

// NewEnv synthesizes the corpus and workload and trains every model in
// the grid (in parallel — the models are independent).
func NewEnv(spec EnvSpec) (*Env, error) {
	spec = spec.withDefaults()
	an := textproc.NewAnalyzer()
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed:      spec.Seed,
		NumDocs:   spec.NumDocs,
		NumTopics: spec.NumTopics,
	}, an)
	if err != nil {
		return nil, fmt.Errorf("experiment: corpus: %w", err)
	}
	idx, err := index.Build(c)
	if err != nil {
		return nil, fmt.Errorf("experiment: index: %w", err)
	}
	queries, err := corpus.Workload(gt, corpus.WorkloadSpec{
		Seed:       spec.Seed + 1,
		NumQueries: spec.NumQueries,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: workload: %w", err)
	}

	env := &Env{
		Spec:    spec,
		Corpus:  c,
		GT:      gt,
		Index:   idx,
		Queries: queries,
		An:      an,
		Models:  make(map[int]*lda.Model, len(spec.Ks)),
		Engines: make(map[int]*belief.Engine, len(spec.Ks)),
	}

	type trained struct {
		k   int
		m   *lda.Model
		err error
	}
	results := make(chan trained, len(spec.Ks))
	var wg sync.WaitGroup
	for _, k := range spec.Ks {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			m, _, err := lda.Train(c, lda.TrainSpec{
				NumTopics:  k,
				Iterations: spec.TrainIters,
				Seed:       spec.Seed + int64(k),
			})
			results <- trained{k: k, m: m, err: err}
		}(k)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("experiment: train K=%d: %w", r.k, r.err)
		}
		env.Models[r.k] = r.m
		inf, err := lda.NewInferencer(r.m, lda.InferSpec{})
		if err != nil {
			return nil, fmt.Errorf("experiment: inferencer K=%d: %w", r.k, err)
		}
		eng, err := belief.NewEngine(inf)
		if err != nil {
			return nil, fmt.Errorf("experiment: engine K=%d: %w", r.k, err)
		}
		env.Engines[r.k] = eng
	}
	return env, nil
}

// AnalyzedQueries returns the workload with each query's raw terms
// passed through the analyzer (the form the engine and models consume).
// Queries that lose every term are dropped.
func (e *Env) AnalyzedQueries() [][]string {
	out := make([][]string, 0, len(e.Queries))
	for _, q := range e.Queries {
		var terms []string
		for _, w := range q.Terms {
			if term, ok := e.An.AnalyzeTerm(w); ok {
				terms = append(terms, term)
			}
		}
		if len(terms) > 0 {
			out = append(out, terms)
		}
	}
	return out
}

// SortedKs returns the model grid in ascending order.
func (e *Env) SortedKs() []int {
	ks := append([]int{}, e.Spec.Ks...)
	sort.Ints(ks)
	return ks
}
