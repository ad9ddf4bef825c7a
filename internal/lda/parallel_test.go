package lda

import (
	"math"
	"testing"

	"toppriv/internal/corpus"
)

func TestTrainParallelDelegatesAtOneWorker(t *testing.T) {
	c, _, err := corpus.Synthesize(corpus.GenSpec{Seed: 201, NumDocs: 100, NumTopics: 4, DocLenMin: 30, DocLenMax: 50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := Train(c, TrainSpec{NumTopics: 4, Iterations: 30, Seed: 201})
	if err != nil {
		t.Fatal(err)
	}
	par, err := TrainParallel(c, TrainSpec{NumTopics: 4, Iterations: 30, Seed: 201}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < seq.K; tt++ {
		for w := 0; w < seq.V; w++ {
			if seq.Phi(tt, w) != par.Phi(tt, w) {
				t.Fatal("workers=1 must be the exact sequential sampler")
			}
		}
	}
}

func TestTrainParallelValidation(t *testing.T) {
	if _, err := TrainParallel(nil, TrainSpec{NumTopics: 4}, 4); err == nil {
		t.Error("nil corpus must error")
	}
	c, _, _ := corpus.Synthesize(corpus.GenSpec{Seed: 1, NumDocs: 10, NumTopics: 3, DocLenMin: 10, DocLenMax: 20}, nil)
	if _, err := TrainParallel(c, TrainSpec{NumTopics: 1}, 4); err == nil {
		t.Error("K=1 must error")
	}
	for _, spec := range badTrainSpecs() {
		if _, err := TrainParallel(c, spec, 2); err == nil {
			t.Errorf("%+v must error", spec)
		}
	}
}

func TestTrainParallelQuality(t *testing.T) {
	// AD-LDA is approximate but must converge to a comparable model:
	// distributions valid, and the fitted topics must separate the
	// ground-truth themes about as well as sequential training.
	spec := corpus.GenSpec{Seed: 203, NumDocs: 300, NumTopics: 6, DocLenMin: 50, DocLenMax: 90}
	c, gt, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainParallel(c, TrainSpec{NumTopics: 6, Iterations: 80, Seed: 203}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < m.K; tt++ {
		sum := 0.0
		for w := 0; w < m.V; w++ {
			p := float64(m.Phi(tt, w))
			if p < 0 || math.IsNaN(p) {
				t.Fatalf("invalid Phi[%d]", tt)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("Phi[%d] sums to %v", tt, sum)
		}
	}
	sum := 0.0
	for _, p := range m.Prior {
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("Prior sums to %v", sum)
	}
	// Topic recovery: same criterion as the sequential test.
	matched := 0
	an := testAnalyzer()
	for g := 0; g < len(gt.TopicWords); g++ {
		seeds := map[string]bool{}
		for _, w := range gt.TopicWords[g][:15] {
			if term, ok := an.AnalyzeTerm(w); ok {
				seeds[term] = true
			}
		}
		best := 0
		for tt := 0; tt < m.K; tt++ {
			hits := 0
			for _, tw := range m.TopWords(tt, 15) {
				if seeds[tw.Term] {
					hits++
				}
			}
			if hits > best {
				best = hits
			}
		}
		if best >= 6 {
			matched++
		}
	}
	if matched < 4 {
		t.Errorf("parallel training recovered only %d/6 topics", matched)
	}
	// The parallel model must drive inference sensibly: a focused query
	// boosts some topic.
	inf, err := NewInferencer(m, InferSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var terms []string
	for _, w := range gt.TopicWords[0][:16] {
		if term, ok := an.AnalyzeTerm(w); ok {
			terms = append(terms, term)
		}
	}
	post := inf.PosteriorTerms(terms)
	maxBoost := 0.0
	for tt := range post {
		if b := post[tt] - m.Prior[tt]; b > maxBoost {
			maxBoost = b
		}
	}
	if maxBoost < 0.05 {
		t.Errorf("parallel model inference too weak: max boost %v", maxBoost)
	}
}

func TestTrainParallelMassConservation(t *testing.T) {
	// After all sweeps, total topic assignments must still equal the
	// token count (no lost/duplicated counts across the merge barrier).
	spec := corpus.GenSpec{Seed: 205, NumDocs: 120, NumTopics: 5, DocLenMin: 30, DocLenMax: 60}
	c, _, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// TrainParallel's final sample: Phi rows summing to 1 and Theta rows
	// summing to 1 already depend on count consistency; verify Theta too.
	_, g, _, err := train(c, TrainSpec{NumTopics: 5, Iterations: 25, Seed: 205}, 3)
	if err != nil {
		t.Fatal(err)
	}
	theta := g.theta()
	for d := 0; d < len(theta); d++ {
		sum := 0.0
		for _, p := range theta[d] {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Theta[%d] sums to %v — counts corrupted in merge", d, sum)
		}
	}
}
