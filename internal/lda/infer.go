package lda

import (
	"fmt"
	"math/rand"
	"sync"
)

// InferSpec configures query-time topic inference.
type InferSpec struct {
	// Iterations is the number of fold-in Gibbs sweeps over the query
	// tokens. Zero means 40.
	Iterations int
	// Samples is how many trailing sweeps are averaged to estimate
	// Pr(t|q); zero means 10. Averaging reduces sampling noise, which
	// matters because TopPriv compares boosts against small thresholds.
	Samples int
}

func (s InferSpec) withDefaults() InferSpec {
	if s.Iterations == 0 {
		s.Iterations = 40
	}
	if s.Samples == 0 {
		s.Samples = 10
	}
	return s
}

// Inferencer estimates Pr(t|q) for unseen word bags by folding them in
// against the trained Φ (topic-word distributions held fixed). This is
// the LDA "inference mode" the paper invokes on queries: the user passes
// q alone to the model and reads back the topic posterior.
//
// An Inferencer is safe for concurrent use; each call gets its own
// sampling state, and randomness comes from the caller's *rand.Rand.
type Inferencer struct {
	m    *Model
	spec InferSpec
	// scratch recycles *foldScratch between calls.
	scratch sync.Pool
}

// foldScratch is one call's working memory.
type foldScratch struct {
	// f holds the bag's gathered Φ columns (len(bag)×K, token-major),
	// then the K topic counts, running sums and posterior accumulators.
	f      []float64
	assign []int32
}

// NewInferencer creates an inferencer over a trained model.
func NewInferencer(m *Model, spec InferSpec) (*Inferencer, error) {
	if m == nil {
		return nil, fmt.Errorf("lda: nil model")
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	if spec.Iterations < 0 || spec.Samples < 0 {
		return nil, fmt.Errorf("lda: InferSpec{Iterations: %d, Samples: %d}, need both >= 0 (0 means the default)", spec.Iterations, spec.Samples)
	}
	return &Inferencer{m: m, spec: spec.withDefaults()}, nil
}

// Model returns the underlying model.
func (inf *Inferencer) Model() *Model { return inf.m }

// Posterior estimates Pr(t|·) for a bag of model word IDs. An empty bag
// (e.g. a query whose terms are all out of vocabulary) returns the
// model prior, which is the correct Bayesian answer absent evidence.
// The caller provides the RNG so experiments stay deterministic.
//
// Every sweep needs Φ[t][w] for all K topics of every token: K cache
// lines apart in Φ. They are gathered once per call into a contiguous
// column per token, which every sweep then reads in order.
func (inf *Inferencer) Posterior(bag []int, rng *rand.Rand) []float64 {
	m := inf.m
	k := m.K
	out := make([]float64, k)
	if len(bag) == 0 {
		copy(out, m.Prior)
		return out
	}
	alpha := m.Alpha
	kalpha := float64(k) * alpha

	sc, _ := inf.scratch.Get().(*foldScratch)
	if sc == nil {
		sc = new(foldScratch)
	}
	if need := (len(bag) + 3) * k; cap(sc.f) < need {
		sc.f = make([]float64, need)
	}
	if cap(sc.assign) < len(bag) {
		sc.assign = make([]int32, len(bag))
	}
	cols := sc.f[:len(bag)*k]
	rest := sc.f[len(bag)*k : (len(bag)+3)*k]
	counts, cum, accum := rest[:k:k], rest[k:2*k:2*k], rest[2*k:]
	assign := sc.assign[:len(bag)]
	for t := range counts {
		counts[t], accum[t] = 0, 0
	}
	for t, row := range m.Phi {
		for i, w := range bag {
			cols[i*k+t] = row[w]
		}
	}

	// pick draws a topic in proportion to the weights whose running
	// sums are in cum.
	pick := func() int32 {
		return int32(firstAbove(cum, rng.Float64()*cum[k-1]))
	}

	for i := range bag {
		// Initialize each token at its most compatible topic mixture by
		// sampling from Φ(·|w) ∝ Phi[t][w]; faster mixing than uniform.
		total := 0.0
		for t, phi := range cols[i*k : (i+1)*k] {
			total += phi
			cum[t] = total
		}
		t := pick()
		assign[i] = t
		counts[t]++
	}

	sampleStart := inf.spec.Iterations - inf.spec.Samples
	if sampleStart < 0 {
		sampleStart = 0
	}
	samplesTaken := 0
	for sweep := 0; sweep < inf.spec.Iterations; sweep++ {
		for i := range bag {
			counts[assign[i]]--
			total := 0.0
			for t, phi := range cols[i*k : (i+1)*k] {
				// The conversion rounds the product before it is added,
				// on every architecture: a fused multiply-add would
				// change which topic a draw lands on.
				total += float64(phi * (counts[t] + alpha))
				cum[t] = total
			}
			nu := pick()
			assign[i] = nu
			counts[nu]++
		}
		if sweep >= sampleStart {
			denom := float64(len(bag)) + kalpha
			for t := 0; t < k; t++ {
				accum[t] += (counts[t] + alpha) / denom
			}
			samplesTaken++
		}
	}
	for t := 0; t < k; t++ {
		out[t] = accum[t] / float64(samplesTaken)
	}
	inf.scratch.Put(sc)
	return out
}

// PosteriorTerms is Posterior over raw surface terms.
func (inf *Inferencer) PosteriorTerms(terms []string, rng *rand.Rand) []float64 {
	return inf.Posterior(inf.m.BagFromTerms(terms), rng)
}
