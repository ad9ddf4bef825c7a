package lda

import (
	"fmt"
	"slices"
	"sync"
)

// InferSpec configures query-time topic inference.
type InferSpec struct {
	// Iterations is the number of fold-in passes over the query tokens.
	// Zero means 3. Each pass moves the estimate about 40 times closer
	// to the fixed point: on the benchmark's model, three passes end
	// within 1e-5 of it on every topic of 120 queries, while the fixed
	// point itself is up to 6e-4 from the posterior mean a 20 000-sweep
	// Gibbs chain estimates. TestPosteriorAccuracyAgainstLongChain
	// holds the default to that chain.
	Iterations int
}

func (s InferSpec) withDefaults() InferSpec {
	if s.Iterations == 0 {
		s.Iterations = 3
	}
	return s
}

// Inferencer estimates Pr(t|q) for unseen word bags by folding them in
// against the trained Φ (topic-word distributions held fixed). This is
// the LDA "inference mode" the paper invokes on queries: the user passes
// q alone to the model and reads back the topic posterior.
//
// The fold-in is CVB0, the zero-order collapsed variational fixed point
// (Asuncion, Welling, Smyth and Teh, "On Smoothing and Inference for
// Topic Models", UAI 2009): each token carries a distribution γ_i over
// topics instead of one sampled topic, and a pass replaces each γ_i by
// Φ[·][w_i]·(N_¬i + α), normalized, where N_¬i sums the other tokens'
// γ. It draws nothing, and it visits the tokens in ascending word-ID
// order, so a bag's posterior depends on the bag alone — not on the
// order of its words, not on any RNG — and the client, the server and
// an adversary holding the same model compute the same belief bit for
// bit.
//
// An Inferencer is safe for concurrent use; each call gets its own
// working memory.
type Inferencer struct {
	m    *Model
	spec InferSpec
	// scratch recycles *foldScratch between calls.
	scratch sync.Pool
}

// foldScratch is one call's working memory.
type foldScratch struct {
	// f holds the bag's gathered Φ columns and its responsibilities
	// (each len(bag)×K, token-major), then the K expected topic counts.
	f []float64
	// words is the bag in ascending word-ID order.
	words []int32
}

// NewInferencer creates an inferencer over a trained model.
func NewInferencer(m *Model, spec InferSpec) (*Inferencer, error) {
	if m == nil {
		return nil, fmt.Errorf("lda: nil model")
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	if spec.Iterations < 0 {
		return nil, fmt.Errorf("lda: InferSpec{Iterations: %d}, need >= 0 (0 means the default)", spec.Iterations)
	}
	return &Inferencer{m: m, spec: spec.withDefaults()}, nil
}

// Model returns the underlying model.
func (inf *Inferencer) Model() *Model { return inf.m }

// Posterior estimates Pr(t|·) for a bag of model word IDs. An empty bag
// (e.g. a query whose terms are all out of vocabulary) returns the
// model prior, which is the correct Bayesian answer absent evidence.
//
// Each token's responsibilities γ_i start ∝ Φ[·][w_i]; each of
// Iterations passes then updates every token in turn against the
// expected counts N_t = Σ_i γ_it, and the estimate is
// (N_t + α) / (n + Kα). Every pass needs Φ[t][w] for all K topics of
// every token: K cache lines apart in Φ. They are gathered once per
// call into a contiguous column per token, each entry widened from
// float32 to float64, which every pass then reads in order; all the
// arithmetic is float64.
func (inf *Inferencer) Posterior(bag []int) []float64 {
	m := inf.m
	k := m.K
	out := make([]float64, k)
	if len(bag) == 0 {
		copy(out, m.Prior)
		return out
	}
	alpha := m.Alpha
	n := len(bag)

	sc, _ := inf.scratch.Get().(*foldScratch)
	if sc == nil {
		sc = new(foldScratch)
	}
	if need := (2*n + 1) * k; cap(sc.f) < need {
		sc.f = make([]float64, need)
	}
	if cap(sc.words) < n {
		sc.words = make([]int32, n)
	}
	words := sc.words[:n]
	for i, w := range bag {
		words[i] = int32(w)
	}
	slices.Sort(words)
	cols, gamma, counts := sc.f[:n*k], sc.f[n*k:2*n*k], sc.f[2*n*k:(2*n+1)*k]
	clear(counts)
	for t, row := range m.Phi {
		for i, w := range words {
			cols[i*k+t] = float64(row[w])
		}
	}

	for i := range words {
		col, g := cols[i*k:(i+1)*k], gamma[i*k:(i+1)*k]
		total := 0.0
		for _, phi := range col {
			total += phi
		}
		inv := 1 / total
		for t, phi := range col {
			g[t] = float64(phi * inv)
			counts[t] += g[t]
		}
	}
	for pass := 0; pass < inf.spec.Iterations; pass++ {
		for i := range words {
			col, g := cols[i*k:(i+1)*k], gamma[i*k:(i+1)*k]
			total := 0.0
			for t, phi := range col {
				counts[t] -= g[t]
				// The conversion rounds the product before it is added,
				// on every architecture: a fused multiply-add would
				// change the bits, and the posterior is compared bit for
				// bit.
				p := float64(phi * (counts[t] + alpha))
				g[t] = p
				total += p
			}
			inv := 1 / total
			for t := range g {
				g[t] = float64(g[t] * inv)
				counts[t] += g[t]
			}
		}
	}
	denom := float64(n) + float64(float64(k)*alpha)
	for t := range out {
		out[t] = (counts[t] + alpha) / denom
	}
	inf.scratch.Put(sc)
	return out
}

// PosteriorTerms is Posterior over raw surface terms.
func (inf *Inferencer) PosteriorTerms(terms []string) []float64 {
	return inf.Posterior(inf.m.BagFromTerms(terms))
}
