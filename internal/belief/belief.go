// Package belief implements the topical belief framework of §IV-A/B:
// prior belief Pr(t) (Eq. 1, owned by the LDA model), posterior belief
// Pr(t|q) via LDA inference, boost in belief B(t|q) = Pr(t|q) − Pr(t),
// the cycle posterior Pr(t|C) = (1/υ) Σ_{q∈C} Pr(t|q) (Eq. 2), the user
// intention U (Definition 2), and the exposure / mask-level / rank
// metrics of §V-A.
//
// Thresholds ε1 and ε2 are expressed as fractions (0.05 = 5%).
package belief

import (
	"fmt"
	"math/rand"
	"sort"

	"toppriv/internal/lda"
)

// Engine computes topical beliefs over a trained LDA model. Both the
// TopPriv client and the simulated adversary use one — the paper's
// threat model explicitly grants the adversary the topic model.
type Engine struct {
	inf *lda.Inferencer
}

// NewEngine wraps an inferencer.
func NewEngine(inf *lda.Inferencer) (*Engine, error) {
	if inf == nil {
		return nil, fmt.Errorf("belief: nil inferencer")
	}
	return &Engine{inf: inf}, nil
}

// Model returns the underlying LDA model.
func (e *Engine) Model() *lda.Model { return e.inf.Model() }

// NumTopics returns τ.
func (e *Engine) NumTopics() int { return e.inf.Model().K }

// Prior returns Pr(t) for all topics (shared slice; do not modify).
func (e *Engine) Prior() []float64 { return e.inf.Model().Prior }

// Posterior returns Pr(t|q) for a single query given as analyzed terms.
func (e *Engine) Posterior(terms []string, rng *rand.Rand) []float64 {
	return e.inf.PosteriorTerms(terms, rng)
}

// PosteriorBag is Posterior for a query already held as model word IDs,
// which is how the obfuscator holds the ghosts it samples.
func (e *Engine) PosteriorBag(bag []int, rng *rand.Rand) []float64 {
	return e.inf.Posterior(bag, rng)
}

// Boost returns B(t|q) = Pr(t|q) − Pr(t) for a single query.
func (e *Engine) Boost(terms []string, rng *rand.Rand) []float64 {
	return BoostOf(e.Posterior(terms, rng), e.Prior())
}

// CyclePosterior returns Pr(t|C) per Eq. 2: each query in the cycle is
// inferred independently and the posteriors averaged with equal weight
// (the adversary cannot tell the queries apart, so Pr(q) = 1/υ).
func (e *Engine) CyclePosterior(cycle [][]string, rng *rand.Rand) []float64 {
	k := e.NumTopics()
	out := make([]float64, k)
	if len(cycle) == 0 {
		copy(out, e.Prior())
		return out
	}
	for _, q := range cycle {
		post := e.Posterior(q, rng)
		for t := 0; t < k; t++ {
			out[t] += post[t]
		}
	}
	inv := 1 / float64(len(cycle))
	for t := 0; t < k; t++ {
		out[t] *= inv
	}
	return out
}

// CycleBoost returns B(t|C) for a cycle of queries.
func (e *Engine) CycleBoost(cycle [][]string, rng *rand.Rand) []float64 {
	return BoostOf(e.CyclePosterior(cycle, rng), e.Prior())
}

// BoostOf subtracts the prior from a posterior elementwise.
func BoostOf(posterior, prior []float64) []float64 {
	out := make([]float64, len(posterior))
	for t := range posterior {
		out[t] = posterior[t] - prior[t]
	}
	return out
}

// Intention returns U = {t : B(t|q) > eps1} (Definition 2), sorted by
// descending boost.
func Intention(boost []float64, eps1 float64) []int {
	var u []int
	for t, b := range boost {
		if b > eps1 {
			u = append(u, t)
		}
	}
	sort.Slice(u, func(i, j int) bool { return boost[u[i]] > boost[u[j]] })
	return u
}

// Exposure is max{B(t|·) : t ∈ U} — how visible the intention remains.
// An empty U yields 0 (nothing to expose).
func Exposure(boost []float64, u []int) float64 {
	mx := 0.0
	for i, t := range u {
		if i == 0 || boost[t] > mx {
			mx = boost[t]
		}
	}
	return mx
}

// MaskLevel is max{B(t|·) : t ∉ U} — how prominent the decoy topics are.
func MaskLevel(boost []float64, u []int) float64 {
	inU := make(map[int]bool, len(u))
	for _, t := range u {
		inU[t] = true
	}
	mx := 0.0
	first := true
	for t, b := range boost {
		if inU[t] {
			continue
		}
		if first || b > mx {
			mx = b
			first = false
		}
	}
	return mx
}

// MaxRank returns the best (smallest, 1-based) rank attained by any
// topic of U when all topics are ordered by descending boost — the
// quantity of Figure 3(f). It returns 0 when U is empty.
func MaxRank(boost []float64, u []int) int {
	if len(u) == 0 {
		return 0
	}
	order := make([]int, len(boost))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if boost[order[a]] != boost[order[b]] {
			return boost[order[a]] > boost[order[b]]
		}
		return order[a] < order[b]
	})
	inU := make(map[int]bool, len(u))
	for _, t := range u {
		inU[t] = true
	}
	for rank, t := range order {
		if inU[t] {
			return rank + 1
		}
	}
	return 0
}

// Satisfies reports whether a cycle boost meets the (ε1, ε2) guarantee
// of Definition 4 for the intention u: B(t|C) ≤ eps2 for every t ∈ U.
func Satisfies(cycleBoost []float64, u []int, eps2 float64) bool {
	for _, t := range u {
		if cycleBoost[t] > eps2 {
			return false
		}
	}
	return true
}
