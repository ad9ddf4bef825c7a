// Package core implements TopPriv — the paper's contribution: the
// (ε1, ε2)-privacy parameters and the topic-cognizant ghost-query
// generation algorithm of §IV-C. Given a user query, the Obfuscator
// determines the user intention U (topics whose boost in belief exceeds
// ε1), then injects ghost queries composed of semantically coherent
// words from masking topics until every topic of U is suppressed below
// ε2 in the cycle posterior, backtracking past masking topics that fail
// to help (the set X).
package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"toppriv/internal/belief"
)

// Params are the user-chosen privacy settings. The thresholds are the
// secret values ε1 and ε2 of the privacy model; they never leave the
// client.
type Params struct {
	// Eps1 is the relevance threshold: topics with boost > Eps1 are the
	// user intention (Definition 1/2). Paper default 5%.
	Eps1 float64
	// Eps2 is the exposure threshold the cycle must reach (Definition 4).
	// Must satisfy Eps2 <= Eps1. Paper default 1%.
	Eps2 float64
	// MinLenMult and MaxLenMult bound each ghost query's length as
	// multiples of |q_u| (Step 3a). Defaults 0.8 and 1.5.
	MinLenMult, MaxLenMult float64
	// MaxCycle caps the total number of queries in a cycle as a safety
	// valve. Zero means no cap beyond the algorithm's natural |T\U|
	// bound.
	MaxCycle int

	// UniformWords disables the Step 3(b) bias toward high-probability
	// words of the masking topic, sampling uniformly from the whole
	// vocabulary instead. Ablation only: it makes ghosts incoherent
	// (TrackMeNot-style).
	UniformWords bool
	// NoBacktrack disables the Step 3(c) ineffective-topic test: every
	// tentative ghost is kept. Ablation only.
	NoBacktrack bool
	// FixedGhostLen, when > 0, overrides the length multiples with a
	// constant ghost length. Ablation only.
	FixedGhostLen int
	// MimicProfile switches ghost-word sampling to depth-profile
	// mimicry: ghost words are drawn from the masking topic's ranked
	// vocabulary at the same depths as the genuine terms, closing the
	// feature gap a learned distinguisher exploits (see
	// internal/core/mimic.go). Extension beyond the paper; off by
	// default.
	MimicProfile bool
}

// DefaultParams returns the paper's default settings: ε1 = 5%, ε2 = 1%.
func DefaultParams() Params {
	return Params{Eps1: 0.05, Eps2: 0.01, MinLenMult: 0.8, MaxLenMult: 1.5}
}

func (p Params) withDefaults() Params {
	if p.MinLenMult == 0 {
		p.MinLenMult = 0.8
	}
	if p.MaxLenMult == 0 {
		p.MaxLenMult = 1.5
	}
	return p
}

// Validate checks the threshold discipline of the model (ε1 ≥ ε2 > 0).
func (p Params) Validate() error {
	if p.Eps1 <= 0 || p.Eps1 >= 1 {
		return fmt.Errorf("core: Eps1 = %v, need (0,1)", p.Eps1)
	}
	if p.Eps2 <= 0 || p.Eps2 > p.Eps1 {
		return fmt.Errorf("core: Eps2 = %v, need 0 < Eps2 <= Eps1 = %v", p.Eps2, p.Eps1)
	}
	if p.MinLenMult < 0 || (p.MaxLenMult != 0 && p.MaxLenMult < p.MinLenMult) {
		return fmt.Errorf("core: bad length multiples [%v, %v]", p.MinLenMult, p.MaxLenMult)
	}
	return nil
}

// Cycle is the output of one obfuscation: the user query mixed among
// ghost queries (shuffled, Step 4), plus the diagnostics experiments
// need. Only Queries is ever sent to the search engine; the rest stays
// client-side.
type Cycle struct {
	// Queries is the shuffled cycle C = {q1, …, q_υ}, each a bag of
	// analyzed terms.
	Queries [][]string
	// UserIndex locates the genuine query within Queries.
	UserIndex int
	// Intention is U, the relevant topics of the user query at ε1,
	// sorted by descending boost.
	Intention []int
	// MaskingTopics are the topics whose ghosts were accepted (Tm).
	MaskingTopics []int
	// RejectedTopics are the topics found ineffective (X).
	RejectedTopics []int
	// Boost is B(t|C) for every topic under the final cycle.
	Boost []float64
	// Exposure is max{B(t|C) : t ∈ U}; Mask is max over T\U.
	Exposure, Mask float64
	// Satisfied reports whether Exposure ≤ ε2 was reached.
	Satisfied bool
	// GenTime is the wall-clock cost of generating the cycle (the
	// client-side overhead of Figures 2d/3d).
	GenTime time.Duration
}

// Len returns υ, the cycle length.
func (c *Cycle) Len() int { return len(c.Queries) }

// UserQuery returns the genuine query's terms.
func (c *Cycle) UserQuery() []string { return c.Queries[c.UserIndex] }

// Obfuscator generates (ε1, ε2)-private query cycles over a belief
// engine. It is safe for concurrent use; all mutable state is local to
// each Obfuscate call and randomness comes from the caller's RNG.
type Obfuscator struct {
	eng    *belief.Engine
	params Params

	// mimic sampling caches (lazily built, see mimic.go).
	mimicOnce  sync.Once
	mimicCache *mimicState
}

// NewObfuscator validates params and builds an obfuscator.
func NewObfuscator(eng *belief.Engine, params Params) (*Obfuscator, error) {
	if eng == nil {
		return nil, fmt.Errorf("core: nil belief engine")
	}
	params = params.withDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Obfuscator{eng: eng, params: params}, nil
}

// Params returns the obfuscator's settings.
func (o *Obfuscator) Params() Params { return o.params }

// Engine returns the underlying belief engine.
func (o *Obfuscator) Engine() *belief.Engine { return o.eng }

// Obfuscate runs the §IV-C algorithm on an analyzed user query and
// returns the cycle to submit. The caller's RNG drives every random
// choice, so identical inputs and seeds reproduce identical cycles.
func (o *Obfuscator) Obfuscate(userTerms []string, rng *rand.Rand) (*Cycle, error) {
	return o.ObfuscateSticky(userTerms, nil, rng)
}

// ObfuscateSticky is Obfuscate with a masking-topic preference: topics
// in prefer are tried first (in random order) when choosing masking
// topics. A Session uses it to keep one user's decoy profile stable
// across queries, which blunts cross-cycle intersection analysis (see
// adversary.IntersectionAttack).
func (o *Obfuscator) ObfuscateSticky(userTerms []string, prefer []int, rng *rand.Rand) (*Cycle, error) {
	if len(userTerms) == 0 {
		return nil, fmt.Errorf("core: empty user query")
	}
	start := time.Now()
	m := o.eng.Model()
	prior := o.eng.Prior()
	k := m.K

	// Step 1: infer Pr(t|q_u) and derive U.
	userPost := o.eng.Posterior(userTerms, rng)
	userBoost := belief.BoostOf(userPost, prior)
	u := belief.Intention(userBoost, o.params.Eps1)
	inU := make([]bool, k)
	for _, t := range u {
		inU[t] = true
	}

	// Step 2: initialize. postSum accumulates Σ Pr(t|q) over the cycle so
	// the Eq. 2 cycle posterior is (postSum / υ) without re-inference.
	postSum := make([]float64, k)
	copy(postSum, userPost)
	queries := [][]string{userTerms}
	var maskTopics, rejected []int
	inTm := make([]bool, k)
	inX := make([]bool, k)

	exposure := func(sum []float64, n int) float64 {
		mx := 0.0
		for i, t := range u {
			b := sum[t]/float64(n) - prior[t]
			if i == 0 || b > mx {
				mx = b
			}
		}
		return mx
	}

	// Step 3: repeat until every t ∈ U is suppressed to ε2.
	for len(u) > 0 && exposure(postSum, len(queries)) > o.params.Eps2 {
		if o.params.MaxCycle > 0 && len(queries) >= o.params.MaxCycle {
			break
		}
		// Step 3(b): candidate masking topics are T \ U \ Tm \ X,
		// preferred (sticky) topics first, each tier in random order.
		candidates := orderCandidates(k, inU, inTm, inX, prefer, rng)
		if len(candidates) == 0 {
			break
		}
		accepted := false
		for len(candidates) > 0 {
			tm := candidates[0]
			candidates = candidates[1:]

			// Step 3(a): ghost length as a random multiple of |q_u| —
			// except under profile mimicry, where the ghost matches the
			// genuine length exactly (length is itself a distinguishing
			// feature).
			var ghost []int // model word IDs
			if o.params.MimicProfile {
				ghost = o.sampleGhostWordsMimic(tm, len(userTerms), userTerms, rng)
			} else {
				ghost = o.sampleGhostWords(tm, o.ghostLen(len(userTerms), rng), rng)
			}
			if len(ghost) == 0 {
				inX[tm] = true
				rejected = append(rejected, tm)
				continue
			}

			// Step 3(c): accept only if the ghost reduces the exposure
			// of U (computed on the tentative cycle C ∪ {q_g}).
			ghostPost := o.eng.PosteriorBag(ghost, rng)
			tentative := make([]float64, k)
			for t := 0; t < k; t++ {
				tentative[t] = postSum[t] + ghostPost[t]
			}
			if !o.params.NoBacktrack &&
				exposure(tentative, len(queries)+1) >= exposure(postSum, len(queries)) {
				inX[tm] = true
				rejected = append(rejected, tm)
				continue
			}

			// Step 3(d): commit.
			postSum = tentative
			ghostTerms := make([]string, len(ghost))
			for i, w := range ghost {
				ghostTerms[i] = m.Terms[w]
			}
			queries = append(queries, ghostTerms)
			inTm[tm] = true
			maskTopics = append(maskTopics, tm)
			accepted = true
			break
		}
		if !accepted {
			break // X ⊄ T\U\Tm no longer holds: every topic tried.
		}
	}

	// Step 4: shuffle the cycle.
	userIdx := 0
	perm := rng.Perm(len(queries))
	shuffled := make([][]string, len(queries))
	for to, from := range perm {
		shuffled[to] = queries[from]
		if from == 0 {
			userIdx = to
		}
	}

	cycleBoost := make([]float64, k)
	for t := 0; t < k; t++ {
		cycleBoost[t] = postSum[t]/float64(len(queries)) - prior[t]
	}
	cyc := &Cycle{
		Queries:        shuffled,
		UserIndex:      userIdx,
		Intention:      u,
		MaskingTopics:  maskTopics,
		RejectedTopics: rejected,
		Boost:          cycleBoost,
		Exposure:       belief.Exposure(cycleBoost, u),
		Mask:           belief.MaskLevel(cycleBoost, u),
		GenTime:        time.Since(start),
	}
	cyc.Satisfied = len(u) == 0 || cyc.Exposure <= o.params.Eps2
	return cyc, nil
}

// orderCandidates lists the legal masking topics with preferred ones
// first; each tier is shuffled by the caller's RNG.
func orderCandidates(k int, inU, inTm, inX []bool, prefer []int, rng *rand.Rand) []int {
	legal := func(t int) bool { return t >= 0 && t < k && !inU[t] && !inTm[t] && !inX[t] }
	used := make([]bool, k)
	var head, tail []int
	for _, t := range prefer {
		if legal(t) && !used[t] {
			used[t] = true
			head = append(head, t)
		}
	}
	for t := 0; t < k; t++ {
		if legal(t) && !used[t] {
			tail = append(tail, t)
		}
	}
	rng.Shuffle(len(head), func(i, j int) { head[i], head[j] = head[j], head[i] })
	rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	return append(head, tail...)
}

// ghostLen draws the ghost length per Step 3(a) (or the ablation
// override), never below 1.
func (o *Obfuscator) ghostLen(userLen int, rng *rand.Rand) int {
	if o.params.FixedGhostLen > 0 {
		return o.params.FixedGhostLen
	}
	lo := int(o.params.MinLenMult * float64(userLen))
	hi := int(o.params.MaxLenMult * float64(userLen))
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// sampleGhostWords draws distinct words, as model word IDs, for a ghost
// query. The default draws proportionally to Pr(w|t_m)
// (lda.Model.SampleWord), so ghosts read as semantically coherent text
// on the masking topic. The UniformWords ablation draws uniformly from
// the vocabulary instead.
func (o *Obfuscator) sampleGhostWords(tm, n int, rng *rand.Rand) []int {
	m := o.eng.Model()
	if n > m.V {
		n = m.V
	}
	words := make([]int, 0, n)
	seen := make(map[int]struct{}, n)
	if o.params.UniformWords {
		for len(words) < n {
			w := rng.Intn(m.V)
			if _, dup := seen[w]; dup {
				continue
			}
			seen[w] = struct{}{}
			words = append(words, w)
		}
		return words
	}
	maxAttempts := 50 * n
	for attempts := 0; len(words) < n && attempts < maxAttempts; attempts++ {
		w := m.SampleWord(tm, rng)
		if _, dup := seen[w]; dup {
			continue
		}
		seen[w] = struct{}{}
		words = append(words, w)
	}
	return words
}
