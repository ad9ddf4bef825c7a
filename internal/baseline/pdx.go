// Package baseline implements the comparison schemes of the paper's
// evaluation: PDX (query embellishment, Pang/Ding/Xiao VLDB'10 — the
// baseline of Figures 4 and 5), a TrackMeNot-style random ghost
// generator (§II), and the naive download-the-index cost model (§V-D).
package baseline

import (
	"fmt"
	"math/rand"

	"toppriv/internal/belief"
)

// PDX embellishes a user query with decoy terms pointing to plausible
// alternative topics. Decoys are matched to the genuine terms in
// specificity (corpus-wide word probability within a tolerance band)
// and semantic association (each decoy group is drawn coherently from
// one alternative topic's word distribution), following the description
// in §II/§V-C of the paper. The accompanying encrypted-scoring protocol
// of the original scheme is orthogonal to topical exposure and is not
// modeled.
type PDX struct {
	eng *belief.Engine
	// Expansion is the query expansion factor: |q_e| = Expansion × |q_u|.
	Expansion float64
	// Eps1 is the relevance threshold used to identify the topics the
	// decoys must avoid.
	Eps1 float64
	// Band is the multiplicative specificity tolerance when matching a
	// decoy's corpus probability to a genuine term's. Default 4.
	Band float64

	// wordProb caches Pr(w) = Σ_t Pr(w|t)·Pr(t).
	wordProb []float64
}

// NewPDX builds the embellisher. expansion must be >= 1.
func NewPDX(eng *belief.Engine, expansion, eps1 float64) (*PDX, error) {
	if eng == nil {
		return nil, fmt.Errorf("baseline: nil belief engine")
	}
	if expansion < 1 {
		return nil, fmt.Errorf("baseline: expansion %v, need >= 1", expansion)
	}
	if eps1 <= 0 || eps1 >= 1 {
		return nil, fmt.Errorf("baseline: eps1 = %v, need (0,1)", eps1)
	}
	m := eng.Model()
	wp := make([]float64, m.V)
	for t := 0; t < m.K; t++ {
		pt := m.Prior[t]
		row := m.Phi[t]
		for w := 0; w < m.V; w++ {
			wp[w] += row[w] * pt
		}
	}
	return &PDX{eng: eng, Expansion: expansion, Eps1: eps1, Band: 4, wordProb: wp}, nil
}

// Embellish returns the embellished query q_e: the genuine terms plus
// decoys, shuffled. The result preserves every genuine term (the
// original scheme's encrypted protocol scores only those).
func (p *PDX) Embellish(userTerms []string, rng *rand.Rand) ([]string, error) {
	if len(userTerms) == 0 {
		return nil, fmt.Errorf("baseline: empty user query")
	}
	m := p.eng.Model()
	nDecoys := int(p.Expansion*float64(len(userTerms))+0.5) - len(userTerms)
	if nDecoys <= 0 {
		out := append([]string{}, userTerms...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out, nil
	}

	// Identify the topics to avoid (the user intention at ε1).
	boost := p.eng.Boost(userTerms, rng)
	u := belief.Intention(boost, p.Eps1)
	avoid := make(map[int]bool, len(u))
	for _, t := range u {
		avoid[t] = true
	}
	// Alternative topics: roughly one per unit of expansion, at least one.
	nAlt := int(p.Expansion - 1)
	if nAlt < 1 {
		nAlt = 1
	}
	var alts []int
	for t := 0; t < m.K; t++ {
		if !avoid[t] {
			alts = append(alts, t)
		}
	}
	if len(alts) == 0 {
		// Degenerate: every topic is in U; fall back to all topics.
		for t := 0; t < m.K; t++ {
			alts = append(alts, t)
		}
	}
	rng.Shuffle(len(alts), func(i, j int) { alts[i], alts[j] = alts[j], alts[i] })
	if nAlt > len(alts) {
		nAlt = len(alts)
	}
	alts = alts[:nAlt]

	// Genuine-term specificity targets.
	targets := make([]float64, 0, len(userTerms))
	for _, term := range userTerms {
		if id := m.TermID(term); id >= 0 {
			targets = append(targets, p.wordProb[id])
		}
	}

	out := append([]string{}, userTerms...)
	seen := make(map[string]struct{}, len(out)+nDecoys)
	for _, w := range out {
		seen[w] = struct{}{}
	}
	for i := 0; i < nDecoys; i++ {
		topic := alts[i%len(alts)]
		w := p.pickDecoy(topic, targets, seen, rng)
		if w == "" {
			continue
		}
		seen[w] = struct{}{}
		out = append(out, w)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// pickDecoy draws from the topic's word distribution, preferring words
// whose corpus probability matches some genuine term's within the band.
func (p *PDX) pickDecoy(topic int, targets []float64, seen map[string]struct{}, rng *rand.Rand) string {
	m := p.eng.Model()
	var fallback string
	for attempt := 0; attempt < 80; attempt++ {
		w := m.SampleWord(topic, rng)
		term := m.Terms[w]
		if _, dup := seen[term]; dup {
			continue
		}
		if fallback == "" {
			fallback = term
		}
		if len(targets) == 0 {
			return term
		}
		wp := p.wordProb[w]
		target := targets[rng.Intn(len(targets))]
		if wp >= target/p.Band && wp <= target*p.Band {
			return term
		}
	}
	return fallback
}
