// Package lda implements Latent Dirichlet Allocation with collapsed
// Gibbs sampling — the topic-model substrate of TopPriv (§IV-B of the
// paper). It substitutes for the GibbsLDA++ 0.2 library the authors
// used, keeping the same hyperparameter defaults (α = 50/K, β = 0.1)
// and the same two outputs:
//
//   - Pr(w|t) for every word w and topic t (which words describe a topic);
//   - Pr(t|d) for every topic t and document d (which topics dominate a
//     document), from which the prior Pr(t) = (1/|D|) Σ_d Pr(t|d) follows
//     (Eq. 1). Only the prior is kept: nothing reads Pr(t|d) once it is
//     summed, and the client holds Φ, the prior and the dictionary alone.
//
// A trained Model also supports inference mode: estimating Pr(t|q) for a
// query q that was not part of the training corpus, which is how both
// the TopPriv client and the adversary form topical beliefs. Inference
// does not sample: it is a deterministic CVB0 fold-in (Inferencer), so
// both compute the same belief.
package lda

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
)

// Model is a trained LDA model. It is immutable after training and safe
// for concurrent readers.
type Model struct {
	// K is the number of topics; V the vocabulary size.
	K, V int
	// Alpha and Beta are the Dirichlet hyperparameters used in training.
	Alpha, Beta float64
	// phi holds Φ, phi.at(t, w) = Pr(w|t), each row summing to 1; Phi
	// reads one entry. Each entry is a float64 estimate rounded once to
	// float32, and every computation that reads one widens it back to
	// float64 first. The rows are held sparse: each stores its smoothing
	// floor once (sparsePhi).
	phi *sparsePhi
	// Prior[t] = Pr(t), the corpus-wide topic prior of Eq. 1.
	Prior []float64
	// Terms[w] is the term of word ID w as the analyzer produced it (a
	// Porter stem, not a surface word), aligned with the corpus
	// vocabulary the model was trained on. A client that sends these
	// terms as query text has them analyzed a second time (ROADMAP,
	// "Words on the wire, not stems").
	Terms []string

	// Lookup structures derived from Terms and Phi on first use; the
	// Once makes that first use safe when goroutines share the model.
	derive sync.Once
	// byTerm lists the word IDs in ascending order of their terms (ties
	// by ID), which TermID searches by halving: 4 B a word, where a
	// map[string]int took about 43.
	byTerm   []int32
	samplers []rowSampler // one per topic
}

func (m *Model) buildLookups() {
	m.byTerm = make([]int32, len(m.Terms))
	for i := range m.byTerm {
		m.byTerm[i] = int32(i)
	}
	slices.SortStableFunc(m.byTerm, func(a, b int32) int {
		return strings.Compare(m.Terms[a], m.Terms[b])
	})
	nb := (m.V + samplerBlock - 1) / samplerBlock
	prefix := make([]float64, m.K*(nb+1))
	m.samplers = make([]rowSampler, m.K)
	for t := range m.samplers {
		m.samplers[t] = m.phi.sampler(t, prefix[t*(nb+1):(t+1)*(nb+1)])
	}
}

// Phi returns Pr(w|t): entry w of topic t's row of Φ.
func (m *Model) Phi(t, w int) float32 { return m.phi.at(t, w) }

// PhiExplicit returns how many of Φ's K·V entries the model stores
// explicitly: those whose bits differ from their row's floor.
func (m *Model) PhiExplicit() int { return len(m.phi.vals) }

// TermID returns the model's word ID for a term, or -1 when the term is
// out of vocabulary. A term listed twice resolves to its first ID.
func (m *Model) TermID(term string) int {
	m.derive.Do(m.buildLookups)
	i, ok := slices.BinarySearchFunc(m.byTerm, term, func(id int32, term string) int {
		return strings.Compare(m.Terms[id], term)
	})
	if !ok {
		return -1
	}
	return int(m.byTerm[i])
}

// SampleWord draws a word ID with probability Pr(w|t) — the
// distribution TopPriv's Step 3(b) samples ghost-query words from: a
// topic vector with Pr(t) = 1 collapses Pr(w) = Σ_t Pr(w|t)·Pr(t) to
// topic t's row of Φ. It consumes one rng.Float64 and costs a binary
// search plus a scan of at most 64 words, not a pass over the
// vocabulary.
func (m *Model) SampleWord(t int, rng *rand.Rand) int {
	m.derive.Do(m.buildLookups)
	return m.samplers[t].sample(rng)
}

// BagFromTerms maps surface terms to model word IDs, dropping unknown
// terms. It is how raw query text enters inference.
func (m *Model) BagFromTerms(terms []string) []int {
	bag := make([]int, 0, len(terms))
	for _, t := range terms {
		if id := m.TermID(t); id >= 0 {
			bag = append(bag, id)
		}
	}
	return bag
}

// TermWeight is a word with its probability under some topic.
type TermWeight struct {
	Term   string
	Weight float64
}

// TopWords returns topic t's n most probable words in descending
// probability, ties in ascending word ID — the rows of the paper's
// Tables II–IV. Only the row's explicit entries above its floor are
// sorted; the words that hold the floor follow in ascending ID.
func (m *Model) TopWords(t, n int) []TermWeight {
	if t < 0 || t >= m.K {
		return nil
	}
	p := m.phi
	floor, vals := p.floor[t], p.explicit(t)
	type entry struct {
		w int
		x float32
	}
	var above []entry
	for b := t; b < len(p.bits); b += p.k {
		for word := p.bits[b]; word != 0; word &= word - 1 {
			if x := vals[0]; x > floor {
				above = append(above, entry{b/p.k*samplerBlock + bits.TrailingZeros64(word), x})
			}
			vals = vals[1:]
		}
	}
	slices.SortFunc(above, func(a, b entry) int {
		if a.x != b.x {
			return cmp.Compare(b.x, a.x)
		}
		return a.w - b.w
	})
	out := make([]TermWeight, 0, min(n, m.V))
	for _, e := range above[:min(n, len(above))] {
		out = append(out, TermWeight{Term: m.Terms[e.w], Weight: float64(e.x)})
	}
	// An explicit entry can equal the floor only as the other zero, and
	// then it ties with the floor's words.
	for w := 0; w < m.V && len(out) < n; w++ {
		if x := p.at(t, w); x == floor {
			out = append(out, TermWeight{Term: m.Terms[w], Weight: float64(x)})
		}
	}
	return out
}

// validate checks internal consistency; used by Save, NewInferencer
// and tests.
func (m *Model) validate() error {
	if err := m.checkShape(); err != nil {
		return err
	}
	if m.phi == nil || m.phi.k != m.K || m.phi.v != m.V {
		return fmt.Errorf("lda: Phi does not hold %d rows of %d words", m.K, m.V)
	}
	return nil
}

// checkShape checks K, V and the lengths of the prior and the terms.
func (m *Model) checkShape() error {
	if m.K <= 0 || m.V <= 0 {
		return fmt.Errorf("lda: bad shape K=%d V=%d", m.K, m.V)
	}
	if len(m.Prior) != m.K {
		return fmt.Errorf("lda: Prior has %d entries, want %d", len(m.Prior), m.K)
	}
	if len(m.Terms) != m.V {
		return fmt.Errorf("lda: Terms has %d entries, want %d", len(m.Terms), m.V)
	}
	return nil
}
