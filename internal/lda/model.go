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
// the TopPriv client and the adversary form topical beliefs.
package lda

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"toppriv/internal/textproc"
)

// Model is a trained LDA model. It is immutable after training and safe
// for concurrent readers.
type Model struct {
	// K is the number of topics; V the vocabulary size.
	K, V int
	// Alpha and Beta are the Dirichlet hyperparameters used in training.
	Alpha, Beta float64
	// Phi[t][w] = Pr(w|t), each row summing to 1.
	Phi [][]float64
	// Prior[t] = Pr(t), the corpus-wide topic prior of Eq. 1.
	Prior []float64
	// Terms[w] is the surface form of word ID w, aligned with the
	// corpus vocabulary the model was trained on.
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
	m.samplers = make([]rowSampler, len(m.Phi))
	for t, row := range m.Phi {
		m.samplers[t] = newRowSampler(row)
	}
}

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
// Phi[t]. It consumes one rng.Float64 and costs a binary search plus a
// scan of at most 64 words, not a pass over the vocabulary.
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

// BagFromIDs converts corpus vocabulary IDs (which equal model word IDs
// when the model was trained on that corpus) into an inference bag.
func (m *Model) BagFromIDs(ids []textproc.TermID) []int {
	bag := make([]int, 0, len(ids))
	for _, id := range ids {
		if int(id) < m.V {
			bag = append(bag, int(id))
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
// probability — the rows of the paper's Tables II–IV.
func (m *Model) TopWords(t, n int) []TermWeight {
	if t < 0 || t >= m.K {
		return nil
	}
	idx := make([]int, m.V)
	for i := range idx {
		idx[i] = i
	}
	row := m.Phi[t]
	sort.Slice(idx, func(a, b int) bool {
		if row[idx[a]] != row[idx[b]] {
			return row[idx[a]] > row[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]TermWeight, n)
	for i := 0; i < n; i++ {
		out[i] = TermWeight{Term: m.Terms[idx[i]], Weight: row[idx[i]]}
	}
	return out
}

// ClientSizeBytes reports the heap the TopPriv client holds for the
// model once it has answered a query: Φ (K × V), the prior Pr(t), the
// dictionary with its sorted lookup, and the per-topic prefix sums
// SampleWord draws from — the quantity Figure 6 plots against the
// inverted-index size. Pr(t|d) is not held (it is only needed to derive
// the prior once), so the cost plateaus with the vocabulary even as the
// corpus grows — the sublinear curve of Figure 6.
func (m *Model) ClientSizeBytes() int64 {
	k, v := int64(m.K), int64(m.V)
	n := k*v*8 + k*24 // Φ's rows and their headers
	n += k * 8        // Prior
	n += k * (((v+samplerBlock-1)/samplerBlock+1)*8 + 48)
	n += v * 4 // byTerm
	for _, t := range m.Terms {
		n += int64(len(t)) + 16
	}
	return n
}

// validate checks internal consistency; used by Load and tests.
func (m *Model) validate() error {
	if m.K <= 0 || m.V <= 0 {
		return fmt.Errorf("lda: bad shape K=%d V=%d", m.K, m.V)
	}
	if len(m.Phi) != m.K {
		return fmt.Errorf("lda: Phi has %d rows, want %d", len(m.Phi), m.K)
	}
	for t, row := range m.Phi {
		if len(row) != m.V {
			return fmt.Errorf("lda: Phi[%d] has %d cols, want %d", t, len(row), m.V)
		}
	}
	if len(m.Prior) != m.K {
		return fmt.Errorf("lda: Prior has %d entries, want %d", len(m.Prior), m.K)
	}
	if len(m.Terms) != m.V {
		return fmt.Errorf("lda: Terms has %d entries, want %d", len(m.Terms), m.V)
	}
	return nil
}
