package lda

import (
	"fmt"
	"math"
	"sort"

	"toppriv/internal/corpus"
)

// Perplexity evaluates the model on held-out documents with the
// document-completion method: the first half of each document's tokens
// folds in to estimate its topic mixture, and the second half is scored
// under p(w|θ̂, Φ) = Σ_t θ̂_t · Φ[t][w]. Lower is better. Tokens whose
// surface form is outside the model vocabulary are skipped (standard
// practice). Returns an error if nothing was scorable.
func Perplexity(m *Model, spec InferSpec, held *corpus.Corpus) (float64, error) {
	if m == nil {
		return 0, fmt.Errorf("lda: nil model")
	}
	if held == nil || held.Vocab == nil {
		return 0, fmt.Errorf("lda: nil held-out corpus")
	}
	inf, err := NewInferencer(m, spec)
	if err != nil {
		return 0, err
	}
	logSum := 0.0
	tokens := 0
	for d := range held.Bags {
		// Map held-out token IDs into model word IDs by surface form.
		var ids []int
		for _, tid := range held.Bags[d] {
			if mid := m.TermID(held.Vocab.Term(tid)); mid >= 0 {
				ids = append(ids, mid)
			}
		}
		if len(ids) < 2 {
			continue
		}
		half := len(ids) / 2
		observed, eval := ids[:half], ids[half:]
		theta := inf.Posterior(observed)
		for _, w := range eval {
			p := 0.0
			for t := 0; t < m.K; t++ {
				p += theta[t] * m.Phi[t][w]
			}
			if p <= 0 {
				continue
			}
			logSum += math.Log(p)
			tokens++
		}
	}
	if tokens == 0 {
		return 0, fmt.Errorf("lda: no scorable held-out tokens")
	}
	return math.Exp(-logSum / float64(tokens)), nil
}

// KScore is one model-selection measurement.
type KScore struct {
	K          int
	Perplexity float64
}

// SelectK answers the paper's model-sizing question ("we set this
// parameter to roughly the same magnitude as the expected topic
// coverage of the corpus", §IV-B) empirically: it trains one model per
// candidate K on a training split and scores each on held-out
// perplexity, returning the best K and the full curve sorted by K.
func SelectK(c *corpus.Corpus, candidates []int, heldFrac float64, base TrainSpec) (int, []KScore, error) {
	if len(candidates) == 0 {
		return 0, nil, fmt.Errorf("lda: no candidate K values")
	}
	train, held, err := corpus.Split(c, heldFrac, base.Seed+7919)
	if err != nil {
		return 0, nil, err
	}
	scores := make([]KScore, 0, len(candidates))
	bestK := 0
	bestP := math.Inf(1)
	for _, k := range candidates {
		spec := base
		spec.NumTopics = k
		m, _, err := Train(train, spec)
		if err != nil {
			return 0, nil, fmt.Errorf("lda: SelectK train K=%d: %w", k, err)
		}
		p, err := Perplexity(m, InferSpec{}, held)
		if err != nil {
			return 0, nil, fmt.Errorf("lda: SelectK perplexity K=%d: %w", k, err)
		}
		scores = append(scores, KScore{K: k, Perplexity: p})
		if p < bestP {
			bestP = p
			bestK = k
		}
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].K < scores[j].K })
	return bestK, scores, nil
}
