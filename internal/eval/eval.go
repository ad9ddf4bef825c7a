// Package eval implements standard IR effectiveness metrics —
// precision@k, recall@k, average precision (MAP) and nDCG — together
// with synthetic relevance judgments (qrels) derived from the
// generative corpus. The paper's §II criticism of query-substitution
// schemes is about "precision-recall characteristics"; this package
// turns that into measured numbers (see experiment.RetrievalQuality
// for the fidelity variant and the tests here for metric correctness).
package eval

import (
	"fmt"
	"math"
	"sort"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// Qrels maps each query to its set of relevant document IDs.
type Qrels map[int]map[corpus.DocID]bool

// SyntheticQrels derives relevance judgments from the generative ground
// truth. Relevance models a TREC-style *specific information need*, not
// mere topical aboutness: document d is relevant to query q when
//
//   - the mass d's true topic mixture places on q's target topics is at
//     least minAffinity (the document is about the subject), and
//   - d contains at least minTermFrac of q's analyzed terms (the
//     document addresses this particular need, not just the area).
//
// The lexical condition is what lets the metrics distinguish schemes
// that submit the genuine query from schemes that substitute a merely
// on-topic one.
func SyntheticQrels(c *corpus.Corpus, queries []corpus.QuerySpec, minAffinity, minTermFrac float64, an *textproc.Analyzer) (Qrels, error) {
	if c == nil {
		return nil, fmt.Errorf("eval: nil corpus")
	}
	if minAffinity <= 0 || minAffinity >= 1 {
		return nil, fmt.Errorf("eval: minAffinity = %v, need (0,1)", minAffinity)
	}
	if minTermFrac < 0 || minTermFrac > 1 {
		return nil, fmt.Errorf("eval: minTermFrac = %v, need [0,1]", minTermFrac)
	}
	if an == nil {
		an = textproc.NewAnalyzer()
	}
	// Per-document term sets for the lexical condition.
	docTerms := make([]map[textproc.TermID]bool, len(c.Bags))
	for d, bag := range c.Bags {
		set := make(map[textproc.TermID]bool, len(bag))
		for _, id := range bag {
			set[id] = true
		}
		docTerms[d] = set
	}
	qrels := make(Qrels, len(queries))
	for _, q := range queries {
		var qids []textproc.TermID
		for _, w := range q.Terms {
			if term, ok := an.AnalyzeTerm(w); ok {
				if id := c.Vocab.ID(term); id != textproc.InvalidTerm {
					qids = append(qids, id)
				}
			}
		}
		rel := make(map[corpus.DocID]bool)
		for d := range c.Docs {
			theta := c.Docs[d].TrueTopics
			if len(theta) == 0 {
				continue
			}
			mass := 0.0
			for _, t := range q.TargetTopics {
				if t >= 0 && t < len(theta) {
					mass += theta[t]
				}
			}
			if mass < minAffinity {
				continue
			}
			if minTermFrac > 0 && len(qids) > 0 {
				hits := 0
				for _, id := range qids {
					if docTerms[d][id] {
						hits++
					}
				}
				if float64(hits) < minTermFrac*float64(len(qids)) {
					continue
				}
			}
			rel[corpus.DocID(d)] = true
		}
		qrels[q.ID] = rel
	}
	return qrels, nil
}

// PrecisionAtK is |relevant ∩ top-k| / k. Rankings shorter than k are
// treated as padded with non-relevant results (standard trec_eval
// behaviour).
func PrecisionAtK(ranking []corpus.DocID, relevant map[corpus.DocID]bool, k int) float64 {
	if k <= 0 {
		return 0
	}
	hits := 0
	for i, d := range ranking {
		if i >= k {
			break
		}
		if relevant[d] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// RecallAtK is |relevant ∩ top-k| / |relevant|.
func RecallAtK(ranking []corpus.DocID, relevant map[corpus.DocID]bool, k int) float64 {
	if len(relevant) == 0 {
		return 0
	}
	hits := 0
	for i, d := range ranking {
		if i >= k {
			break
		}
		if relevant[d] {
			hits++
		}
	}
	return float64(hits) / float64(len(relevant))
}

// AveragePrecision is the mean of precision@rank over the ranks of the
// relevant documents retrieved, divided by |relevant| (so missing
// relevant documents count as zero).
func AveragePrecision(ranking []corpus.DocID, relevant map[corpus.DocID]bool) float64 {
	if len(relevant) == 0 {
		return 0
	}
	hits := 0
	sum := 0.0
	for i, d := range ranking {
		if relevant[d] {
			hits++
			sum += float64(hits) / float64(i+1)
		}
	}
	return sum / float64(len(relevant))
}

// NDCGAtK computes normalized discounted cumulative gain with binary
// relevance: DCG = Σ rel_i / log2(i+2), normalized by the ideal DCG.
func NDCGAtK(ranking []corpus.DocID, relevant map[corpus.DocID]bool, k int) float64 {
	if k <= 0 || len(relevant) == 0 {
		return 0
	}
	dcg := 0.0
	for i, d := range ranking {
		if i >= k {
			break
		}
		if relevant[d] {
			dcg += 1 / math.Log2(float64(i)+2)
		}
	}
	ideal := 0.0
	n := len(relevant)
	if n > k {
		n = k
	}
	for i := 0; i < n; i++ {
		ideal += 1 / math.Log2(float64(i)+2)
	}
	if ideal == 0 {
		return 0
	}
	return dcg / ideal
}

// RunMetrics aggregates a retrieval run over a workload.
type RunMetrics struct {
	PrecisionAt10 float64
	RecallAt10    float64
	MAP           float64
	NDCGAt10      float64
	Queries       int
}

// Evaluate averages the metrics over all queries with non-empty
// relevant sets, in deterministic (sorted query ID) order.
// rankings[queryID] is the run's result list.
func Evaluate(rankings map[int][]corpus.DocID, qrels Qrels) RunMetrics {
	var m RunMetrics
	qids := make([]int, 0, len(qrels))
	for qid := range qrels {
		qids = append(qids, qid)
	}
	sort.Ints(qids)
	for _, qid := range qids {
		relevant := qrels[qid]
		if len(relevant) == 0 {
			continue
		}
		ranking := rankings[qid]
		m.PrecisionAt10 += PrecisionAtK(ranking, relevant, 10)
		m.RecallAt10 += RecallAtK(ranking, relevant, 10)
		m.MAP += AveragePrecision(ranking, relevant)
		m.NDCGAt10 += NDCGAtK(ranking, relevant, 10)
		m.Queries++
	}
	if m.Queries > 0 {
		n := float64(m.Queries)
		m.PrecisionAt10 /= n
		m.RecallAt10 /= n
		m.MAP /= n
		m.NDCGAt10 /= n
	}
	return m
}
