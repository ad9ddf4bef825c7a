package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// QuerySpec is one benchmark query: its raw terms and the ground-truth
// topics it targets. It substitutes for a TREC-1/2 ad-hoc query — the
// paper's workload has 150 queries of 2–20 terms, each with a clearly
// defined topical intent (§V-A).
type QuerySpec struct {
	// ID numbers the query within its workload (0-based).
	ID int
	// Terms is the raw query text, space-joinable.
	Terms []string
	// TargetTopics are the ground-truth topic indices the query is about
	// (1 or 2 topics, dominant first).
	TargetTopics []int
}

// Text returns the query as a single string.
func (q QuerySpec) Text() string { return strings.Join(q.Terms, " ") }

// WorkloadSpec configures query-workload generation.
type WorkloadSpec struct {
	// Seed makes the workload deterministic (independent of the corpus seed).
	Seed int64
	// NumQueries defaults to 150, matching the TREC-1/2 ad-hoc set.
	NumQueries int
	// MinTerms and MaxTerms bound query length; defaults 2 and 20,
	// matching the paper.
	MinTerms, MaxTerms int
	// TwoTopicFrac is the fraction of queries spanning two topics
	// (default 0.2): TREC topics occasionally straddle areas.
	TwoTopicFrac float64
	// HeadBias is the Zipf exponent used when drawing terms from a
	// topic's rank-ordered vocabulary; higher values favor the most
	// characteristic words. Default 0.7 (milder than document text, so
	// queries include mid-rank, higher-specificity terms too).
	HeadBias float64
}

func (w WorkloadSpec) withDefaults() WorkloadSpec {
	if w.NumQueries == 0 {
		w.NumQueries = 150
	}
	if w.MinTerms == 0 {
		w.MinTerms = 2
	}
	if w.MaxTerms == 0 {
		w.MaxTerms = 20
	}
	if w.TwoTopicFrac == 0 {
		w.TwoTopicFrac = 0.2
	}
	if w.HeadBias == 0 {
		w.HeadBias = 0.7
	}
	return w
}

// Workload generates queries against the ground truth of a synthetic
// corpus. Each query draws its terms from the head of its target
// topics' vocabularies without replacement, yielding semantically
// coherent, clearly-intentioned queries.
func Workload(gt *GroundTruth, spec WorkloadSpec) ([]QuerySpec, error) {
	spec = spec.withDefaults()
	if gt == nil || len(gt.TopicWords) == 0 {
		return nil, fmt.Errorf("corpus: Workload requires ground truth")
	}
	if spec.MinTerms < 1 || spec.MinTerms > spec.MaxTerms {
		return nil, fmt.Errorf("corpus: bad term bounds [%d,%d]", spec.MinTerms, spec.MaxTerms)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	numTopics := len(gt.TopicWords)
	queries := make([]QuerySpec, 0, spec.NumQueries)
	for i := 0; i < spec.NumQueries; i++ {
		targets := []int{rng.Intn(numTopics)}
		if numTopics > 1 && rng.Float64() < spec.TwoTopicFrac {
			second := rng.Intn(numTopics - 1)
			if second >= targets[0] {
				second++
			}
			targets = append(targets, second)
		}
		n := spec.MinTerms + rng.Intn(spec.MaxTerms-spec.MinTerms+1)
		terms := drawQueryTerms(rng, gt, targets, n, spec.HeadBias)
		queries = append(queries, QuerySpec{ID: i, Terms: terms, TargetTopics: targets})
	}
	return queries, nil
}

// drawQueryTerms samples n distinct terms across the target topics with
// a Zipfian bias toward each topic's head words. The dominant topic
// contributes at least half the terms.
func drawQueryTerms(rng *rand.Rand, gt *GroundTruth, targets []int, n int, bias float64) []string {
	perTopic := make([]int, len(targets))
	perTopic[0] = (n + len(targets) - 1) / len(targets)
	remaining := n - perTopic[0]
	for i := 1; i < len(targets); i++ {
		share := remaining / (len(targets) - i)
		perTopic[i] = share
		remaining -= share
	}
	var terms []string
	seen := make(map[string]struct{})
	for ti, topic := range targets {
		vocab := gt.TopicWords[topic]
		weights := zipfWeights(len(vocab), bias)
		picked := 0
		for attempts := 0; picked < perTopic[ti] && attempts < 20*perTopic[ti]; attempts++ {
			w := vocab[sampleCategorical(rng, weights)]
			if _, dup := seen[w]; dup {
				continue
			}
			seen[w] = struct{}{}
			terms = append(terms, w)
			picked++
		}
	}
	return terms
}

// WorkloadStats summarizes a workload for reporting.
type WorkloadStats struct {
	NumQueries   int
	MinLen       int
	MaxLen       int
	MeanLen      float64
	TopicSpread  int // distinct topics targeted across the workload
	TwoTopicPart int // queries targeting two topics
}

// Stats computes summary statistics over queries.
func Stats(queries []QuerySpec) WorkloadStats {
	s := WorkloadStats{NumQueries: len(queries)}
	if len(queries) == 0 {
		return s
	}
	s.MinLen = len(queries[0].Terms)
	topics := map[int]struct{}{}
	total := 0
	for _, q := range queries {
		n := len(q.Terms)
		total += n
		if n < s.MinLen {
			s.MinLen = n
		}
		if n > s.MaxLen {
			s.MaxLen = n
		}
		for _, t := range q.TargetTopics {
			topics[t] = struct{}{}
		}
		if len(q.TargetTopics) > 1 {
			s.TwoTopicPart++
		}
	}
	s.MeanLen = float64(total) / float64(len(queries))
	s.TopicSpread = len(topics)
	return s
}
