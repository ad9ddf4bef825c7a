package core

import (
	"math/rand"
	"slices"
	"sync"
)

// Profile-mimicking ghost-word sampling — the countermeasure to the
// learned-distinguisher attack (adversary.Distinguisher). Plain Step
// 3(b) sampling draws ghost words ∝ Pr(w|t_m), which concentrates on
// each masking topic's head; genuine queries, in contrast, carry
// deeper-ranked and more specific terms. A classifier trained on that
// gap identifies the genuine query well above chance. Mimic sampling
// removes the gap: each ghost word is drawn from the masking topic's
// rank-ordered vocabulary *at the same depth* as a randomly chosen
// genuine term, so the ghost's rank-depth profile matches the user
// query's by construction.
//
// Enabled with Params.MimicProfile; the default remains the paper's
// plain biased sampling.

// mimicState lazily caches the structures mimic sampling needs:
// per-topic rank-ordered vocabularies, and every term's best (smallest)
// rank across topics.
type mimicState struct {
	once sync.Once
	// ranked[t] is topic t's vocabulary, as model word IDs, in
	// descending Pr(w|t) order, truncated to rankDepth.
	ranked [][]int
	// bestRank[term] is the term's best rank across all topics; terms
	// absent from every truncated head are missing (treated as deep).
	bestRank map[string]int
}

// rankDepth bounds the per-topic rank tables. Deep enough to cover the
// specific terms real queries use, shallow enough to stay cheap.
const rankDepth = 300

func (o *Obfuscator) mimic() *mimicState {
	o.mimicOnce.Do(func() {
		m := o.eng.Model()
		depth := rankDepth
		if depth > m.V {
			depth = m.V
		}
		st := &mimicState{
			ranked:   make([][]int, m.K),
			bestRank: make(map[string]int, m.K*depth),
		}
		for t := 0; t < m.K; t++ {
			words := make([]int, depth)
			for rank, tw := range m.TopWords(t, depth) {
				words[rank] = m.TermID(tw.Term)
				if old, ok := st.bestRank[tw.Term]; !ok || rank < old {
					st.bestRank[tw.Term] = rank
				}
			}
			st.ranked[t] = words
		}
		o.mimicCache = st
	})
	return o.mimicCache
}

// sampleGhostWordsMimic appends to words, which the caller hands over
// empty, n distinct ghost words (model word IDs) from masking topic tm
// whose rank depths mirror the user query's term depths.
func (o *Obfuscator) sampleGhostWordsMimic(words []int, tm, n int, userTerms []string, rng *rand.Rand) []int {
	st := o.mimic()
	ranked := st.ranked[tm]
	if len(ranked) == 0 {
		return words
	}
	if n > len(ranked) {
		n = len(ranked)
	}
	// The user query's depth profile; terms beyond every head count as
	// maximally deep.
	depths := make([]int, 0, len(userTerms))
	for _, w := range userTerms {
		if r, ok := st.bestRank[w]; ok {
			depths = append(depths, r)
		} else {
			depths = append(depths, len(ranked)-1)
		}
	}
	maxAttempts := 30 * n
	for attempts := 0; len(words) < n && attempts < maxAttempts; attempts++ {
		target := depths[rng.Intn(len(depths))]
		// Jitter proportional to the target depth (min ±2) so repeated
		// cycles don't expose exact depths while preserving the profile.
		jitter := target / 5
		if jitter < 2 {
			jitter = 2
		}
		r := target + rng.Intn(2*jitter+1) - jitter
		if r < 0 {
			r = 0
		}
		if r >= len(ranked) {
			r = len(ranked) - 1
		}
		if w := ranked[r]; !slices.Contains(words, w) {
			words = append(words, w)
		}
	}
	return words
}
