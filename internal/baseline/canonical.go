package baseline

import (
	"fmt"
	"math/rand"

	"toppriv/internal/belief"
)

// Canonical implements the Murugesan–Clifton plausibly-deniable search
// baseline the paper surveys in §II: a static set of canonical queries
// is built offline, partitioned into groups whose members cover diverse
// topics; at runtime the user query is replaced by the most similar
// canonical query and submitted together with the rest of its group as
// cover.
//
// The original uses LSI + kd-tree nearest neighbours; here the topic
// model plays the semantic space (one canonical query per topic, formed
// from the topic's head words), which preserves the scheme's defining
// behaviours: (a) the genuine query never reaches the server, so
// precision/recall degrade — the drawback the paper highlights — and
// (b) each submission is a fixed-size group of diverse-topic queries.
type Canonical struct {
	eng *belief.Engine
	// GroupSize is the number of queries submitted per user query.
	GroupSize int
	// queries[t] is topic t's canonical query.
	queries [][]string
	// groups partitions topic indices into groups of GroupSize.
	groups [][]int
	// topicGroup[t] is the group containing topic t's canonical query.
	topicGroup []int
}

// NewCanonical builds the static canonical-query set. queryLen is the
// canonical query length in words; seed fixes the group partition.
func NewCanonical(eng *belief.Engine, groupSize, queryLen int, seed int64) (*Canonical, error) {
	if eng == nil {
		return nil, fmt.Errorf("baseline: nil belief engine")
	}
	m := eng.Model()
	if groupSize < 2 || groupSize > m.K {
		return nil, fmt.Errorf("baseline: groupSize = %d, need 2..%d", groupSize, m.K)
	}
	if queryLen < 1 {
		return nil, fmt.Errorf("baseline: queryLen = %d, need >= 1", queryLen)
	}
	c := &Canonical{
		eng:        eng,
		GroupSize:  groupSize,
		queries:    make([][]string, m.K),
		topicGroup: make([]int, m.K),
	}
	for t := 0; t < m.K; t++ {
		tws := m.TopWords(t, queryLen)
		q := make([]string, len(tws))
		for i, tw := range tws {
			q[i] = tw.Term
		}
		c.queries[t] = q
	}
	// Random partition into groups; topics in a group are distinct by
	// construction (each canonical query belongs to one topic).
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(m.K)
	for start := 0; start < len(perm); start += groupSize {
		end := start + groupSize
		if end > len(perm) {
			end = len(perm)
		}
		gi := len(c.groups)
		group := append([]int{}, perm[start:end]...)
		c.groups = append(c.groups, group)
		for _, t := range group {
			c.topicGroup[t] = gi
		}
	}
	return c, nil
}

// Substitute maps the user query to its nearest canonical query (by
// posterior topic mass) and returns that query's whole group, shuffled,
// with the index of the substituted query. The genuine terms are NOT
// submitted — the scheme's defining trait and weakness.
func (c *Canonical) Substitute(userTerms []string, rng *rand.Rand) (group [][]string, chosen int, err error) {
	if len(userTerms) == 0 {
		return nil, 0, fmt.Errorf("baseline: empty user query")
	}
	post := c.eng.Posterior(userTerms, nil)
	best := 0
	for t := 1; t < len(post); t++ {
		if post[t] > post[best] {
			best = t
		}
	}
	topics := c.groups[c.topicGroup[best]]
	group = make([][]string, len(topics))
	chosenPos := 0
	perm := rng.Perm(len(topics))
	for to, from := range perm {
		group[to] = c.queries[topics[from]]
		if topics[from] == best {
			chosenPos = to
		}
	}
	return group, chosenPos, nil
}
