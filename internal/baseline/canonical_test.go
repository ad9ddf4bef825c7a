package baseline

import (
	"math/rand"
	"testing"
)

func TestNewCanonicalValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := NewCanonical(nil, 3, 8, 1); err == nil {
		t.Error("nil engine must error")
	}
	if _, err := NewCanonical(f.eng, 1, 8, 1); err == nil {
		t.Error("groupSize < 2 must error")
	}
	if _, err := NewCanonical(f.eng, 100, 8, 1); err == nil {
		t.Error("groupSize > K must error")
	}
	if _, err := NewCanonical(f.eng, 3, 0, 1); err == nil {
		t.Error("queryLen < 1 must error")
	}
}

func TestCanonicalQueriesAreTopicHeads(t *testing.T) {
	f := getFixture(t)
	c, err := NewCanonical(f.eng, 4, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := f.eng.Model()
	for topic := 0; topic < m.K; topic++ {
		q := c.queries[topic]
		if len(q) != 6 {
			t.Fatalf("topic %d canonical query has %d words", topic, len(q))
		}
		head := map[string]bool{}
		for _, tw := range m.TopWords(topic, 6) {
			head[tw.Term] = true
		}
		for _, w := range q {
			if !head[w] {
				t.Fatalf("topic %d canonical word %q not in head", topic, w)
			}
		}
	}
	if len(c.queries) != m.K {
		t.Errorf("%d canonical queries for %d topics", len(c.queries), m.K)
	}
}

func TestCanonicalSubstituteGroup(t *testing.T) {
	f := getFixture(t)
	c, err := NewCanonical(f.eng, 4, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := f.topicQuery(0, 10)
	group, chosen, err := c.Substitute(q, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(group) < 2 || len(group) > 4 {
		t.Fatalf("group size %d", len(group))
	}
	if chosen < 0 || chosen >= len(group) {
		t.Fatalf("chosen index %d out of range", chosen)
	}
	// The chosen canonical query should be topically close to the user
	// query: it must share at least one term with the query's topic head.
	qSet := map[string]bool{}
	for _, w := range q {
		qSet[w] = true
	}
	shared := 0
	for _, w := range group[chosen] {
		if qSet[w] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("substituted canonical query shares no terms with a head-word query")
	}
	if _, _, err := c.Substitute(nil, rand.New(rand.NewSource(4))); err == nil {
		t.Error("empty query must error")
	}
}

func TestCanonicalGroupsPartitionTopics(t *testing.T) {
	f := getFixture(t)
	c, err := NewCanonical(f.eng, 3, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := f.eng.Model()
	seen := map[int]bool{}
	for _, group := range c.groups {
		for _, topic := range group {
			if seen[topic] {
				t.Fatalf("topic %d in two groups", topic)
			}
			seen[topic] = true
		}
	}
	if len(seen) != m.K {
		t.Errorf("groups cover %d topics, want %d", len(seen), m.K)
	}
}
