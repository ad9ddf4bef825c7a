package eval

import (
	"math"
	"testing"

	"toppriv/internal/corpus"
)

func rel(ids ...corpus.DocID) map[corpus.DocID]bool {
	m := make(map[corpus.DocID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func almost(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestPrecisionAtK(t *testing.T) {
	ranking := []corpus.DocID{1, 2, 3, 4, 5}
	relevant := rel(1, 3, 9)
	almost(t, "P@1", PrecisionAtK(ranking, relevant, 1), 1)
	almost(t, "P@2", PrecisionAtK(ranking, relevant, 2), 0.5)
	almost(t, "P@5", PrecisionAtK(ranking, relevant, 5), 0.4)
	// Short ranking pads with non-relevant.
	almost(t, "P@10", PrecisionAtK(ranking, relevant, 10), 0.2)
	almost(t, "P@0", PrecisionAtK(ranking, relevant, 0), 0)
}

func TestRecallAtK(t *testing.T) {
	ranking := []corpus.DocID{1, 2, 3}
	relevant := rel(1, 3, 9)
	almost(t, "R@1", RecallAtK(ranking, relevant, 1), 1.0/3)
	almost(t, "R@3", RecallAtK(ranking, relevant, 3), 2.0/3)
	almost(t, "R empty", RecallAtK(ranking, nil, 3), 0)
}

func TestAveragePrecision(t *testing.T) {
	// Relevant at ranks 1 and 3 of {1,2,3}; |relevant| = 3.
	ranking := []corpus.DocID{1, 2, 3}
	relevant := rel(1, 3, 9)
	want := (1.0/1 + 2.0/3) / 3
	almost(t, "AP", AveragePrecision(ranking, relevant), want)
	// Perfect ranking.
	almost(t, "AP perfect", AveragePrecision([]corpus.DocID{1, 3, 9}, relevant), 1)
	almost(t, "AP empty", AveragePrecision(ranking, nil), 0)
}

func TestNDCG(t *testing.T) {
	relevant := rel(1, 2)
	// Ideal: both relevant at top.
	almost(t, "nDCG ideal", NDCGAtK([]corpus.DocID{1, 2, 3}, relevant, 3), 1)
	// Relevant at positions 2 and 3.
	dcg := 1/math.Log2(3) + 1/math.Log2(4)
	ideal := 1/math.Log2(2) + 1/math.Log2(3)
	almost(t, "nDCG shifted", NDCGAtK([]corpus.DocID{7, 1, 2}, relevant, 3), dcg/ideal)
	almost(t, "nDCG k0", NDCGAtK([]corpus.DocID{1}, relevant, 0), 0)
}

func TestSyntheticQrels(t *testing.T) {
	spec := corpus.GenSpec{Seed: 71, NumDocs: 150, NumTopics: 6, DocLenMin: 40, DocLenMax: 70}
	c, gt, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := corpus.Workload(gt, corpus.WorkloadSpec{Seed: 72, NumQueries: 20})
	if err != nil {
		t.Fatal(err)
	}
	qrels, err := SyntheticQrels(c, queries, 0.5, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(qrels) != 20 {
		t.Fatalf("qrels for %d queries", len(qrels))
	}
	someRelevant := 0
	for _, q := range queries {
		if len(qrels[q.ID]) > 0 {
			someRelevant++
		}
		// Every judged-relevant doc must indeed have >= 0.5 affinity.
		for d := range qrels[q.ID] {
			mass := 0.0
			for _, topic := range q.TargetTopics {
				mass += c.Docs[d].TrueTopics[topic]
			}
			if mass < 0.5 {
				t.Fatalf("doc %d judged relevant with affinity %v", d, mass)
			}
		}
	}
	if someRelevant < 10 {
		t.Errorf("only %d/20 queries have any relevant docs", someRelevant)
	}
	if _, err := SyntheticQrels(nil, queries, 0.5, 0.3, nil); err == nil {
		t.Error("nil corpus must error")
	}
	if _, err := SyntheticQrels(c, queries, 2, 0.3, nil); err == nil {
		t.Error("bad affinity must error")
	}
	if _, err := SyntheticQrels(c, queries, 0.5, 2, nil); err == nil {
		t.Error("bad term fraction must error")
	}
}

func TestEvaluateAggregates(t *testing.T) {
	qrels := Qrels{
		0: rel(1, 2),
		1: rel(5),
		2: {}, // no relevant docs: excluded
	}
	rankings := map[int][]corpus.DocID{
		0: {1, 2}, // perfect
		1: {9, 5}, // relevant at rank 2
	}
	m := Evaluate(rankings, qrels)
	if m.Queries != 2 {
		t.Fatalf("aggregated %d queries", m.Queries)
	}
	almost(t, "MAP", m.MAP, (1.0+0.5)/2)
	if m.PrecisionAt10 <= 0 || m.RecallAt10 <= 0 || m.NDCGAt10 <= 0 {
		t.Errorf("zero metrics: %+v", m)
	}
	empty := Evaluate(nil, Qrels{})
	if empty.Queries != 0 {
		t.Error("empty evaluation should have 0 queries")
	}
}
