package baseline

import (
	"math/rand"
	"testing"

	"toppriv/internal/belief"
	"toppriv/internal/corpus"
	"toppriv/internal/lda"
	"toppriv/internal/textproc"
)

type fixture struct {
	eng *belief.Engine
	gt  *corpus.GroundTruth
	an  *textproc.Analyzer
}

var shared *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if shared != nil {
		return shared
	}
	spec := corpus.GenSpec{Seed: 51, NumDocs: 400, NumTopics: 8, DocLenMin: 60, DocLenMax: 100}
	c, gt, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := lda.Train(c, lda.TrainSpec{NumTopics: 8, Iterations: 100, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	inf, err := lda.NewInferencer(m, lda.InferSpec{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := belief.NewEngine(inf)
	if err != nil {
		t.Fatal(err)
	}
	shared = &fixture{eng: eng, gt: gt, an: textproc.NewAnalyzer()}
	return shared
}

func (f *fixture) topicQuery(topic, n int) []string {
	var out []string
	for _, w := range f.gt.TopicWords[topic] {
		if term, ok := f.an.AnalyzeTerm(w); ok {
			out = append(out, term)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func TestNewPDXValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := NewPDX(nil, 2, 0.05); err == nil {
		t.Error("nil engine must error")
	}
	if _, err := NewPDX(f.eng, 0.5, 0.05); err == nil {
		t.Error("expansion < 1 must error")
	}
	if _, err := NewPDX(f.eng, 2, 0); err == nil {
		t.Error("bad eps1 must error")
	}
}

func TestPDXExpansionFactor(t *testing.T) {
	f := getFixture(t)
	for _, exp := range []float64{2, 4, 8} {
		p, err := NewPDX(f.eng, exp, 0.04)
		if err != nil {
			t.Fatal(err)
		}
		q := f.topicQuery(0, 10)
		qe, err := p.Embellish(q, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		want := int(exp * float64(len(q)))
		// Decoy picking can occasionally fail to find a fresh word;
		// allow a small shortfall but not overshoot.
		if len(qe) > want || len(qe) < want-3 {
			t.Errorf("expansion %v: |qe| = %d, want ≈%d", exp, len(qe), want)
		}
	}
}

func TestPDXPreservesGenuineTerms(t *testing.T) {
	f := getFixture(t)
	p, _ := NewPDX(f.eng, 4, 0.04)
	q := f.topicQuery(1, 8)
	qe, err := p.Embellish(q, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, w := range qe {
		set[w] = true
	}
	for _, w := range q {
		if !set[w] {
			t.Errorf("genuine term %q lost in embellishment", w)
		}
	}
}

func TestPDXReducesExposure(t *testing.T) {
	f := getFixture(t)
	p, _ := NewPDX(f.eng, 8, 0.04)
	reduced := 0
	cases := 0
	for topic := 0; topic < 8; topic++ {
		q := f.topicQuery(topic, 12)
		rng := rand.New(rand.NewSource(int64(10 + topic)))
		soloBoost := f.eng.Boost(q, rng)
		u := belief.Intention(soloBoost, 0.04)
		if len(u) == 0 {
			continue
		}
		cases++
		qe, err := p.Embellish(q, rng)
		if err != nil {
			t.Fatal(err)
		}
		embBoost := f.eng.Boost(qe, rng)
		if belief.Exposure(embBoost, u) < belief.Exposure(soloBoost, u) {
			reduced++
		}
	}
	if cases == 0 {
		t.Fatal("no intentions detected")
	}
	if reduced < cases/2 {
		t.Errorf("PDX reduced exposure in only %d/%d cases", reduced, cases)
	}
}

func TestPDXExpansionOneIsIdentity(t *testing.T) {
	f := getFixture(t)
	p, _ := NewPDX(f.eng, 1, 0.04)
	q := f.topicQuery(2, 6)
	qe, err := p.Embellish(q, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(qe) != len(q) {
		t.Errorf("expansion 1 should add no decoys: %d vs %d", len(qe), len(q))
	}
}

func TestPDXEmptyQuery(t *testing.T) {
	f := getFixture(t)
	p, _ := NewPDX(f.eng, 2, 0.04)
	if _, err := p.Embellish(nil, rand.New(rand.NewSource(4))); err == nil {
		t.Error("empty query must error")
	}
}

func TestPDXDeterministic(t *testing.T) {
	f := getFixture(t)
	p, _ := NewPDX(f.eng, 4, 0.04)
	q := f.topicQuery(3, 8)
	a, _ := p.Embellish(q, rand.New(rand.NewSource(5)))
	b, _ := p.Embellish(q, rand.New(rand.NewSource(5)))
	if len(a) != len(b) {
		t.Fatal("nondeterministic embellishment")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic embellishment")
		}
	}
}

func TestTrackMeNotValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := NewTrackMeNot(nil, 3, 2, 5); err == nil {
		t.Error("nil engine must error")
	}
	if _, err := NewTrackMeNot(f.eng, 0, 2, 5); err == nil {
		t.Error("zero ghosts must error")
	}
	if _, err := NewTrackMeNot(f.eng, 3, 5, 2); err == nil {
		t.Error("inverted bounds must error")
	}
}

func TestTrackMeNotCycle(t *testing.T) {
	f := getFixture(t)
	tmn, err := NewTrackMeNot(f.eng, 4, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	q := f.topicQuery(0, 6)
	cycle, userIdx, err := tmn.Cycle(q, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(cycle) != 5 {
		t.Fatalf("cycle length %d, want 5", len(cycle))
	}
	if userIdx < 0 || userIdx >= len(cycle) {
		t.Fatalf("userIdx %d out of range", userIdx)
	}
	for i, g := range cycle {
		if i == userIdx {
			continue
		}
		if len(g) < 3 || len(g) > 8 {
			t.Errorf("ghost %d length %d outside [3,8]", i, len(g))
		}
	}
	// User query preserved at its index.
	if cycle[userIdx][0] != q[0] {
		t.Error("user query not at userIdx")
	}
	if _, _, err := tmn.Cycle(nil, rand.New(rand.NewSource(7))); err == nil {
		t.Error("empty query must error")
	}
}
