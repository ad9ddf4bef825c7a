package belief

import (
	"math"
	"math/rand"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/lda"
	"toppriv/internal/textproc"
)

func testEngine(t *testing.T) (*Engine, *corpus.GroundTruth) {
	t.Helper()
	spec := corpus.GenSpec{Seed: 21, NumDocs: 300, NumTopics: 6, DocLenMin: 50, DocLenMax: 90}
	c, gt, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := lda.Train(c, lda.TrainSpec{NumTopics: 6, Iterations: 80, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	inf, err := lda.NewInferencer(m, lda.InferSpec{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(inf)
	if err != nil {
		t.Fatal(err)
	}
	return e, gt
}

// analyzedHead returns the analyzed form of a topic's head words.
func analyzedHead(gt *corpus.GroundTruth, topic, n int) []string {
	an := textproc.NewAnalyzer()
	var out []string
	for _, w := range gt.TopicWords[topic] {
		if term, ok := an.AnalyzeTerm(w); ok {
			out = append(out, term)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func TestNewEngineNil(t *testing.T) {
	if _, err := NewEngine(nil); err == nil {
		t.Error("nil inferencer must error")
	}
}

func TestBoostSumsToZero(t *testing.T) {
	e, gt := testEngine(t)
	rng := rand.New(rand.NewSource(1))
	boost := e.Boost(analyzedHead(gt, 0, 10), rng)
	sum := 0.0
	for _, b := range boost {
		sum += b
	}
	// Posterior and prior both sum to 1, so boosts sum to ~0.
	if math.Abs(sum) > 1e-9 {
		t.Errorf("boosts sum to %v, want 0", sum)
	}
}

func TestIntentionIdentifiesQueriedTopic(t *testing.T) {
	e, gt := testEngine(t)
	rng := rand.New(rand.NewSource(2))
	terms := analyzedHead(gt, 0, 14)
	boost := e.Boost(terms, rng)
	u := Intention(boost, 0.02)
	if len(u) == 0 {
		t.Fatal("focused query produced empty intention at eps1=2%")
	}
	// U is sorted by descending boost.
	for i := 1; i < len(u); i++ {
		if boost[u[i-1]] < boost[u[i]] {
			t.Fatal("Intention not sorted by boost")
		}
	}
	// Every member exceeds the threshold.
	for _, topic := range u {
		if boost[topic] <= 0.02 {
			t.Fatal("Intention contains sub-threshold topic")
		}
	}
}

func TestCyclePosteriorIsAverage(t *testing.T) {
	e, gt := testEngine(t)
	q1 := analyzedHead(gt, 0, 8)
	q2 := analyzedHead(gt, 1, 8)
	// Same RNG stream order as CyclePosterior uses.
	rngA := rand.New(rand.NewSource(3))
	p1 := e.Posterior(q1, rngA)
	p2 := e.Posterior(q2, rngA)
	rngB := rand.New(rand.NewSource(3))
	cp := e.CyclePosterior([][]string{q1, q2}, rngB)
	for t2 := range cp {
		want := (p1[t2] + p2[t2]) / 2
		if math.Abs(cp[t2]-want) > 1e-12 {
			t.Fatalf("Eq.2 violated at topic %d: %v vs %v", t2, cp[t2], want)
		}
	}
}

// TestPosteriorBagMatchesTerms: a query held as word IDs must get the
// posterior its terms get, from the same draws.
func TestPosteriorBagMatchesTerms(t *testing.T) {
	e, gt := testEngine(t)
	q := append(analyzedHead(gt, 2, 6), "zzzznotaword")
	byTerms := e.Posterior(q, rand.New(rand.NewSource(4)))
	byIDs := e.PosteriorBag(e.Model().BagFromTerms(q), rand.New(rand.NewSource(4)))
	for t2 := range byTerms {
		if byTerms[t2] != byIDs[t2] {
			t.Fatalf("topic %d: %v by terms, %v by IDs", t2, byTerms[t2], byIDs[t2])
		}
	}
}

func TestCyclePosteriorEmpty(t *testing.T) {
	e, _ := testEngine(t)
	rng := rand.New(rand.NewSource(4))
	cp := e.CyclePosterior(nil, rng)
	prior := e.Prior()
	for i := range cp {
		if cp[i] != prior[i] {
			t.Fatal("empty cycle must return the prior")
		}
	}
}

func TestGhostQuerySuppressesBoost(t *testing.T) {
	// Mixing in a query on a different topic must reduce the genuine
	// topic's cycle boost relative to the solo query — the basic
	// mechanism TopPriv relies on.
	e, gt := testEngine(t)
	genuine := analyzedHead(gt, 0, 10)
	ghost := analyzedHead(gt, 2, 10)
	rng1 := rand.New(rand.NewSource(5))
	solo := e.Boost(genuine, rng1)
	u := Intention(solo, 0.01)
	if len(u) == 0 {
		t.Skip("no intention detected; corpus too noisy at this seed")
	}
	rng2 := rand.New(rand.NewSource(5))
	mixed := e.CycleBoost([][]string{genuine, ghost}, rng2)
	if Exposure(mixed, u) >= Exposure(solo, u) {
		t.Errorf("ghost query did not reduce exposure: solo %v mixed %v",
			Exposure(solo, u), Exposure(mixed, u))
	}
}

func TestMetricsSmall(t *testing.T) {
	boost := []float64{0.10, -0.02, 0.30, 0.05, -0.01}
	u := Intention(boost, 0.06)
	if len(u) != 2 || u[0] != 2 || u[1] != 0 {
		t.Fatalf("Intention = %v", u)
	}
	if got := Exposure(boost, u); got != 0.30 {
		t.Errorf("Exposure = %v", got)
	}
	if got := MaskLevel(boost, u); got != 0.05 {
		t.Errorf("MaskLevel = %v", got)
	}
	if got := MaxRank(boost, u); got != 1 {
		t.Errorf("MaxRank = %v", got)
	}
	if Exposure(boost, nil) != 0 {
		t.Error("empty-U exposure should be 0")
	}
	if MaxRank(boost, nil) != 0 {
		t.Error("empty-U MaxRank should be 0")
	}
}

func TestMaskLevelWithNegativeBoosts(t *testing.T) {
	// When all non-U topics have negative boost, MaskLevel must still
	// report their max (a negative number), not zero.
	boost := []float64{0.2, -0.05, -0.10}
	u := []int{0}
	if got := MaskLevel(boost, u); got != -0.05 {
		t.Errorf("MaskLevel = %v, want -0.05", got)
	}
}

func TestMaxRankBuriedTopic(t *testing.T) {
	boost := []float64{0.5, 0.4, 0.3, 0.01}
	u := []int{3}
	if got := MaxRank(boost, u); got != 4 {
		t.Errorf("MaxRank = %v, want 4", got)
	}
}

func TestSatisfies(t *testing.T) {
	cycle := []float64{0.005, 0.05, 0.002}
	u := []int{0, 2}
	if !Satisfies(cycle, u, 0.01) {
		t.Error("cycle within eps2 must satisfy")
	}
	if Satisfies(cycle, []int{1}, 0.01) {
		t.Error("exposed topic must fail")
	}
	if !Satisfies(cycle, nil, 0) {
		t.Error("empty U trivially satisfies")
	}
}

func TestBoostOfLengths(t *testing.T) {
	got := BoostOf([]float64{0.6, 0.4}, []float64{0.5, 0.5})
	if len(got) != 2 || math.Abs(got[0]-0.1) > 1e-15 || math.Abs(got[1]+0.1) > 1e-15 {
		t.Errorf("BoostOf = %v", got)
	}
}
