package lda

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// trainSmall fits a model on a small synthetic corpus with clear topics.
func trainSmall(t *testing.T, k int, seed int64) (*Model, *corpus.Corpus, *corpus.GroundTruth) {
	t.Helper()
	c, gt := smallCorpus(t, seed)
	m, _, err := Train(c, TrainSpec{NumTopics: k, Iterations: 80, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m, c, gt
}

// fitSmall is trainSmall's training, returning the final sample as
// well as the model and the corpus: Θ is derived from the sample (theta).
func fitSmall(t *testing.T, k int, seed int64) (*Model, *gibbs, *corpus.Corpus) {
	t.Helper()
	c, _ := smallCorpus(t, seed)
	m, g, _, err := train(c, TrainSpec{NumTopics: k, Iterations: 80, Seed: seed}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m, g, c
}

func smallCorpus(t *testing.T, seed int64) (*corpus.Corpus, *corpus.GroundTruth) {
	t.Helper()
	spec := corpus.GenSpec{
		Seed:      seed,
		NumDocs:   300,
		NumTopics: 6,
		DocLenMin: 50,
		DocLenMax: 90,
	}
	c, gt, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, gt
}

func assertDistribution[F float32 | float64](t *testing.T, name string, p []F) {
	t.Helper()
	sum := 0.0
	for i, x := range p {
		v := float64(x)
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("%s[%d] = %v", name, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("%s sums to %v", name, sum)
	}
}

func TestTrainShapesAndDistributions(t *testing.T) {
	m, g, c := fitSmall(t, 6, 1)
	if m.K != 6 || m.V != c.VocabSize() {
		t.Fatalf("shape K=%d V=%d", m.K, m.V)
	}
	for tt := 0; tt < m.K; tt++ {
		assertDistribution(t, "Phi", m.Phi[tt])
	}
	theta := g.theta()
	for d := 0; d < 10; d++ {
		assertDistribution(t, "Theta", theta[d])
	}
	assertDistribution(t, "Prior", m.Prior)
	// Paper defaults: alpha = 50/K, beta = 0.1.
	if math.Abs(m.Alpha-50.0/6.0) > 1e-12 || m.Beta != 0.1 {
		t.Errorf("hyperparameters alpha=%v beta=%v", m.Alpha, m.Beta)
	}
}

func TestTrainDeterministic(t *testing.T) {
	m1, _, _ := trainSmall(t, 4, 7)
	m2, _, _ := trainSmall(t, 4, 7)
	for tt := 0; tt < m1.K; tt++ {
		for w := 0; w < m1.V; w++ {
			if m1.Phi[tt][w] != m2.Phi[tt][w] {
				t.Fatalf("Phi differs at (%d,%d) for identical seeds", tt, w)
			}
		}
	}
}

func TestTrainRecoversTopics(t *testing.T) {
	// With K equal to the ground-truth topic count, the fitted topics
	// should separate the themes: for most ground-truth topics, some LDA
	// topic's top words should be dominated by that theme's seeds.
	m, c, gt := trainSmall(t, 6, 3)
	matched := 0
	for g := 0; g < len(gt.TopicWords); g++ {
		// Build the analyzed form of the theme's seed words.
		seeds := map[string]bool{}
		an := textproc.NewAnalyzer()
		for _, w := range gt.TopicWords[g][:15] {
			if term, ok := an.AnalyzeTerm(w); ok {
				seeds[term] = true
			}
		}
		best := 0
		for tt := 0; tt < m.K; tt++ {
			hits := 0
			for _, tw := range m.TopWords(tt, 15) {
				if seeds[tw.Term] {
					hits++
				}
			}
			if hits > best {
				best = hits
			}
		}
		if best >= 6 {
			matched++
		}
	}
	if matched < 4 {
		t.Errorf("only %d/6 ground-truth topics recovered by LDA", matched)
	}
	_ = c
}

func TestTrainLikelihoodImproves(t *testing.T) {
	spec := corpus.GenSpec{Seed: 5, NumDocs: 150, NumTopics: 5, DocLenMin: 40, DocLenMax: 70}
	c, _, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := Train(c, TrainSpec{NumTopics: 5, Iterations: 60, Seed: 5, LogEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	ll := trace.LogLikelihood
	if len(ll) != 6 {
		t.Fatalf("expected 6 log points, got %d", len(ll))
	}
	if ll[len(ll)-1] <= ll[0] {
		t.Errorf("log-likelihood did not improve: first %v last %v", ll[0], ll[len(ll)-1])
	}
}

func TestTrainValidation(t *testing.T) {
	if _, _, err := Train(nil, TrainSpec{NumTopics: 4}); err == nil {
		t.Error("nil corpus must error")
	}
	c, _, _ := corpus.Synthesize(corpus.GenSpec{Seed: 1, NumDocs: 10, NumTopics: 3, DocLenMin: 10, DocLenMax: 20}, nil)
	if _, _, err := Train(c, TrainSpec{NumTopics: 1}); err == nil {
		t.Error("K=1 must error")
	}
	for _, spec := range badTrainSpecs() {
		if _, _, err := Train(c, spec); err == nil {
			t.Errorf("%+v must error", spec)
		}
	}
}

// badTrainSpecs are specs with a negative sweep count; zero would mean
// the default.
func badTrainSpecs() []TrainSpec {
	return []TrainSpec{{NumTopics: 3, Iterations: -1}}
}

func TestPriorMatchesThetaAverage(t *testing.T) {
	m, g, _ := fitSmall(t, 5, 11)
	theta := g.theta()
	for tt := 0; tt < m.K; tt++ {
		sum := 0.0
		for d := range theta {
			sum += theta[d][tt]
		}
		want := sum / float64(len(theta))
		if math.Abs(m.Prior[tt]-want) > 1e-9 {
			t.Fatalf("Prior[%d] = %v, want Eq.1 average %v", tt, m.Prior[tt], want)
		}
	}
}

func TestTopWords(t *testing.T) {
	m, _, _ := trainSmall(t, 5, 13)
	top := m.TopWords(0, 20)
	if len(top) != 20 {
		t.Fatalf("TopWords returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Weight < top[i].Weight {
			t.Fatal("TopWords not sorted")
		}
	}
	if m.TopWords(-1, 5) != nil || m.TopWords(m.K, 5) != nil {
		t.Error("out-of-range topic should return nil")
	}
	if got := m.TopWords(0, m.V+100); len(got) != m.V {
		t.Errorf("oversized n should clamp to V, got %d", len(got))
	}
}

func TestInferencePicksRightTopic(t *testing.T) {
	m, _, gt := trainSmall(t, 6, 17)
	inf, err := NewInferencer(m, InferSpec{})
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	// A query composed purely of finance head words must shift the
	// posterior strongly toward one (the finance-aligned) topic.
	// With the paper's α = 50/K smoothing, a bag of n tokens can shift
	// the posterior by at most n/(n+50); use a long query so the signal
	// clears the smoothing floor.
	var terms []string
	for _, w := range gt.TopicWords[0][:16] {
		if term, ok := an.AnalyzeTerm(w); ok {
			terms = append(terms, term)
		}
	}
	post := inf.PosteriorTerms(terms)
	assertDistribution(t, "posterior", post)
	maxBoost := 0.0
	for tt := range post {
		if b := post[tt] - m.Prior[tt]; b > maxBoost {
			maxBoost = b
		}
	}
	if maxBoost < 0.05 {
		t.Errorf("focused query boosted no topic strongly: max boost %v", maxBoost)
	}
}

func TestInferenceEmptyBagReturnsPrior(t *testing.T) {
	m, _, _ := trainSmall(t, 4, 19)
	inf, _ := NewInferencer(m, InferSpec{})
	post := inf.Posterior(nil)
	for tt := range post {
		if post[tt] != m.Prior[tt] {
			t.Fatal("empty bag must return the prior")
		}
	}
	// Unknown terms only -> also prior.
	post = inf.PosteriorTerms([]string{"zzzznotaword"})
	for tt := range post {
		if post[tt] != m.Prior[tt] {
			t.Fatal("OOV-only query must return the prior")
		}
	}
}

func TestInferenceDeterministic(t *testing.T) {
	m, _, gt := trainSmall(t, 4, 23)
	terms := gt.TopicWords[1][:4]
	a, _ := NewInferencer(m, InferSpec{})
	b, _ := NewInferencer(m, InferSpec{})
	if p1, p2 := a.PosteriorTerms(terms), b.PosteriorTerms(terms); !sameBits(p1, p2) {
		t.Fatalf("two inferencers over one model disagree:\n%v\n%v", p1, p2)
	}
}

func TestNewInferencerValidation(t *testing.T) {
	if _, err := NewInferencer(nil, InferSpec{}); err == nil {
		t.Error("nil model must error")
	}
	if _, err := NewInferencer(&Model{K: 0}, InferSpec{}); err == nil {
		t.Error("invalid model must error")
	}
	m, _, _ := trainSmall(t, 3, 5)
	for _, spec := range []InferSpec{{Iterations: -1}, {Iterations: -20}} {
		if _, err := NewInferencer(m, spec); err == nil {
			t.Errorf("%+v must error", spec)
		}
	}
	// Zero means the default, and one pass is the initial
	// responsibilities refined once: both give a distribution, never NaN.
	for _, spec := range []InferSpec{{}, {Iterations: 1}} {
		inf, err := NewInferencer(m, spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		assertDistribution(t, "posterior", inf.Posterior([]int{0, 1, 2}))
	}
}

// TestSaveLoadRoundTrip holds Save→Load to the model bit for bit, and
// saving the loaded model to the same bytes.
func TestSaveLoadRoundTrip(t *testing.T) {
	m, _, _ := trainSmall(t, 4, 29)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(buf.Bytes())
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameModelBits(m2, m); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := m2.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Error("the loaded model saves to other bytes")
	}
	if m2.TermID(m.Terms[0]) != 0 {
		t.Error("TermID lookup broken after load")
	}
}

// TestLoadModelWithTheta loads a model file saved while models still
// carried Pr(t|d) for every training document: it must load, and hold
// what training the same corpus gives now.
func TestLoadModelWithTheta(t *testing.T) {
	f, err := os.Open("testdata/model_with_theta.gob")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	c := bagsCorpus(6, []textproc.TermID{3, 3, 3, 1, 3}, []textproc.TermID{5, 5, 0, 5}, []textproc.TermID{1, 1, 2, 4, 1, 1})
	want, _, err := Train(c, TrainSpec{NumTopics: 3, Iterations: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameModelBits(got, want); err != nil {
		t.Fatal(err)
	}
	if got.TermID("w4") != 4 || got.TermID("w6") != -1 {
		t.Errorf("TermID after load: w4 → %d, w6 → %d", got.TermID("w4"), got.TermID("w6"))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("garbage must be rejected")
	}
}

// TestLoadRefusesPoisonedValues crafts model files whose shapes are
// right but whose numbers are not distributions or priors, or do not fit
// Φ's float32, one per refusal; the clean file they start from loads.
// The poison goes into the file's float64 wire form, where any value can
// be written.
func TestLoadRefusesPoisonedValues(t *testing.T) {
	m, _, _ := trainSmall(t, 3, 29)
	var clean bytes.Buffer
	if err := m.Save(&clean); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(clean.Bytes())); err != nil {
		t.Fatalf("clean model refused: %v", err)
	}
	scale := func(p []float64, f float64) {
		for i := range p {
			p[i] *= f
		}
	}
	cases := []struct {
		name   string
		poison func(m *modelWire)
		want   string
	}{
		{"phi NaN", func(m *modelWire) { m.Phi[1][2] = math.NaN() }, fmt.Sprintf("topic 1, word 2 %q = NaN", m.Terms[2])},
		{"phi negative", func(m *modelWire) { m.Phi[0][1] = -1e-9 }, fmt.Sprintf("topic 0, word 1 %q = -1e-09", m.Terms[1])},
		{"phi infinite", func(m *modelWire) { m.Phi[2][0] = math.Inf(1) }, fmt.Sprintf("topic 2, word 0 %q = +Inf", m.Terms[0])},
		{"phi beyond float32", func(m *modelWire) { m.Phi[1][0] = 1e39 }, fmt.Sprintf("topic 1, word 0 %q = 1e+39, beyond float32's range", m.Terms[0])},
		{"phi beyond float32, negative", func(m *modelWire) { m.Phi[0][2] = -math.MaxFloat64 }, fmt.Sprintf("topic 0, word 2 %q = -1.7976931348623157e+308, beyond float32's range", m.Terms[2])},
		{"phi row sum", func(m *modelWire) { scale(m.Phi[2], 1.001) }, "Phi of topic 2 sums to"},
		{"prior NaN", func(m *modelWire) { m.Prior[0] = math.NaN() }, "Prior[0] = NaN"},
		{"prior negative", func(m *modelWire) { m.Prior[1] = -0.5 }, "Prior[1] = -0.5"},
		{"prior sum", func(m *modelWire) { scale(m.Prior, 0.99) }, "Prior sums to"},
		{"alpha zero", func(m *modelWire) { m.Alpha = 0 }, "Alpha = 0"},
		{"alpha NaN", func(m *modelWire) { m.Alpha = math.NaN() }, "Alpha = NaN"},
		{"alpha infinite", func(m *modelWire) { m.Alpha = math.Inf(1) }, "Alpha = +Inf"},
		{"beta negative", func(m *modelWire) { m.Beta = -0.1 }, "Beta = -0.1"},
		{"beta NaN", func(m *modelWire) { m.Beta = math.NaN() }, "Beta = NaN"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var bad modelWire
			if err := gob.NewDecoder(bytes.NewReader(clean.Bytes())).Decode(&bad); err != nil {
				t.Fatal(err)
			}
			c.poison(&bad)
			var file bytes.Buffer
			if err := gob.NewEncoder(&file).Encode(bad); err != nil {
				t.Fatal(err)
			}
			_, err := Load(&file)
			if err == nil {
				t.Fatal("poisoned model loaded")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not say %q", err, c.want)
			}
		})
	}
}

func TestSizeBytesDominatedByPhi(t *testing.T) {
	m, _, _ := trainSmall(t, 6, 31)
	min := int64(m.K) * int64(m.V) * 4
	if m.ClientSizeBytes() < min {
		t.Errorf("ClientSizeBytes %d below Phi floor %d", m.ClientSizeBytes(), min)
	}
}

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestClientSizeIsResident holds ClientSizeBytes to the heap a model
// retains once it has served an inferencer and a term lookup, at the
// system benchmark's training shape (K = 32, 1 500 documents): within
// 10 %. Pr(t|d) for those documents was about a third of Φ, so no
// per-document structure can come back unnoticed.
func TestClientSizeIsResident(t *testing.T) {
	// Whatever synthesis keeps for the process is made before the
	// baseline.
	if _, _, err := corpus.Synthesize(corpus.GenSpec{Seed: 2, NumDocs: 2, NumTopics: 2}, nil); err != nil {
		t.Fatal(err)
	}
	var m *Model
	var inf *Inferencer
	before := liveHeap()
	func() {
		c, _, err := corpus.Synthesize(corpus.GenSpec{Seed: 1, NumDocs: 1500, NumTopics: 32, WordsPerTopic: 150, SharedWords: 200}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m, err = TrainParallel(c, TrainSpec{NumTopics: 32, Iterations: 2, Seed: 1}, 2); err != nil {
			t.Fatal(err)
		}
		if inf, err = NewInferencer(m, InferSpec{}); err != nil {
			t.Fatal(err)
		}
		if m.TermID(m.Terms[m.V/2]) != m.V/2 {
			t.Fatal("TermID misses a model term")
		}
	}()
	held := liveHeap() - before
	runtime.KeepAlive(inf)
	want := m.ClientSizeBytes()
	t.Logf("K=%d V=%d: %d B held, ClientSizeBytes %d", m.K, m.V, held, want)
	if d := float64(held-want) / float64(want); math.Abs(d) > 0.10 {
		t.Errorf("the model holds %d B of heap, ClientSizeBytes says %d (%+.1f %%)", held, want, 100*d)
	}
}

// TestTermIDFindsEveryTerm checks the sorted lookup against the terms
// themselves, in and out of vocabulary.
func TestTermIDFindsEveryTerm(t *testing.T) {
	m, _, _ := trainSmall(t, 3, 41)
	for id, term := range m.Terms {
		if got := m.TermID(term); got != id {
			t.Fatalf("TermID(%q) = %d, want %d", term, got, id)
		}
		if got := m.TermID(term + "\x00"); got != -1 {
			t.Fatalf("TermID(%q) = %d, want -1", term+"\x00", got)
		}
	}
	sorted := slices.Sorted(slices.Values(m.Terms))
	if m.TermID("") != -1 || m.TermID(sorted[0][:len(sorted[0])-1]) != -1 || m.TermID(sorted[len(sorted)-1]+"z") != -1 {
		t.Error("a term outside the dictionary's range resolves")
	}
}

func TestBagFromTerms(t *testing.T) {
	m, _, _ := trainSmall(t, 4, 37)
	terms := []string{m.Terms[0], "zzz-not-present", m.Terms[1]}
	bag := m.BagFromTerms(terms)
	if len(bag) != 2 || bag[0] != 0 || bag[1] != 1 {
		t.Errorf("BagFromTerms = %v", bag)
	}
}

// testAnalyzer returns the default analyzer for test helpers.
func testAnalyzer() *textproc.Analyzer { return textproc.NewAnalyzer() }
