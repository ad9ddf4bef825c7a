package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"toppriv/internal/belief"
	"toppriv/internal/corpus"
	"toppriv/internal/lda"
	"toppriv/internal/textproc"
)

// fixture builds a corpus, LDA model and belief engine once per test
// binary; TopPriv tests only read from them.
type fixture struct {
	eng *belief.Engine
	gt  *corpus.GroundTruth
	an  *textproc.Analyzer
}

var sharedFixture *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if sharedFixture != nil {
		return sharedFixture
	}
	spec := corpus.GenSpec{Seed: 33, NumDocs: 400, NumTopics: 8, DocLenMin: 60, DocLenMax: 100}
	c, gt, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := lda.Train(c, lda.TrainSpec{NumTopics: 8, Iterations: 100, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	sharedFixture = &fixture{eng: engineOver(t, m), gt: gt, an: textproc.NewAnalyzer()}
	return sharedFixture
}

// engineOver wraps a model in a default inferencer and belief engine.
func engineOver(t *testing.T, m *lda.Model) *belief.Engine {
	t.Helper()
	inf, err := lda.NewInferencer(m, lda.InferSpec{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := belief.NewEngine(inf)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// topicQuery returns an analyzed query drawn from a topic's head words.
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

func defaultObfuscator(t *testing.T, f *fixture) *Obfuscator {
	t.Helper()
	// Thresholds scaled for a K=8 model: with α = 50/K smoothing a query
	// can shift posteriors by at most |q|/(|q|+50).
	o, err := NewObfuscator(f.eng, Params{Eps1: 0.04, Eps2: 0.015})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestParamsValidation(t *testing.T) {
	f := getFixture(t)
	bad := []Params{
		{Eps1: 0, Eps2: 0},
		{Eps1: -0.1, Eps2: 0.01},
		{Eps1: 1.5, Eps2: 0.01},
		{Eps1: 0.05, Eps2: 0},
		{Eps1: 0.05, Eps2: 0.06}, // ε2 > ε1 violates the model
		{Eps1: 0.05, Eps2: 0.01, MinLenMult: 2, MaxLenMult: 1},
	}
	for i, p := range bad {
		if _, err := NewObfuscator(f.eng, p); err == nil {
			t.Errorf("params %d (%+v): expected validation error", i, p)
		}
	}
	if _, err := NewObfuscator(nil, DefaultParams()); err == nil {
		t.Error("nil engine must error")
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("defaults must validate: %v", err)
	}
}

func TestObfuscateEmptyQuery(t *testing.T) {
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	if _, err := o.Obfuscate(nil, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty query must error")
	}
}

func TestObfuscateSuppressesIntention(t *testing.T) {
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	suppressed := 0
	total := 0
	for topic := 0; topic < 8; topic++ {
		q := f.topicQuery(topic, 12)
		cyc, err := o.Obfuscate(q, rand.New(rand.NewSource(int64(topic))))
		if err != nil {
			t.Fatal(err)
		}
		if len(cyc.Intention) == 0 {
			continue // query did not register an intention at ε1
		}
		total++
		if cyc.Satisfied {
			suppressed++
			if cyc.Exposure > o.Params().Eps2 {
				t.Errorf("topic %d: Satisfied but exposure %v > eps2", topic, cyc.Exposure)
			}
		}
		if cyc.Len() < 2 {
			t.Errorf("topic %d: intention present but no ghosts injected", topic)
		}
	}
	if total == 0 {
		t.Fatal("no query registered an intention; fixture thresholds wrong")
	}
	if suppressed < total/2 {
		t.Errorf("only %d/%d intentions suppressed to eps2", suppressed, total)
	}
}

func TestObfuscateMaskDominatesExposure(t *testing.T) {
	// Paper Figure 2a/2b: irrelevant topics should be promoted above the
	// relevant ones in the cycle.
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	dominated := 0
	cases := 0
	for topic := 0; topic < 8; topic++ {
		q := f.topicQuery(topic, 12)
		cyc, err := o.Obfuscate(q, rand.New(rand.NewSource(100+int64(topic))))
		if err != nil {
			t.Fatal(err)
		}
		if len(cyc.Intention) == 0 || cyc.Len() < 2 {
			continue
		}
		cases++
		if cyc.Mask > cyc.Exposure {
			dominated++
		}
	}
	if cases > 0 && dominated < cases/2 {
		t.Errorf("mask dominates exposure in only %d/%d cases", dominated, cases)
	}
}

func TestObfuscateUserQueryPreserved(t *testing.T) {
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	q := f.topicQuery(3, 10)
	cyc, err := o.Obfuscate(q, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cyc.UserQuery(), q) {
		t.Error("user query mutated by obfuscation")
	}
	if cyc.UserIndex < 0 || cyc.UserIndex >= cyc.Len() {
		t.Errorf("UserIndex %d out of range", cyc.UserIndex)
	}
}

func TestObfuscateDeterministic(t *testing.T) {
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	q := f.topicQuery(1, 10)
	c1, _ := o.Obfuscate(q, rand.New(rand.NewSource(77)))
	c2, _ := o.Obfuscate(q, rand.New(rand.NewSource(77)))
	if !reflect.DeepEqual(c1.Queries, c2.Queries) {
		t.Error("same seed produced different cycles")
	}
	if c1.UserIndex != c2.UserIndex {
		t.Error("same seed produced different shuffles")
	}
}

func TestGhostsAvoidIntentionTopics(t *testing.T) {
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	for topic := 0; topic < 4; topic++ {
		q := f.topicQuery(topic, 12)
		cyc, err := o.Obfuscate(q, rand.New(rand.NewSource(int64(200+topic))))
		if err != nil {
			t.Fatal(err)
		}
		inU := map[int]bool{}
		for _, t2 := range cyc.Intention {
			inU[t2] = true
		}
		for _, tm := range cyc.MaskingTopics {
			if inU[tm] {
				t.Errorf("masking topic %d is in the intention U", tm)
			}
		}
		// Tm and X must be disjoint.
		for _, tm := range cyc.MaskingTopics {
			for _, tx := range cyc.RejectedTopics {
				if tm == tx {
					t.Errorf("topic %d in both Tm and X", tm)
				}
			}
		}
	}
}

func TestGhostLengthsWithinMultiples(t *testing.T) {
	f := getFixture(t)
	o, err := NewObfuscator(f.eng, Params{Eps1: 0.04, Eps2: 0.015, MinLenMult: 1, MaxLenMult: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := f.topicQuery(0, 10)
	cyc, err := o.Obfuscate(q, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range cyc.Queries {
		if i == cyc.UserIndex {
			continue
		}
		if len(g) < len(q) || len(g) > 2*len(q) {
			t.Errorf("ghost %d length %d outside [%d, %d]", i, len(g), len(q), 2*len(q))
		}
	}
}

func TestFixedGhostLenAblation(t *testing.T) {
	f := getFixture(t)
	o, err := NewObfuscator(f.eng, Params{Eps1: 0.04, Eps2: 0.015, FixedGhostLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := o.Obfuscate(f.topicQuery(0, 12), rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range cyc.Queries {
		if i != cyc.UserIndex && len(g) != 5 {
			t.Errorf("ghost %d length %d, want 5", i, len(g))
		}
	}
}

func TestGhostWordsSemanticCoherence(t *testing.T) {
	// Definition 3: a coherent ghost's words should concentrate on one
	// topic — verify most accepted ghosts have their plurality of words
	// among the masking topic's top terms.
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	q := f.topicQuery(2, 12)
	cyc, err := o.Obfuscate(q, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Len() < 2 {
		t.Skip("no ghosts generated")
	}
	m := f.eng.Model()
	coherent := 0
	ghosts := 0
	gi := 0
	for i, g := range cyc.Queries {
		if i == cyc.UserIndex {
			continue
		}
		// Masking topics are recorded in acceptance order but the cycle
		// is shuffled; check the ghost against *any* masking topic.
		ghosts++
		gi++
		best := 0
		for _, tm := range cyc.MaskingTopics {
			top := map[string]bool{}
			for _, tw := range m.TopWords(tm, 60) {
				top[tw.Term] = true
			}
			hits := 0
			for _, w := range g {
				if top[w] {
					hits++
				}
			}
			if hits > best {
				best = hits
			}
		}
		if best*2 >= len(g) { // at least half the words from one topic head
			coherent++
		}
	}
	if coherent < (ghosts+1)/2 {
		t.Errorf("only %d/%d ghosts look semantically coherent", coherent, ghosts)
	}
}

func TestUniformWordsAblationLessCoherent(t *testing.T) {
	f := getFixture(t)
	q := f.topicQuery(2, 12)
	biased, _ := NewObfuscator(f.eng, Params{Eps1: 0.04, Eps2: 0.015})
	uniform, _ := NewObfuscator(f.eng, Params{Eps1: 0.04, Eps2: 0.015, UniformWords: true})
	cohB := ghostCoherence(t, biased, q, 13)
	cohU := ghostCoherence(t, uniform, q, 13)
	if cohU > cohB {
		t.Errorf("uniform sampling more coherent (%v) than biased (%v)?", cohU, cohB)
	}
}

// ghostCoherence returns the mean fraction of ghost words that fall in
// some model topic's top-40 word list.
func ghostCoherence(t *testing.T, o *Obfuscator, q []string, seed int64) float64 {
	t.Helper()
	cyc, err := o.Obfuscate(q, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	m := o.Engine().Model()
	tops := make([]map[string]bool, m.K)
	for k := 0; k < m.K; k++ {
		tops[k] = map[string]bool{}
		for _, tw := range m.TopWords(k, 40) {
			tops[k][tw.Term] = true
		}
	}
	total, n := 0.0, 0
	for i, g := range cyc.Queries {
		if i == cyc.UserIndex || len(g) == 0 {
			continue
		}
		best := 0
		for k := 0; k < m.K; k++ {
			hits := 0
			for _, w := range g {
				if tops[k][w] {
					hits++
				}
			}
			if hits > best {
				best = hits
			}
		}
		total += float64(best) / float64(len(g))
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func TestMaxCycleCap(t *testing.T) {
	f := getFixture(t)
	o, err := NewObfuscator(f.eng, Params{Eps1: 0.01, Eps2: 0.001, MaxCycle: 3})
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := o.Obfuscate(f.topicQuery(0, 12), rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Len() > 3 {
		t.Errorf("cycle length %d exceeds cap 3", cyc.Len())
	}
}

func TestTighterEps2NeedsMoreGhosts(t *testing.T) {
	// Figure 2c: cycle length grows as ε2 tightens.
	f := getFixture(t)
	loose, _ := NewObfuscator(f.eng, Params{Eps1: 0.04, Eps2: 0.04})
	tight, _ := NewObfuscator(f.eng, Params{Eps1: 0.04, Eps2: 0.005})
	looseLen, tightLen := 0, 0
	for topic := 0; topic < 8; topic++ {
		q := f.topicQuery(topic, 12)
		cl, err := loose.Obfuscate(q, rand.New(rand.NewSource(int64(300+topic))))
		if err != nil {
			t.Fatal(err)
		}
		ct, err := tight.Obfuscate(q, rand.New(rand.NewSource(int64(300+topic))))
		if err != nil {
			t.Fatal(err)
		}
		looseLen += cl.Len()
		tightLen += ct.Len()
	}
	if tightLen <= looseLen {
		t.Errorf("tight eps2 used %d total queries, loose used %d; expected more under tight",
			tightLen, looseLen)
	}
}

func TestCycleBoostConsistentWithBeliefEngine(t *testing.T) {
	// The Boost the cycle reports must equal recomputing Eq. 2 over its
	// queries (up to inference noise from different RNG draws).
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	q := f.topicQuery(4, 12)
	cyc, err := o.Obfuscate(q, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	recomputed := f.eng.CycleBoost(cyc.Queries, rand.New(rand.NewSource(16)))
	for t2 := range recomputed {
		diff := recomputed[t2] - cyc.Boost[t2]
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.05 {
			t.Errorf("topic %d boost %v vs recomputed %v", t2, cyc.Boost[t2], recomputed[t2])
		}
	}
}

func TestCycleDiagnostics(t *testing.T) {
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	q := append(f.topicQuery(0, 8), f.topicQuery(1, 8)...)
	cyc, err := o.Obfuscate(q, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	k := f.eng.NumTopics()
	for _, topic := range cyc.Intention {
		if topic < 0 || topic >= k {
			t.Errorf("intention topic %d out of range", topic)
		}
	}
	if len(cyc.Boost) != k {
		t.Errorf("Boost has %d entries, want %d", len(cyc.Boost), k)
	}
	if cyc.GenTime <= 0 {
		t.Error("GenTime not recorded")
	}
}

// TestObfuscatorSharedByGoroutines drives one obfuscator over a freshly
// loaded model from 8 goroutines, the way clients of one process share
// them: the model's first-use lookup structures and the inferencer's
// pooled scratch must hold up, and each goroutine must get the cycles a
// lone caller gets from the same seed. Run under -race.
func TestObfuscatorSharedByGoroutines(t *testing.T) {
	f := getFixture(t)
	var buf bytes.Buffer
	if err := f.eng.Model().Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := lda.Load(&buf) // nothing derived from it yet
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewObfuscator(engineOver(t, m), Params{Eps1: 0.04, Eps2: 0.015})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]string, f.eng.NumTopics())
	for topic := range queries {
		queries[topic] = f.topicQuery(topic, 4+topic)
	}
	digests := func(o *Obfuscator) ([]string, error) {
		rng := rand.New(rand.NewSource(21))
		var out []string
		for _, q := range queries {
			cyc, err := o.Obfuscate(q, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, cycleDigest(cyc))
		}
		return out, nil
	}
	want, err := digests(defaultObfuscator(t, f))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := digests(shared)
			if err != nil {
				t.Error(err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("a goroutine's cycles differ from a lone caller's")
			}
		}()
	}
	wg.Wait()
}
