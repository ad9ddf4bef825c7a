package core

import (
	"math"
	"math/rand"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/lda"
	"toppriv/internal/textproc"
)

// longChainPosterior estimates Pr(t|bag) the way an adversary holding
// the model could without the client's estimator: a collapsed Gibbs
// fold-in of `sweeps` sweeps against Φ, averaging every sweep after
// the first `burnIn`.
func longChainPosterior(m *lda.Model, bag []int, sweeps, burnIn int, rng *rand.Rand) []float64 {
	k := m.K
	out := make([]float64, k)
	if len(bag) == 0 {
		copy(out, m.Prior)
		return out
	}
	// Φ's columns for the bag's words, gathered once: a draw then reads
	// K adjacent weights instead of K rows of Φ.
	cols := make([]float64, len(bag)*k)
	for t, row := range m.Phi {
		for i, w := range bag {
			cols[i*k+t] = float64(row[w])
		}
	}
	w8 := make([]float64, k)
	draw := func(i int, counts []float64) int {
		total := 0.0
		for t, phi := range cols[i*k : (i+1)*k] {
			w8[t] = phi * (counts[t] + m.Alpha)
			total += w8[t]
		}
		u := rng.Float64() * total
		for t := 0; t < k-1; t++ {
			if u -= w8[t]; u < 0 {
				return t
			}
		}
		return k - 1
	}
	// With no other token placed, a draw is ∝ Φ[·][w].
	none := make([]float64, k)
	counts := make([]float64, k)
	assign := make([]int, len(bag))
	for i := range bag {
		assign[i] = draw(i, none)
		counts[assign[i]]++
	}
	denom := float64(len(bag)) + float64(k)*m.Alpha
	for sweep := 0; sweep < sweeps; sweep++ {
		for i := range bag {
			counts[assign[i]]--
			assign[i] = draw(i, counts)
			counts[assign[i]]++
		}
		if sweep >= burnIn {
			for t := range out {
				out[t] += (counts[t] + m.Alpha) / denom
			}
		}
	}
	for t := range out {
		out[t] /= float64(sweeps - burnIn)
	}
	return out
}

// reestimatedExposure is max{B(t|C) : t ∈ U} with every member of the
// cycle re-estimated by a long chain.
func reestimatedExposure(m *lda.Model, c *Cycle, sweeps, burnIn int, rng *rand.Rand) float64 {
	post := make([]float64, m.K)
	for _, q := range c.Queries {
		for t, p := range longChainPosterior(m, m.BagFromTerms(q), sweeps, burnIn, rng) {
			post[t] += p
		}
	}
	exp := math.Inf(-1)
	for _, t := range c.Intention {
		exp = math.Max(exp, post[t]/float64(len(c.Queries))-m.Prior[t])
	}
	return exp
}

// TestCyclesHoldUnderLongChainReestimate is the (ε1, ε2) guarantee as
// an adversary who trains the same topic model checks it: every
// intention topic of every cycle, Obfuscate's and a Session's, stays
// at or below ε2 when each member's posterior is re-estimated by an
// independent long Gibbs chain, on the benchmark's model shape.
//
// The re-estimate is noisy itself: over the first spreadCycles cycles
// a second, independent chain differs from the first by at most 0.00016
// (0.00022 over all 104). tol is more than twice that, and the test
// fails if the spread exceeds tol/2, so a reference too noisy to judge
// by cannot pass. A generator that stops a cycle just under ε2 on a
// sampled estimate of its own fails: with a 40-sweep Gibbs fold-in, 20
// of these 104 cycles re-estimate above ε2, 5 of them by more than tol
// (worst 0.01113). With Posterior's fixed point, one does, at 0.01003.
func TestCyclesHoldUnderLongChainReestimate(t *testing.T) {
	const (
		perMode            = 60
		longSweeps, burnIn = 1500, 100
		tol                = 0.0005
		// spreadCycles are re-estimated twice, by independent chains.
		spreadCycles = 30
	)
	an := textproc.NewAnalyzer()
	c, gt, err := corpus.Synthesize(corpus.GenSpec{Seed: 1, NumDocs: 1500, NumTopics: 32, WordsPerTopic: 150, SharedWords: 200}, an)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := lda.Train(c, lda.TrainSpec{NumTopics: 32, Iterations: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	obf, err := NewObfuscator(engineOver(t, m), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(obf)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := corpus.Workload(gt, corpus.WorkloadSpec{Seed: 7, NumQueries: 2 * perMode, MinTerms: 2, MaxTerms: 20})
	if err != nil {
		t.Fatal(err)
	}
	eps2 := obf.Params().Eps2
	gen := rand.New(rand.NewSource(11))
	ref1, ref2 := rand.New(rand.NewSource(13)), rand.New(rand.NewSource(17))
	var above, checked int
	worst, spread := math.Inf(-1), 0.0
	for i, q := range qs {
		terms := an.Analyze(q.Text())
		if len(terms) == 0 {
			continue
		}
		obfuscate, mode := obf.Obfuscate, "Obfuscate"
		if i >= perMode {
			obfuscate, mode = sess.Obfuscate, "Session"
		}
		cyc, err := obfuscate(terms, gen)
		if err != nil {
			t.Fatal(err)
		}
		if len(cyc.Intention) == 0 || !cyc.Satisfied {
			continue
		}
		checked++
		e1 := reestimatedExposure(m, cyc, longSweeps, burnIn, ref1)
		if checked <= spreadCycles {
			e2 := reestimatedExposure(m, cyc, longSweeps, burnIn, ref2)
			spread = math.Max(spread, math.Abs(e1-e2))
		}
		worst = math.Max(worst, e1)
		if e1 > eps2 {
			above++
		}
		if e1 > eps2+tol {
			t.Errorf("%s cycle %d (υ=%d, U=%v): re-estimated exposure %.5f, generator's %.5f, above ε2 = %v by more than %v",
				mode, i, cyc.Len(), cyc.Intention, e1, cyc.Exposure, eps2, tol)
		}
	}
	t.Logf("%d cycles: %d above ε2 under re-estimation, worst %.5f; chain-to-chain spread %.5f", checked, above, worst, spread)
	if spread > tol/2 {
		t.Errorf("two re-estimates of one cycle differ by %.5f: the reference is too noisy for tol = %v", spread, tol)
	}
	if checked < perMode {
		t.Errorf("only %d of %d cycles had an intention and were satisfied", checked, 2*perMode)
	}
}
