package lda

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// posteriorRef is the fold-in fixed point written the plain way: it
// reads m.Phi[t][w] in place, keeps each token's responsibilities in a
// slice of its own and takes the N −= γ_i, update, N += γ_i steps one
// loop at a time. Kept as the oracle Inferencer.Posterior must match
// bit for bit.
func posteriorRef(m *Model, spec InferSpec, bag []int) []float64 {
	spec = spec.withDefaults()
	k := m.K
	out := make([]float64, k)
	if len(bag) == 0 {
		copy(out, m.Prior)
		return out
	}
	words := append([]int(nil), bag...)
	sort.Ints(words)
	gamma := make([][]float64, len(words))
	counts := make([]float64, k)
	for i, w := range words {
		total := 0.0
		for t := 0; t < k; t++ {
			total += float64(m.Phi[t][w])
		}
		inv := 1 / total
		gamma[i] = make([]float64, k)
		for t := 0; t < k; t++ {
			gamma[i][t] = float64(float64(m.Phi[t][w]) * inv)
			counts[t] += gamma[i][t]
		}
	}
	for pass := 0; pass < spec.Iterations; pass++ {
		for i, w := range words {
			g := gamma[i]
			for t := 0; t < k; t++ {
				counts[t] -= g[t]
			}
			total := 0.0
			for t := 0; t < k; t++ {
				g[t] = float64(float64(m.Phi[t][w]) * (counts[t] + m.Alpha))
				total += g[t]
			}
			inv := 1 / total
			for t := 0; t < k; t++ {
				g[t] = float64(g[t] * inv)
			}
			for t := 0; t < k; t++ {
				counts[t] += g[t]
			}
		}
	}
	denom := float64(len(words)) + float64(float64(k)*m.Alpha)
	for t := 0; t < k; t++ {
		out[t] = (counts[t] + m.Alpha) / denom
	}
	return out
}

// gibbsPosterior is the collapsed Gibbs fold-in: each token starts at a
// topic drawn ∝ Φ[·][w], every sweep redraws every token ∝
// Φ[t][w]·(n_t¬i + α), and the last `samples` of `sweeps` sweeps are
// averaged. At thousands of sweeps it is the long-chain reference
// Posterior's accuracy is measured against; at 40 sweeps and 10 samples
// it is a short chain to compare with.
func gibbsPosterior(m *Model, bag []int, sweeps, samples int, rng *rand.Rand) []float64 {
	k := m.K
	out := make([]float64, k)
	if len(bag) == 0 {
		copy(out, m.Prior)
		return out
	}
	probs := make([]float64, k)
	pick := func(total float64) int {
		u := rng.Float64() * total
		for t := 0; t < k-1; t++ {
			if u -= probs[t]; u < 0 {
				return t
			}
		}
		return k - 1
	}
	counts := make([]float64, k)
	assign := make([]int, len(bag))
	for i, w := range bag {
		total := 0.0
		for t := range probs {
			probs[t] = float64(m.Phi[t][w])
			total += probs[t]
		}
		assign[i] = pick(total)
		counts[assign[i]]++
	}
	denom := float64(len(bag)) + float64(float64(k)*m.Alpha)
	for sweep := 0; sweep < sweeps; sweep++ {
		for i, w := range bag {
			counts[assign[i]]--
			total := 0.0
			for t := range probs {
				probs[t] = float64(m.Phi[t][w]) * (counts[t] + m.Alpha)
				total += probs[t]
			}
			assign[i] = pick(total)
			counts[assign[i]]++
		}
		if sweep >= sweeps-samples {
			for t := 0; t < k; t++ {
				out[t] += (counts[t] + m.Alpha) / denom
			}
		}
	}
	for t := range out {
		out[t] /= float64(samples)
	}
	return out
}

func sameBits[F float32 | float64](a, b []F) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return false
		}
	}
	return true
}

// randomBags mixes sizes so pooled scratch is reused by both larger and
// smaller bags, and draws with replacement so words repeat.
func randomBags(m *Model, n int, rng *rand.Rand) [][]int {
	bags := [][]int{nil, {}, {0}, {m.V - 1, m.V - 1, m.V - 1}}
	for len(bags) < n {
		bag := make([]int, rng.Intn(30))
		pool := 1 + rng.Intn(m.V)
		for i := range bag {
			bag[i] = rng.Intn(pool)
		}
		bags = append(bags, bag)
	}
	return bags
}

// sparseModel is a hand-built model whose Φ has exact zeros, so some
// topics get no responsibility at all, and a topic count that is not a
// power of two.
func sparseModel() *Model {
	const k, v = 9, 70
	rng := rand.New(rand.NewSource(59))
	m := &Model{K: k, V: v, Alpha: 50.0 / k, Beta: 0.1, Prior: make([]float64, k), Terms: make([]string, v)}
	for t := 0; t < k; t++ {
		row := make([]float32, v)
		for w := range row {
			if rng.Intn(3) > 0 {
				row[w] = float32(rng.Float64())
			}
		}
		m.Phi = append(m.Phi, row)
		m.Prior[t] = 1.0 / k
	}
	for w := range m.Terms {
		m.Terms[w] = "w" + string(rune('a'+w/26)) + string(rune('a'+w%26))
	}
	return m
}

func TestPosteriorMatchesReferenceBitForBit(t *testing.T) {
	trained, _, _ := trainSmall(t, 7, 29)
	for _, m := range []*Model{trained, sparseModel()} {
		for _, spec := range []InferSpec{{}, {Iterations: 1}, {Iterations: 12}} {
			inf, err := NewInferencer(m, spec)
			if err != nil {
				t.Fatal(err)
			}
			for i, bag := range randomBags(m, 400, rand.New(rand.NewSource(37))) {
				got, want := inf.Posterior(bag), posteriorRef(m, spec, bag)
				if !sameBits(got, want) {
					t.Fatalf("K=%d, spec %+v, bag %d %v:\n got %v\nwant %v", m.K, spec, i, bag, got, want)
				}
				assertDistribution(t, "posterior", got)
			}
		}
	}
}

func TestPosteriorTermsMatchesReference(t *testing.T) {
	m, _, _ := trainSmall(t, 5, 41)
	inf, err := NewInferencer(m, InferSpec{})
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]string{
		{"zzzznotaword", "alsonotaword"}, // OOV only: the prior
		{m.Terms[3], "zzzznotaword", m.Terms[3], m.Terms[m.V-1]},
		{m.Terms[0]},
	}
	for _, q := range queries {
		got := inf.PosteriorTerms(q)
		want := posteriorRef(m, InferSpec{}, m.BagFromTerms(q))
		if !sameBits(got, want) {
			t.Errorf("query %v:\n got %v\nwant %v", q, got, want)
		}
	}
}

// TestPosteriorIgnoresWordOrder holds the posterior to the bag: any
// order of the same words gives the same bits, so no party needs to
// know the order a client wrote a query in to recompute its belief.
func TestPosteriorIgnoresWordOrder(t *testing.T) {
	m, _, _ := trainSmall(t, 7, 31)
	inf, err := NewInferencer(m, InferSpec{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for i, bag := range randomBags(m, 200, rng) {
		want := inf.Posterior(bag)
		for r := 0; r < 3; r++ {
			shuffled := append([]int(nil), bag...)
			rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			if got := inf.Posterior(shuffled); !sameBits(got, want) {
				t.Fatalf("bag %d %v reordered as %v:\n got %v\nwant %v", i, bag, shuffled, got, want)
			}
		}
	}
}

// TestModelSharedByGoroutines has goroutines make the first use of a
// fresh model's lookup structures at once — what clients sharing one
// model do — and infer through one Inferencer, whose pooled scratch must
// never leak between calls. Run under -race.
func TestModelSharedByGoroutines(t *testing.T) {
	m, _, _ := trainSmall(t, 5, 47)
	inf, err := NewInferencer(m, InferSpec{})
	if err != nil {
		t.Fatal(err)
	}
	terms := []string{m.Terms[1], m.Terms[2], "zzzznotaword", m.Terms[m.V/2]}
	want := posteriorRef(m, InferSpec{}, []int{1, 2, m.V / 2})
	long := []int{0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	wantLong := posteriorRef(m, InferSpec{}, long)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(53))
			for i := 0; i < 50; i++ {
				if got := inf.PosteriorTerms(terms); !sameBits(got, want) {
					t.Errorf("concurrent posterior differs from the reference")
					return
				}
				if got := inf.Posterior(long); !sameBits(got, wantLong) {
					t.Errorf("concurrent posterior of a longer bag differs from the reference")
					return
				}
				m.SampleWord(i%m.K, rng)
			}
		}()
	}
	wg.Wait()
}

// accuracyBags trains a model of the benchmark's shape (32 topics of
// 150 words over 200 shared ones, 1 500 documents, 40 sweeps) and
// returns 120 of its workload queries as bags, 2 to 20 terms long.
func accuracyBags(t *testing.T) (*Model, [][]int) {
	t.Helper()
	an := textproc.NewAnalyzer()
	c, gt, err := corpus.Synthesize(corpus.GenSpec{Seed: 1, NumDocs: 1500, NumTopics: 32, WordsPerTopic: 150, SharedWords: 200}, an)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Train(c, TrainSpec{NumTopics: 32, Iterations: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := corpus.Workload(gt, corpus.WorkloadSpec{Seed: 3, NumQueries: 120, MinTerms: 2, MaxTerms: 20})
	if err != nil {
		t.Fatal(err)
	}
	bags := make([][]int, len(qs))
	for i, q := range qs {
		bags[i] = m.BagFromTerms(an.Analyze(q.Text()))
	}
	return m, bags
}

// absErrors returns the mean and the largest |est − ref| over every
// topic of every bag.
func absErrors(est, ref [][]float64) (mean, max float64) {
	n := 0
	for i := range ref {
		for t := range ref[i] {
			d := math.Abs(est[i][t] - ref[i][t])
			mean += d
			max = math.Max(max, d)
			n++
		}
	}
	return mean / float64(n), max
}

// TestPosteriorAccuracyAgainstLongChain measures Posterior against the
// posterior mean as a Gibbs chain of longSweeps sweeps estimates it, on
// the benchmark's model shape. It logs (go test -v) the table the
// tolerances come from, measured on amd64:
//
//	estimator                  mean |err|  max |err|
//	fold-in, passes = 1          0.00007     0.0032
//	fold-in, passes = 2          0.00005     0.0008
//	fold-in, passes = 3          0.00005     0.0008
//	fold-in, passes = 5          0.00005     0.0008
//	fold-in, passes = 10         0.00005     0.0008
//	fold-in, passes = 50         0.00005     0.0008
//	Gibbs, 40 sweeps / 10        0.00073     0.0118
//	second 3000-sweep chain      0.00007     0.0010
//
// From two passes on, the fold-in is as close to the chain as a second
// chain is: what is left is mostly the reference's own noise. tolMean
// and tolMax allow three and two and a half times the default's row: a
// 40-sweep Gibbs fold-in fails both, and one pass fails tolMax.
func TestPosteriorAccuracyAgainstLongChain(t *testing.T) {
	const (
		longSweeps, burnIn = 3000, 200
		tolMean, tolMax    = 0.00015, 0.002
	)
	m, bags := accuracyBags(t)
	chains := func(seed int64) [][]float64 {
		rng := rand.New(rand.NewSource(seed))
		out := make([][]float64, len(bags))
		for i, bag := range bags {
			out[i] = gibbsPosterior(m, bag, longSweeps, longSweeps-burnIn, rng)
		}
		return out
	}
	ref := chains(67)
	var table strings.Builder
	row := func(name string, est [][]float64) (float64, float64) {
		mean, max := absErrors(est, ref)
		fmt.Fprintf(&table, "\n%-26s %9.5f %10.4f", name, mean, max)
		return mean, max
	}
	fmt.Fprintf(&table, "%-26s %9s %10s", "estimator", "mean |err|", "max |err|")
	var defMean, defMax float64
	for _, passes := range []int{1, 2, 3, 5, 10, 50} {
		inf, err := NewInferencer(m, InferSpec{Iterations: passes})
		if err != nil {
			t.Fatal(err)
		}
		est := make([][]float64, len(bags))
		for i, bag := range bags {
			est[i] = inf.Posterior(bag)
		}
		mean, max := row(fmt.Sprintf("fold-in, passes = %d", passes), est)
		if passes == (InferSpec{}).withDefaults().Iterations {
			defMean, defMax = mean, max
		}
	}
	rng := rand.New(rand.NewSource(71))
	gibbs := make([][]float64, len(bags))
	for i, bag := range bags {
		gibbs[i] = gibbsPosterior(m, bag, 40, 10, rng)
	}
	row("Gibbs, 40 sweeps / 10", gibbs)
	row(fmt.Sprintf("second %d-sweep chain", longSweeps), chains(73))
	t.Logf("against a %d-sweep Gibbs chain, %d bags:\n%s", longSweeps, len(bags), table.String())
	if defMean > tolMean || defMax > tolMax {
		t.Errorf("the default pass count errs by %.5f on average and %.4f at most, want <= %v and <= %v", defMean, defMax, tolMean, tolMax)
	}
}
