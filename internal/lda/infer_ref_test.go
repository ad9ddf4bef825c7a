package lda

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// posteriorRef is Inferencer.Posterior as it stood before the fold-in
// kernel gathered Φ columns and pooled its scratch: it reads m.Phi[t][w]
// in place and scans a separate weight vector. Kept as the oracle the
// kernel must match bit for bit.
func posteriorRef(m *Model, spec InferSpec, bag []int, rng *rand.Rand) []float64 {
	spec = spec.withDefaults()
	if len(bag) == 0 {
		out := make([]float64, m.K)
		copy(out, m.Prior)
		return out
	}
	k := m.K
	alpha := m.Alpha
	kalpha := float64(k) * alpha

	assign := make([]int, len(bag))
	counts := make([]float64, k)
	for i, w := range bag {
		t := sampleTopicForWordRef(m, w, rng)
		assign[i] = t
		counts[t]++
	}

	probs := make([]float64, k)
	accum := make([]float64, k)
	sampleStart := spec.Iterations - spec.Samples
	if sampleStart < 0 {
		sampleStart = 0
	}
	samplesTaken := 0
	for sweep := 0; sweep < spec.Iterations; sweep++ {
		for i, w := range bag {
			old := assign[i]
			counts[old]--
			total := 0.0
			for t := 0; t < k; t++ {
				p := m.Phi[t][w] * (counts[t] + alpha)
				probs[t] = p
				total += p
			}
			nu := k - 1
			u := rng.Float64() * total
			acc := 0.0
			for t := 0; t < k; t++ {
				acc += probs[t]
				if u < acc {
					nu = t
					break
				}
			}
			assign[i] = nu
			counts[nu]++
		}
		if sweep >= sampleStart {
			denom := float64(len(bag)) + kalpha
			for t := 0; t < k; t++ {
				accum[t] += (counts[t] + alpha) / denom
			}
			samplesTaken++
		}
	}
	out := make([]float64, k)
	for t := 0; t < k; t++ {
		out[t] = accum[t] / float64(samplesTaken)
	}
	return out
}

func sampleTopicForWordRef(m *Model, w int, rng *rand.Rand) int {
	total := 0.0
	for t := 0; t < m.K; t++ {
		total += m.Phi[t][w]
	}
	u := rng.Float64() * total
	acc := 0.0
	for t := 0; t < m.K; t++ {
		acc += m.Phi[t][w]
		if u < acc {
			return t
		}
	}
	return m.K - 1
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
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

// sparseModel is a hand-built model whose Φ has exact zeros, so running
// sums plateau, and a topic count that is not a power of two.
func sparseModel() *Model {
	const k, v = 9, 70
	rng := rand.New(rand.NewSource(59))
	m := &Model{K: k, V: v, Alpha: 50.0 / k, Beta: 0.1, Prior: make([]float64, k), Terms: make([]string, v)}
	for t := 0; t < k; t++ {
		row := make([]float64, v)
		for w := range row {
			if rng.Intn(3) > 0 {
				row[w] = rng.Float64()
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
		for _, spec := range []InferSpec{{}, {Iterations: 5, Samples: 9}, {Iterations: 12, Samples: 1}} {
			inf, err := NewInferencer(m, spec)
			if err != nil {
				t.Fatal(err)
			}
			a, b := rand.New(rand.NewSource(31)), rand.New(rand.NewSource(31))
			for i, bag := range randomBags(m, 400, rand.New(rand.NewSource(37))) {
				got, want := inf.Posterior(bag, a), posteriorRef(m, spec, bag, b)
				if !sameBits(got, want) {
					t.Fatalf("K=%d, spec %+v, bag %d %v:\n got %v\nwant %v", m.K, spec, i, bag, got, want)
				}
			}
			if a.Int63() != b.Int63() {
				t.Errorf("K=%d, spec %+v: the kernel consumed a different number of random values", m.K, spec)
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
		got := inf.PosteriorTerms(q, rand.New(rand.NewSource(43)))
		want := posteriorRef(m, InferSpec{}, m.BagFromTerms(q), rand.New(rand.NewSource(43)))
		if !sameBits(got, want) {
			t.Errorf("query %v:\n got %v\nwant %v", q, got, want)
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
	want := posteriorRef(m, InferSpec{}, []int{1, 2, m.V / 2}, rand.New(rand.NewSource(53)))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rng := rand.New(rand.NewSource(53))
				if got := inf.PosteriorTerms(terms, rng); !sameBits(got, want) {
					t.Errorf("concurrent posterior differs from the reference")
					return
				}
				m.SampleWord(i%m.K, rng)
			}
		}()
	}
	wg.Wait()
}
