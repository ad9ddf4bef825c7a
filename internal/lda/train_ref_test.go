package lda

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// trainRef, trainParallelRef and logLikelihoodRef are Train,
// TrainParallel and logLikelihood as they stood before one word-major
// kernel replaced them: topic-major word-topic counts (nwt[t*v+w]), every
// topic's denominator rebuilt per token, the weights stored and then
// walked a second time to find the draw. trainParallelRef no longer
// clamps workers to the host's core count (the model would depend on the
// host). Kept verbatim otherwise as the oracle the kernel must match bit
// for bit.
func trainRef(c *corpus.Corpus, spec TrainSpec) (*Model, [][]float64, *TrainTrace, error) {
	if c == nil || c.Vocab == nil {
		return nil, nil, nil, fmt.Errorf("lda: nil corpus")
	}
	if spec.NumTopics < 2 {
		return nil, nil, nil, fmt.Errorf("lda: NumTopics = %d, need >= 2", spec.NumTopics)
	}
	spec = spec.withDefaults()
	k := spec.NumTopics
	v := c.Vocab.Size()
	d := c.NumDocs()
	if v == 0 || d == 0 {
		return nil, nil, nil, fmt.Errorf("lda: empty corpus (docs=%d vocab=%d)", d, v)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// Gibbs state: topic assignment per token, plus count matrices.
	// nwt[t*v+w]: tokens of word w assigned topic t.
	// ndt[d*k+t]: tokens of doc d assigned topic t.
	// nt[t]: tokens assigned topic t.
	nwt := make([]int32, k*v)
	ndt := make([]int32, d*k)
	nt := make([]int32, k)

	assign := make([][]int32, d)
	for di, bag := range c.Bags {
		assign[di] = make([]int32, len(bag))
		for i, w := range bag {
			t := int32(rng.Intn(k))
			assign[di][i] = t
			nwt[int(t)*v+int(w)]++
			ndt[di*k+int(t)]++
			nt[t]++
		}
	}

	alpha, beta := trainAlpha(k), float64(trainBeta)
	vbeta := float64(v) * beta
	probs := make([]float64, k)
	trace := &TrainTrace{}

	for sweep := 0; sweep < spec.Iterations; sweep++ {
		for di, bag := range c.Bags {
			docBase := di * k
			for i, w := range bag {
				old := assign[di][i]
				wi := int(w)
				nwt[int(old)*v+wi]--
				ndt[docBase+int(old)]--
				nt[old]--

				total := 0.0
				for t := 0; t < k; t++ {
					p := (float64(nwt[t*v+wi]) + beta) / (float64(nt[t]) + vbeta) *
						(float64(ndt[docBase+t]) + alpha)
					probs[t] = p
					total += p
				}
				u := rng.Float64() * total
				acc := 0.0
				nu := int32(k - 1)
				for t := 0; t < k; t++ {
					acc += probs[t]
					if u < acc {
						nu = int32(t)
						break
					}
				}
				assign[di][i] = nu
				nwt[int(nu)*v+wi]++
				ndt[docBase+int(nu)]++
				nt[nu]++
			}
		}
		if spec.LogEvery > 0 && (sweep+1)%spec.LogEvery == 0 {
			trace.LogLikelihood = append(trace.LogLikelihood,
				logLikelihoodRef(c, nwt, ndt, nt, k, v, alpha, beta))
		}
	}

	m := &Model{
		K:     k,
		V:     v,
		Alpha: alpha,
		Beta:  beta,
		Prior: make([]float64, k),
		Terms: c.Vocab.Terms(),
	}
	theta := make([][]float64, d)
	phi := make([][]float32, k)
	for t := 0; t < k; t++ {
		row := make([]float32, v)
		denom := float64(nt[t]) + vbeta
		for w := 0; w < v; w++ {
			row[w] = float32((float64(nwt[t*v+w]) + beta) / denom)
		}
		phi[t] = row
	}
	setPhi(m, phi)
	kalpha := float64(float64(k) * alpha)
	for di := 0; di < d; di++ {
		row := make([]float64, k)
		denom := float64(len(c.Bags[di])) + kalpha
		for t := 0; t < k; t++ {
			row[t] = (float64(ndt[di*k+t]) + alpha) / denom
			m.Prior[t] += row[t]
		}
		theta[di] = row
	}
	for t := 0; t < k; t++ {
		m.Prior[t] /= float64(d)
	}
	return m, theta, trace, nil
}

// logLikelihoodRef estimates the per-token log-likelihood of the corpus
// under the current Gibbs state.
func logLikelihoodRef(c *corpus.Corpus, nwt, ndt []int32, nt []int32, k, v int, alpha, beta float64) float64 {
	vbeta := float64(v) * beta
	kalpha := float64(float64(k) * alpha)
	ll := 0.0
	tokens := 0
	for di, bag := range c.Bags {
		docBase := di * k
		docDenom := float64(len(bag)) + kalpha
		for _, w := range bag {
			wi := int(w)
			p := 0.0
			for t := 0; t < k; t++ {
				phi := (float64(nwt[t*v+wi]) + beta) / (float64(nt[t]) + vbeta)
				theta := (float64(ndt[docBase+t]) + alpha) / docDenom
				p += phi * theta
			}
			ll += math.Log(p)
			tokens++
		}
	}
	if tokens == 0 {
		return 0
	}
	return ll / float64(tokens)
}

func trainParallelRef(c *corpus.Corpus, spec TrainSpec, workers int) (*Model, [][]float64, error) {
	if workers <= 1 {
		m, theta, _, err := trainRef(c, spec)
		return m, theta, err
	}
	if c == nil || c.Vocab == nil {
		return nil, nil, fmt.Errorf("lda: nil corpus")
	}
	if spec.NumTopics < 2 {
		return nil, nil, fmt.Errorf("lda: NumTopics = %d, need >= 2", spec.NumTopics)
	}
	spec = spec.withDefaults()
	k := spec.NumTopics
	v := c.Vocab.Size()
	d := c.NumDocs()
	if v == 0 || d == 0 {
		return nil, nil, fmt.Errorf("lda: empty corpus (docs=%d vocab=%d)", d, v)
	}
	if workers > d {
		workers = d
	}

	// Global state.
	nwt := make([]int32, k*v)
	ndt := make([]int32, d*k)
	nt := make([]int32, k)
	assign := make([][]int32, d)
	initRng := rand.New(rand.NewSource(spec.Seed))
	for di, bag := range c.Bags {
		assign[di] = make([]int32, len(bag))
		for i, w := range bag {
			t := int32(initRng.Intn(k))
			assign[di][i] = t
			nwt[int(t)*v+int(w)]++
			ndt[di*k+int(t)]++
			nt[t]++
		}
	}

	// Shard documents contiguously.
	type shard struct {
		lo, hi int
		rng    *rand.Rand
		// local deltas, reallocated per sweep
		dnwt []int32
		dnt  []int32
	}
	shards := make([]*shard, workers)
	per := (d + workers - 1) / workers
	for s := range shards {
		lo := s * per
		hi := lo + per
		if hi > d {
			hi = d
		}
		shards[s] = &shard{
			lo:   lo,
			hi:   hi,
			rng:  rand.New(rand.NewSource(spec.Seed + int64(s) + 1)),
			dnwt: make([]int32, k*v),
			dnt:  make([]int32, k),
		}
	}

	alpha, beta := trainAlpha(k), float64(trainBeta)
	vbeta := float64(v) * beta
	var wg sync.WaitGroup
	for sweep := 0; sweep < spec.Iterations; sweep++ {
		for _, sh := range shards {
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				probs := make([]float64, k)
				for di := sh.lo; di < sh.hi; di++ {
					docBase := di * k
					bag := c.Bags[di]
					for i, w := range bag {
						old := assign[di][i]
						wi := int(w)
						// Remove from local view (global snapshot + delta).
						sh.dnwt[int(old)*v+wi]--
						sh.dnt[old]--
						ndt[docBase+int(old)]-- // doc-local: owned by this shard

						total := 0.0
						for t := 0; t < k; t++ {
							nw := float64(nwt[t*v+wi] + sh.dnwt[t*v+wi])
							ntt := float64(nt[t] + sh.dnt[t])
							p := (nw + beta) / (ntt + vbeta) *
								(float64(ndt[docBase+t]) + alpha)
							probs[t] = p
							total += p
						}
						u := sh.rng.Float64() * total
						acc := 0.0
						nu := int32(k - 1)
						for t := 0; t < k; t++ {
							acc += probs[t]
							if u < acc {
								nu = int32(t)
								break
							}
						}
						assign[di][i] = nu
						sh.dnwt[int(nu)*v+wi]++
						sh.dnt[nu]++
						ndt[docBase+int(nu)]++
					}
				}
			}(sh)
		}
		wg.Wait()
		// Merge deltas into the global counts at the sweep barrier.
		for _, sh := range shards {
			for i, delta := range sh.dnwt {
				if delta != 0 {
					nwt[i] += delta
					sh.dnwt[i] = 0
				}
			}
			for t, delta := range sh.dnt {
				if delta != 0 {
					nt[t] += delta
					sh.dnt[t] = 0
				}
			}
		}
	}

	m := &Model{
		K:     k,
		V:     v,
		Alpha: alpha,
		Beta:  beta,
		Prior: make([]float64, k),
		Terms: c.Vocab.Terms(),
	}
	theta := make([][]float64, d)
	phi := make([][]float32, k)
	for t := 0; t < k; t++ {
		row := make([]float32, v)
		denom := float64(nt[t]) + vbeta
		for w := 0; w < v; w++ {
			row[w] = float32((float64(nwt[t*v+w]) + beta) / denom)
		}
		phi[t] = row
	}
	setPhi(m, phi)
	kalpha := float64(float64(k) * alpha)
	for di := 0; di < d; di++ {
		row := make([]float64, k)
		denom := float64(len(c.Bags[di])) + kalpha
		for t := 0; t < k; t++ {
			row[t] = (float64(ndt[di*k+t]) + alpha) / denom
			m.Prior[t] += row[t]
		}
		theta[di] = row
	}
	for t := 0; t < k; t++ {
		m.Prior[t] /= float64(d)
	}
	return m, theta, nil
}

// bagsCorpus is a corpus of hand-written bags over a vocabulary of v
// words.
func bagsCorpus(v int, bags ...[]textproc.TermID) *corpus.Corpus {
	vocab := textproc.NewVocab()
	for w := 0; w < v; w++ {
		vocab.Add(fmt.Sprintf("w%d", w))
	}
	return &corpus.Corpus{Docs: make([]corpus.Document, len(bags)), Vocab: vocab, Bags: bags}
}

func sameModelBits(got, want *Model) error {
	if got.K != want.K || got.V != want.V ||
		math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) ||
		math.Float64bits(got.Beta) != math.Float64bits(want.Beta) {
		return fmt.Errorf("shape or hyperparameters differ: K=%d V=%d α=%v β=%v, want K=%d V=%d α=%v β=%v",
			got.K, got.V, got.Alpha, got.Beta, want.K, want.V, want.Alpha, want.Beta)
	}
	gotPhi, wantPhi := got.dense(), want.dense()
	for t := range wantPhi {
		if !sameBits(gotPhi[t], wantPhi[t]) {
			return fmt.Errorf("Phi[%d] differs", t)
		}
	}
	if !sameBits(got.Prior, want.Prior) {
		return fmt.Errorf("Prior differs:\n got %v\nwant %v", got.Prior, want.Prior)
	}
	if !slices.Equal(got.Terms, want.Terms) {
		return fmt.Errorf("Terms differ")
	}
	return nil
}

// theta returns Pr(t|d) for every training document from the sample's
// counts, with the expression model sums into the prior: the Θ a model
// no longer holds, for the tests to check.
func (g *gibbs) theta() [][]float64 {
	k := g.k
	kalpha := float64(float64(k) * g.alpha)
	theta := make([][]float64, len(g.bags))
	for di, bag := range g.bags {
		row := make([]float64, k)
		denom := float64(len(bag)) + kalpha
		for t, n := range g.ndt[di*k:][:k] {
			row[t] = (float64(n) + g.alpha) / denom
		}
		theta[di] = row
	}
	return theta
}

func sameThetaBits(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("Theta has %d rows, want %d", len(got), len(want))
	}
	for d := range want {
		if !sameBits(got[d], want[d]) {
			return fmt.Errorf("Theta[%d] differs", d)
		}
	}
	return nil
}

// TestTrainMatchesReferenceBitForBit holds Train and TrainParallel to
// the loops they replaced: Φ, the prior, the terms and the logged
// likelihoods, bit for bit, at every K, worker count and logging period,
// on corpora with empty bags, a one-word vocabulary, repeated words, one
// document, and the system benchmark's shape. Θ, which a model no longer
// holds, is read off the final sample train returns beside the model.
func TestTrainMatchesReferenceBitForBit(t *testing.T) {
	synth := func(spec corpus.GenSpec) *corpus.Corpus {
		c, _, err := corpus.Synthesize(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rng := rand.New(rand.NewSource(61))
	var gappy [][]textproc.TermID
	for d := 0; d < 40; d++ {
		bag := make([]textproc.TermID, rng.Intn(3)*rng.Intn(20)) // a third empty
		for i := range bag {
			bag[i] = textproc.TermID(rng.Intn(25))
		}
		gappy = append(gappy, bag)
	}
	gappy[0], gappy[len(gappy)-1] = nil, nil
	type tc struct {
		name    string
		c       *corpus.Corpus
		ks      []int
		workers []int
		logs    []int // LogEvery values
		iters   int
	}
	cases := []tc{
		{"synthetic", synth(corpus.GenSpec{Seed: 7, NumDocs: 120, NumTopics: 5, DocLenMin: 20, DocLenMax: 60}),
			[]int{2, 9, 32}, []int{1, 2, 3, 4, 500}, []int{0, 5}, 12},
		{"empty bags", bagsCorpus(25, gappy...), []int{2, 9, 32}, []int{1, 2, 3, 4, 41}, []int{0, 5}, 12},
		{"one-word vocabulary", bagsCorpus(1, []textproc.TermID{0, 0, 0}, nil, []textproc.TermID{0}, []textproc.TermID{0, 0}),
			[]int{2, 9}, []int{1, 2, 3, 4, 9}, []int{0, 5}, 15},
		{"repeated words", bagsCorpus(6, []textproc.TermID{3, 3, 3, 1, 3}, []textproc.TermID{5, 5, 0, 5}, []textproc.TermID{1, 1, 1, 1, 1, 1}),
			[]int{2, 9}, []int{1, 2, 3, 4}, []int{0, 5}, 15},
		{"one document", bagsCorpus(4, []textproc.TermID{0, 1, 2, 3, 2, 1}), []int{2, 9}, []int{1, 2, 4}, []int{0, 5}, 10},
		// Kept small enough for the race detector: one logged sweep of
		// three, and TrainParallel only where it is not Train.
		{"benchmark shape", synth(corpus.GenSpec{Seed: 1, NumDocs: 1500, NumTopics: 32, WordsPerTopic: 150, SharedWords: 200}),
			[]int{32}, []int{2}, []int{2}, 3},
	}
	for _, tc := range cases {
		for _, k := range tc.ks {
			for _, logEvery := range tc.logs {
				spec := TrainSpec{NumTopics: k, Iterations: tc.iters, Seed: int64(k) + 3, LogEvery: logEvery}
				got, g, gotTrace, err := train(tc.c, spec, 1)
				if err != nil {
					t.Fatal(err)
				}
				want, wantTheta, wantTrace, err := trainRef(tc.c, spec)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameModelBits(got, want); err != nil {
					t.Fatalf("%s, K=%d, LogEvery=%d: Train: %v", tc.name, k, logEvery, err)
				}
				if err := sameThetaBits(g.theta(), wantTheta); err != nil {
					t.Fatalf("%s, K=%d, LogEvery=%d: Train: %v", tc.name, k, logEvery, err)
				}
				if !sameBits(gotTrace.LogLikelihood, wantTrace.LogLikelihood) {
					t.Fatalf("%s, K=%d, LogEvery=%d: log-likelihood\n got %v\nwant %v",
						tc.name, k, logEvery, gotTrace.LogLikelihood, wantTrace.LogLikelihood)
				}
				for _, workers := range tc.workers {
					got, g, _, err := train(tc.c, spec, workers)
					if err != nil {
						t.Fatal(err)
					}
					want, wantTheta, err := trainParallelRef(tc.c, spec, workers)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameModelBits(got, want); err != nil {
						t.Fatalf("%s, K=%d, LogEvery=%d, %d workers: TrainParallel: %v", tc.name, k, logEvery, workers, err)
					}
					if err := sameThetaBits(g.theta(), wantTheta); err != nil {
						t.Fatalf("%s, K=%d, LogEvery=%d, %d workers: TrainParallel: %v", tc.name, k, logEvery, workers, err)
					}
				}
			}
		}
	}
}

// TestSweepWeightsMatchReference checks the kernel's float arithmetic
// itself. A draw only changes when u falls within an ulp of a running
// sum, so a model trained with the weights reassociated would almost
// surely still match; here one sweep over a one-token document leaves
// that token's running sums in the shard, and they must equal, bit for
// bit, the ones the reference adds up from the same counts.
func TestSweepWeightsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 300; trial++ {
		k := []int{2, 9, 32}[trial%3]
		v := 1 + rng.Intn(50)
		w, old := rng.Intn(v), int32(rng.Intn(k))
		alpha, beta := 50/float64(k), 0.1
		if trial%2 == 1 {
			alpha, beta = rng.Float64()*3, rng.Float64()
		}
		g := &gibbs{
			bags: [][]textproc.TermID{{textproc.TermID(w)}},
			k:    k, alpha: alpha, beta: beta, vbeta: float64(v) * beta,
			assign: [][]int32{{old}},
			nwt:    make([]int32, v*k),
			nt:     make([]int32, k),
			ndt:    make([]int32, k),
		}
		for i := range g.nwt {
			g.nwt[i] = int32(rng.Intn(400))
		}
		for tt := 0; tt < k; tt++ {
			g.ndt[tt] = int32(rng.Intn(60))
			g.nt[tt] = int32(rng.Intn(5000))
			for x := 0; x < v; x++ {
				g.nt[tt] += g.nwt[x*k+tt]
			}
		}
		g.nwt[w*k+int(old)]++
		g.nt[old]++
		g.ndt[old]++

		// The reference's weights, from its topic-major copy of the
		// counts with the token removed.
		vbeta := float64(v) * beta
		nwt := make([]int32, k*v)
		for x := 0; x < v; x++ {
			for tt := 0; tt < k; tt++ {
				nwt[tt*v+x] = g.nwt[x*k+tt]
			}
		}
		nt, ndt := slices.Clone(g.nt), slices.Clone(g.ndt)
		nwt[int(old)*v+w]--
		nt[old]--
		ndt[old]--
		want := make([]float64, k)
		total := 0.0
		for tt := 0; tt < k; tt++ {
			p := (float64(nwt[tt*v+w]) + beta) / (float64(nt[tt]) + vbeta) *
				(float64(ndt[tt]) + alpha)
			total += p
			want[tt] = total
		}

		sh := g.partition(1, v, rand.New(rand.NewSource(int64(trial))), 0)[0]
		g.sweep(sh)
		if !sameBits(sh.cum, want) {
			t.Fatalf("trial %d (K=%d, V=%d, α=%v, β=%v): running sums\n got %v\nwant %v", trial, k, v, alpha, beta, sh.cum, want)
		}
	}
}
