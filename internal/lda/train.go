package lda

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// TrainSpec configures collapsed Gibbs training.
type TrainSpec struct {
	// NumTopics is K, the number of latent topics (required).
	NumTopics int
	// Iterations is the number of full Gibbs sweeps. Zero means 150.
	Iterations int
	// Seed makes training deterministic.
	Seed int64
	// LogEvery, when > 0, records the corpus log-likelihood every that
	// many sweeps into the returned TrainTrace.
	LogEvery int
}

// The paper's Dirichlet priors: α = 50/K on a document's topic mixture
// and β = 0.1 on a topic's word distribution. Every model trains with
// them, and carries them as Model.Alpha and Model.Beta.
func trainAlpha(k int) float64 { return 50 / float64(k) }

const trainBeta = 0.1

func (s TrainSpec) withDefaults() TrainSpec {
	if s.Iterations == 0 {
		s.Iterations = 150
	}
	return s
}

// TrainTrace records training diagnostics.
type TrainTrace struct {
	// LogLikelihood holds the per-token log-likelihood at each logged
	// sweep (ascending is healthy).
	LogLikelihood []float64
}

// Train fits an LDA model to the corpus with collapsed Gibbs sampling.
// Φ and the prior are estimated from the final sample's counts,
// matching the GibbsLDA++ behaviour the paper relies on.
//
// It is TrainParallel's one-worker case: one shard holds every document,
// and the random source seeded with spec.Seed that draws the initial
// topics goes on to draw every sweep's.
func Train(c *corpus.Corpus, spec TrainSpec) (*Model, *TrainTrace, error) {
	m, _, trace, err := train(c, spec, 1)
	return m, trace, err
}

// gibbs is the collapsed Gibbs state the shards of a training sample
// against.
type gibbs struct {
	bags               [][]textproc.TermID
	k                  int
	alpha, beta, vbeta float64
	// assign[d][i] is the topic of token i of document d.
	assign [][]int32
	// nwt[w*k+t] is the number of tokens of word w assigned topic t, and
	// nt[t] the number assigned topic t, both as of the last sweep
	// barrier: a sweep samples against its shards' copies. Word-major,
	// so a token reads its word's K counts as one run.
	nwt, nt []int32
	// ndt[d*k+t] is the number of tokens of document d assigned topic t.
	// A document belongs to one shard, which updates its row in place.
	ndt []int32
}

// train is Train and TrainParallel: each of the shards partition makes
// resamples its documents every sweep, and their deltas merge at the
// sweep barrier. Beside the model of the final sample it returns the
// sample itself, which Train and TrainParallel drop.
func train(c *corpus.Corpus, spec TrainSpec, workers int) (*Model, *gibbs, *TrainTrace, error) {
	if c == nil || c.Vocab == nil {
		return nil, nil, nil, fmt.Errorf("lda: nil corpus")
	}
	if spec.NumTopics < 2 {
		return nil, nil, nil, fmt.Errorf("lda: NumTopics = %d, need >= 2", spec.NumTopics)
	}
	if spec.Iterations < 0 {
		return nil, nil, nil, fmt.Errorf("lda: Iterations = %d, need >= 0 (0 means the default)", spec.Iterations)
	}
	spec = spec.withDefaults()
	k := spec.NumTopics
	v := c.Vocab.Size()
	d := c.NumDocs()
	if v == 0 || d == 0 {
		return nil, nil, nil, fmt.Errorf("lda: empty corpus (docs=%d vocab=%d)", d, v)
	}

	g := &gibbs{
		bags:   c.Bags,
		k:      k,
		alpha:  trainAlpha(k),
		beta:   trainBeta,
		vbeta:  float64(v) * trainBeta,
		assign: make([][]int32, d),
		nwt:    make([]int32, v*k),
		nt:     make([]int32, k),
		ndt:    make([]int32, d*k),
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	for di, bag := range c.Bags {
		assign := make([]int32, len(bag))
		for i, w := range bag {
			t := rng.Intn(k)
			assign[i] = int32(t)
			g.nwt[int(w)*k+t]++
			g.ndt[di*k+t]++
			g.nt[t]++
		}
		g.assign[di] = assign
	}

	shards := g.partition(workers, v, rng, spec.Seed)
	trace := &TrainTrace{}
	var wg sync.WaitGroup
	for sweep := 0; sweep < spec.Iterations; sweep++ {
		for _, sh := range shards[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.sweep(sh)
			}()
		}
		g.sweep(shards[0])
		wg.Wait()
		for _, sh := range shards {
			g.merge(sh)
		}
		if spec.LogEvery > 0 && (sweep+1)%spec.LogEvery == 0 {
			trace.LogLikelihood = append(trace.LogLikelihood, g.logLikelihood())
		}
	}
	return g.model(c.Vocab.Terms()), g, trace, nil
}

// sweep resamples the topic of every token of sh's documents against
// sh's copies of the counts. It first refreshes them from the barrier
// counts for sh's words; the draws then add sh's changes, and at the end
// the copies keep only those changes, for merge to add. Topic t's weight
// is (n_wt+β)/(n_t+Vβ)·(n_dt+α), divided and multiplied in that order;
// the conversion around it rounds the product before it joins the
// running sum, so no architecture can fuse the two. The two sums that do
// not depend on the token's word, n_t+Vβ and n_dt+α, are kept in
// K-vectors and rebuilt only for the two topics a draw changes: the same
// integer converts to the same float. The running sums are the ones a
// second pass over stored weights would add up, so firstAbove picks the
// topic that pass would.
//
// No one step bounds a token: at K = 32 a CPU profile splits the sweep
// into the weight expression ≈ 27 %, the running-sum stores ≈ 18 % and
// the draw ≈ 25 %.
func (g *gibbs) sweep(sh *shard) {
	k := g.k
	alpha, beta, vbeta := g.alpha, g.beta, g.vbeta
	for _, w := range sh.words {
		row := int(w) * k
		copy(sh.nwt[row:][:k], g.nwt[row:][:k])
	}
	nt := sh.nt[:k]
	copy(nt, g.nt)
	den, docw, cum := sh.den[:k], sh.docw[:k], sh.cum[:k]
	for t := range den {
		den[t] = float64(nt[t]) + vbeta
	}
	for di := sh.lo; di < sh.hi; di++ {
		assign := g.assign[di]
		nd := g.ndt[di*k:][:k]
		for t := range docw {
			docw[t] = float64(nd[t]) + alpha
		}
		for i, w := range g.bags[di] {
			nw := sh.nwt[int(w)*k:][:k]
			old := assign[i]
			nw[old]--
			nd[old]--
			nt[old]--
			den[old] = float64(nt[old]) + vbeta
			docw[old] = float64(nd[old]) + alpha

			total := 0.0
			for t := range cum {
				total += float64((float64(nw[t]) + beta) / den[t] * docw[t])
				cum[t] = total
			}
			nu := firstAbove(cum, sh.rng.Float64()*total)
			assign[i] = int32(nu)
			nw[nu]++
			nd[nu]++
			nt[nu]++
			den[nu] = float64(nt[nu]) + vbeta
			docw[nu] = float64(nd[nu]) + alpha
		}
	}
	for _, w := range sh.words {
		row := int(w) * k
		own, barrier := sh.nwt[row:][:k], g.nwt[row:][:k]
		for t := range own {
			own[t] -= barrier[t]
		}
	}
	for t := range nt {
		nt[t] -= g.nt[t]
	}
}

// model estimates Φ from the counts, each entry computed in float64 and
// rounded to float32 once, straight into the sparse rows, and the prior
// as the mean of the documents' Pr(t|d) (Eq. 1), each added to the sum
// as it is computed and none kept.
func (g *gibbs) model(terms []string) *Model {
	k, v, d := g.k, len(g.nwt)/g.k, len(g.assign)
	m := &Model{
		K:     k,
		V:     v,
		Alpha: g.alpha,
		Beta:  g.beta,
		Prior: make([]float64, k),
		Terms: terms,
	}
	m.phi = newPhi(k, v, func(t, w int) float32 {
		return float32((float64(g.nwt[w*k+t]) + g.beta) / (float64(g.nt[t]) + g.vbeta))
	})
	// Rounded before it is added, so no architecture fuses the two (see
	// sweep).
	kalpha := float64(float64(k) * g.alpha)
	for di, bag := range g.bags {
		denom := float64(len(bag)) + kalpha
		for t, n := range g.ndt[di*k:][:k] {
			m.Prior[t] += (float64(n) + g.alpha) / denom
		}
	}
	for t := range m.Prior {
		m.Prior[t] /= float64(d)
	}
	return m
}

// logLikelihood estimates the per-token log-likelihood of the corpus
// under the counts of the last sweep barrier.
func (g *gibbs) logLikelihood() float64 {
	k := g.k
	kalpha := float64(float64(k) * g.alpha)
	ll := 0.0
	tokens := 0
	for di, bag := range g.bags {
		nd := g.ndt[di*k:][:k]
		docDenom := float64(len(bag)) + kalpha
		for _, w := range bag {
			nw := g.nwt[int(w)*k:][:k]
			p := 0.0
			for t := range nd {
				phi := (float64(nw[t]) + g.beta) / (float64(g.nt[t]) + g.vbeta)
				theta := (float64(nd[t]) + g.alpha) / docDenom
				p += float64(phi * theta)
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
