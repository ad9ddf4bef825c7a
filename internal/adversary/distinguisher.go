package adversary

import (
	"math"
	"math/rand"
	"sort"

	"toppriv/internal/belief"
	"toppriv/internal/core"
)

// Distinguisher is the natural escalation of §IV-D's probe attack: the
// adversary holds the ghost-generation implementation (granted by the
// threat model), so he can manufacture unlimited *labeled* training
// data — ghosts from the generator, "genuine" queries from his own
// query distribution — and train a classifier to tell them apart on
// per-query features:
//
//	f0  coherence: largest fraction of terms inside one topic head
//	f1  mean within-topic rank of the query's terms (ghost words come
//	    from topic heads; genuine queries carry deeper, more specific
//	    terms)
//	f2  out-of-vocabulary fraction (genuine queries contain designators
//	    like "m-1" that no topic head contains)
//	f3  log query length
//
// Features are modelled per class with Gaussian naive Bayes. The
// evaluation in the tests reports how well this does against TopPriv —
// an honest measurement the paper does not include.
type Distinguisher struct {
	Eng *belief.Engine
	// TopN is the topic-head size used by the features. Default 40.
	TopN int

	heads     []map[string]int // term -> rank within topic head
	trained   bool
	ghostMean [nFeatures]float64
	ghostVar  [nFeatures]float64
	userMean  [nFeatures]float64
	userVar   [nFeatures]float64
}

const nFeatures = 4

// Name identifies the attack.
func (a *Distinguisher) Name() string { return "learned-distinguisher" }

func (a *Distinguisher) init() {
	if a.heads != nil {
		return
	}
	if a.TopN == 0 {
		a.TopN = 40
	}
	m := a.Eng.Model()
	a.heads = make([]map[string]int, m.K)
	for t := 0; t < m.K; t++ {
		head := make(map[string]int, a.TopN)
		for rank, tw := range m.TopWords(t, a.TopN) {
			head[tw.Term] = rank
		}
		a.heads[t] = head
	}
}

// features extracts the per-query feature vector.
func (a *Distinguisher) features(query []string) [nFeatures]float64 {
	a.init()
	var f [nFeatures]float64
	if len(query) == 0 {
		return f
	}
	m := a.Eng.Model()
	bestCoherence := 0
	for _, head := range a.heads {
		hits := 0
		for _, w := range query {
			if _, ok := head[w]; ok {
				hits++
			}
		}
		if hits > bestCoherence {
			bestCoherence = hits
		}
	}
	f[0] = float64(bestCoherence) / float64(len(query))

	rankSum, ranked := 0.0, 0
	oov := 0
	for _, w := range query {
		if m.TermID(w) < 0 {
			oov++
			continue
		}
		best := a.TopN // "deeper than any head"
		for _, head := range a.heads {
			if r, ok := head[w]; ok && r < best {
				best = r
			}
		}
		rankSum += float64(best)
		ranked++
	}
	if ranked > 0 {
		f[1] = rankSum / float64(ranked) / float64(a.TopN)
	} else {
		f[1] = 1
	}
	f[2] = float64(oov) / float64(len(query))
	f[3] = math.Log(float64(len(query)))
	return f
}

// Train fits the Gaussian class models. ghosts and genuine are labeled
// example queries; the adversary produces the former with his copy of
// the obfuscator and draws the latter from his model of user queries.
func (a *Distinguisher) Train(ghosts, genuine [][]string) {
	a.init()
	a.ghostMean, a.ghostVar = fitGaussian(a, ghosts)
	a.userMean, a.userVar = fitGaussian(a, genuine)
	a.trained = true
}

func fitGaussian(a *Distinguisher, queries [][]string) (mean, variance [nFeatures]float64) {
	if len(queries) == 0 {
		for i := range variance {
			variance[i] = 1
		}
		return
	}
	for _, q := range queries {
		f := a.features(q)
		for i := range f {
			mean[i] += f[i]
		}
	}
	n := float64(len(queries))
	for i := range mean {
		mean[i] /= n
	}
	for _, q := range queries {
		f := a.features(q)
		for i := range f {
			d := f[i] - mean[i]
			variance[i] += float64(d * d) // rounded first: never fused
		}
	}
	for i := range variance {
		variance[i] = variance[i]/n + 1e-4 // variance floor for stability
	}
	return
}

// userScore returns the log-likelihood ratio log P(f|user) − log P(f|ghost);
// higher means more likely genuine.
func (a *Distinguisher) userScore(query []string) float64 {
	f := a.features(query)
	score := 0.0
	for i := range f {
		score += gaussLogPDF(f[i], a.userMean[i], a.userVar[i]) -
			gaussLogPDF(f[i], a.ghostMean[i], a.ghostVar[i])
	}
	return score
}

func gaussLogPDF(x, mean, variance float64) float64 {
	d := x - mean
	// The product is rounded before the subtraction: never fused.
	return float64(-0.5*math.Log(2*math.Pi*variance)) - d*d/(2*variance)
}

// GuessUser implements QueryGuesser: the cycle member with the highest
// genuine-likelihood score is the guess.
func (a *Distinguisher) GuessUser(cycle [][]string, rng *rand.Rand) int {
	if !a.trained {
		return rng.Intn(len(cycle))
	}
	scores := make([]float64, len(cycle))
	for i, q := range cycle {
		scores[i] = a.userScore(q)
	}
	order := make([]int, len(cycle))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return scores[order[i]] > scores[order[j]] })
	return order[0]
}

// TrainFromObfuscator builds a labeled training set the way a real
// adversary would: run the (public) obfuscator over his own probe
// queries and harvest the ghosts; the probes themselves are the
// genuine class.
func (a *Distinguisher) TrainFromObfuscator(obf *core.Obfuscator, probes [][]string, rng *rand.Rand) error {
	var ghosts, genuine [][]string
	for _, q := range probes {
		cyc, err := obf.Obfuscate(q, rng)
		if err != nil {
			return err
		}
		for i, member := range cyc.Queries {
			if i == cyc.UserIndex {
				continue
			}
			ghosts = append(ghosts, member)
		}
		genuine = append(genuine, q)
	}
	a.Train(ghosts, genuine)
	return nil
}
