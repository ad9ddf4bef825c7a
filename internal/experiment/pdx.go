package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"toppriv/internal/baseline"
	"toppriv/internal/belief"
	"toppriv/internal/core"
)

// PDXPoint is one aggregated PDX measurement (Figure 4): a model grid
// point at one (threshold, expansion) setting.
type PDXPoint struct {
	K         int
	Eps       float64 // ε1 = ε2 threshold used to define U
	Expansion float64 // query expansion factor
	Exposure  float64 // mean max{B(t|q_e): t∈U}
	Queries   int     // queries with non-empty U
}

// DefaultExpansions is the paper's Figure 4 grid.
func DefaultExpansions() []float64 { return []float64{2, 4, 8, 12, 16} }

// Fig4 reproduces Figure 4: PDX exposure across thresholds, expansion
// factors and LDA models.
func Fig4(env *Env, seed int64) ([]PDXPoint, error) {
	queries := env.AnalyzedQueries()
	var out []PDXPoint
	for _, k := range env.SortedKs() {
		eng := env.Engines[k]
		for _, exp := range DefaultExpansions() {
			for _, eps := range DefaultThresholdGrid() {
				pt, err := runPDXPoint(eng, k, eps, exp, queries, seed)
				if err != nil {
					return nil, err
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

func runPDXPoint(eng *belief.Engine, k int, eps, expansion float64, queries [][]string, seed int64) (PDXPoint, error) {
	pdx, err := baseline.NewPDX(eng, expansion, eps)
	if err != nil {
		return PDXPoint{}, fmt.Errorf("experiment: PDX K=%d: %w", k, err)
	}
	rng := rand.New(rand.NewSource(seed))
	pt := PDXPoint{K: k, Eps: eps, Expansion: expansion}
	var expSum float64
	for _, q := range queries {
		soloBoost := eng.Boost(q, rng)
		u := belief.Intention(soloBoost, eps)
		if len(u) == 0 {
			continue
		}
		qe, err := pdx.Embellish(q, rng)
		if err != nil {
			return PDXPoint{}, err
		}
		embBoost := eng.Boost(qe, rng)
		expSum += belief.Exposure(embBoost, u)
		pt.Queries++
	}
	if pt.Queries > 0 {
		pt.Exposure = expSum / float64(pt.Queries)
	}
	return pt, nil
}

// RatioPoint is one Figure 5 measurement: TopPriv exposure at cycle
// length υ divided by PDX exposure at expansion factor υ — equal total
// word budgets, per the paper's comparison design.
type RatioPoint struct {
	K       int
	Upsilon int
	TopPriv float64
	PDX     float64
	Ratio   float64
	Queries int
}

// DefaultUpsilons is the paper's Figure 5 grid.
func DefaultUpsilons() []int { return []int{2, 4, 8, 12} }

// Fig5 reproduces Figure 5. TopPriv runs with a hard cycle cap of υ and
// an aggressive ε2 so it uses the whole budget; PDX runs with
// expansion factor υ. Both use the paper's default ε1 = 5% to define U.
func Fig5(env *Env, seed int64) ([]RatioPoint, error) {
	const eps1 = 0.05
	queries := env.AnalyzedQueries()
	var out []RatioPoint
	for _, k := range env.SortedKs() {
		eng := env.Engines[k]
		for _, ups := range DefaultUpsilons() {
			obf, err := core.NewObfuscator(eng, core.Params{
				Eps1:     eps1,
				Eps2:     0.0001, // force the full ghost budget
				MaxCycle: ups,
			})
			if err != nil {
				return nil, err
			}
			pdx, err := baseline.NewPDX(eng, float64(ups), eps1)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed))
			pt := RatioPoint{K: k, Upsilon: ups}
			var tpSum, pdxSum float64
			for _, q := range queries {
				cyc, err := obf.Obfuscate(q, rng)
				if err != nil {
					return nil, err
				}
				if len(cyc.Intention) == 0 {
					continue
				}
				qe, err := pdx.Embellish(q, rng)
				if err != nil {
					return nil, err
				}
				embBoost := eng.Boost(qe, rng)
				// Exposure is clamped at 0: a topic suppressed below its
				// prior reveals nothing, and with small K the prior (1/K)
				// is large enough that heavy embellishment can push the
				// boost negative — an artifact the paper's K >= 50 models
				// never reach.
				tpSum += math.Max(cyc.Exposure, 0)
				pdxSum += math.Max(belief.Exposure(embBoost, cyc.Intention), 0)
				pt.Queries++
			}
			if pt.Queries > 0 {
				pt.TopPriv = tpSum / float64(pt.Queries)
				pt.PDX = pdxSum / float64(pt.Queries)
				if pt.PDX > 0 {
					pt.Ratio = pt.TopPriv / pt.PDX
				}
			}
			out = append(out, pt)
		}
	}
	return out, nil
}
