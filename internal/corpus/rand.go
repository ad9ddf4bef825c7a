package corpus

import (
	"math"
	"math/rand"
)

// randGamma draws from Gamma(shape, 1) using Marsaglia–Tsang, with the
// standard boost for shape < 1. Panics on non-positive shape.
func randGamma(rng *rand.Rand, shape float64) float64 {
	if shape <= 0 {
		panic("corpus: randGamma requires shape > 0")
	}
	if shape < 1 {
		// G(a) = G(a+1) * U^{1/a}
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return randGamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	// Each product below is rounded before it is added, so no
	// architecture fuses the two and a seed draws the same corpus
	// wherever math.Log and math.Pow agree.
	for {
		x := rng.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v) // else 1-v below fuses with its last product
		u := rng.Float64()
		if u == 0 {
			continue
		}
		x2 := x * x
		if u < 1-float64(0.0331*x2*x2) {
			return d * v
		}
		if math.Log(u) < float64(0.5*x2)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// randDirichlet draws a probability vector from a symmetric
// Dirichlet(alpha) of the given dimension.
func randDirichlet(rng *rand.Rand, alpha float64, dim int) []float64 {
	out := make([]float64, dim)
	sum := 0.0
	for i := range out {
		out[i] = randGamma(rng, alpha)
		sum += out[i]
	}
	if sum == 0 {
		// Degenerate draw (possible for tiny alpha under floating-point
		// underflow): fall back to a single spike.
		out[rng.Intn(dim)] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// sampleCategorical draws an index proportional to weights (which need
// not be normalized). The caller guarantees a positive total weight.
func sampleCategorical(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// zipfWeights returns unnormalized Zipf weights 1/(rank+1)^s for n ranks.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}
