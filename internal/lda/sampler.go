package lda

import (
	"math"
	"math/rand"
)

// rowSampler draws a word from one topic's row of Φ in proportion to
// its weight, without reading the whole row. prefix[b] is the running
// float64 sum of the row — each weight widened and added left to right,
// one word at a time — before word b·samplerBlock, and
// prefix[len(prefix)-1] is the row total.
//
// A draw u·total lands in the block whose prefixes straddle it, and the
// scan inside that block resumes the same running sum from the stored
// value, so every comparison sees the float the full left-to-right scan
// would have seen there and picks the same word for the same u.
type rowSampler struct {
	phi    *sparsePhi
	t      int
	prefix []float64
}

// sampler returns the sampler of row t. Its prefix sums are appended to
// prefix[:0], which has room for them when its capacity is at least
// ⌈V/samplerBlock⌉+1.
func (p *sparsePhi) sampler(t int, prefix []float64) rowSampler {
	prefix = prefix[:0]
	acc := 0.0
	for w, x := range p.entries(t) {
		if w%samplerBlock == 0 {
			prefix = append(prefix, acc)
		}
		acc += float64(x)
	}
	return rowSampler{phi: p, t: t, prefix: append(prefix, acc)}
}

func (s rowSampler) sample(rng *rand.Rand) int {
	return s.pick(rng.Float64() * s.prefix[len(s.prefix)-1])
}

// pick returns the first word whose running sum exceeds u, or the last
// word when none does (u rounded up to the total).
func (s rowSampler) pick(u float64) int {
	// The first block whose closing prefix exceeds u is the block
	// holding the first such word. When none does, firstAbove answers
	// the last block, and u is at or above the total.
	b := firstAbove(s.prefix[1:], u)
	p := s.phi
	if u >= s.prefix[b+1] {
		return p.v - 1
	}
	// Block b's bitmap word says, lowest bit first, which of its words
	// are explicit; the others hold the floor.
	word, j := p.bits[b*p.k+s.t], p.rank[b*p.k+s.t]
	acc := s.prefix[b]
	for i := b * samplerBlock; ; i++ {
		x := p.floor[s.t]
		if word&1 != 0 {
			x = p.vals[j]
			j++
		}
		word >>= 1
		acc += float64(x)
		if u < acc {
			return i
		}
	}
}

// firstAbove returns the first i with u < sums[i], or len(sums)-1 when
// there is none: the index a left-to-right scan would stop at, with a u
// that rounded up to the total landing on the last entry. sums are
// running sums from 0.0 of non-negative weights, and u is non-negative:
// the sums never decrease, so halving finds what the scan would.
//
// It halves ⌈log2 len(sums)⌉ times whatever u is, and never branches on
// a comparison: a draw is random by design, so such a branch can be
// predicted only when one entry takes most of the weight. Non-negative
// floats, +Inf included, order as their bit patterns do, so the sign of
// the patterns' difference says whether a sum lies above u, and masking
// the step with it keeps the right half. Never reading the last entry is
// what clamps a u at or above the total. sums must not be empty.
func firstAbove(sums []float64, u float64) int {
	ub := int64(math.Float64bits(u))
	base, n := 0, len(sums)
	for n > 1 {
		half := n >> 1
		above := int((ub - int64(math.Float64bits(sums[base+half-1]))) >> 63) // -1 or 0
		base += half &^ above
		n -= half
	}
	return base
}
