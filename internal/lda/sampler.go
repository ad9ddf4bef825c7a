package lda

import (
	"math"
	"math/rand"
)

// samplerBlock is how many words share one stored prefix sum.
const samplerBlock = 64

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
	row    []float32
	prefix []float64
}

func newRowSampler(row []float32) rowSampler {
	prefix := make([]float64, 0, len(row)/samplerBlock+2)
	acc := 0.0
	for i, w := range row {
		if i%samplerBlock == 0 {
			prefix = append(prefix, acc)
		}
		acc += float64(w)
	}
	return rowSampler{row: row, prefix: append(prefix, acc)}
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
	if u >= s.prefix[b+1] {
		return len(s.row) - 1
	}
	acc := s.prefix[b]
	for i := b * samplerBlock; ; i++ {
		acc += float64(s.row[i])
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
