package lda

import "math/rand"

// samplerBlock is how many words share one stored prefix sum.
const samplerBlock = 64

// rowSampler draws a word from one topic's row of Φ in proportion to
// its weight, without reading the whole row. prefix[b] is the running
// sum of the row — added left to right, one word at a time — before
// word b·samplerBlock, and prefix[len(prefix)-1] is the row total.
//
// A draw u·total lands in the block whose prefixes straddle it, and the
// scan inside that block resumes the same running sum from the stored
// value, so every comparison sees the float the full left-to-right scan
// would have seen there and picks the same word for the same u.
type rowSampler struct {
	row    []float64
	prefix []float64
}

func newRowSampler(row []float64) rowSampler {
	prefix := make([]float64, 0, len(row)/samplerBlock+2)
	acc := 0.0
	for i, w := range row {
		if i%samplerBlock == 0 {
			prefix = append(prefix, acc)
		}
		acc += w
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
	// holding the first such word.
	b := firstAbove(s.prefix[1:], u)
	if b == len(s.prefix)-1 {
		return len(s.row) - 1
	}
	acc := s.prefix[b]
	for i := b * samplerBlock; ; i++ {
		acc += s.row[i]
		if u < acc {
			return i
		}
	}
}

// firstAbove returns the first i with u < sums[i], or len(sums) when
// there is none. sums are running sums of non-negative weights, so they
// never decrease and a binary search finds what a left-to-right scan
// would.
func firstAbove(sums []float64, u float64) int {
	lo, n := 0, len(sums)
	for n > 0 {
		half := n / 2
		if sums[lo+half] <= u {
			lo += half + 1
			n -= half + 1
		} else {
			n = half
		}
	}
	return lo
}
