package lda

import (
	"iter"
	"math"
	"math/bits"
)

// samplerBlock is the number of words one bitmap word covers. The rows'
// bitmaps, their ranks and the ghost sampler's prefix sums are all kept
// per block of this many words.
const samplerBlock = 64

// sparsePhi is Φ held sparse and lossless. After training, about 91 %
// of a row's entries hold the topic's smoothing floor β/(n_t+Vβ), every
// one with the same float32 bits, so each row stores that floor once and
// packs only the entries whose bits differ from it, the explicit ones.
//
// Each row has a bitmap over the V words, one uint64 per block, and a
// rank per block. The bitmap words and ranks are stored block-major:
// entry b·K+t belongs to block b of row t, so the K topics' words for
// one block lie side by side, which is the order a fold-in's gather of
// a word's column reads them in.
type sparsePhi struct {
	k, v int
	// floor[t] is row t's smallest entry.
	floor []float32
	// Bit w%64 of bits[(w/64)·K+t] is set when entry w of row t is
	// explicit.
	bits []uint64
	// rank[b·K+t] is the index in vals of row t's first explicit entry
	// at or after word 64·b.
	rank []uint32
	// vals holds row 0's explicit entries in word order, then row 1's,
	// and so on.
	vals []float32
}

// newPhi builds the k rows of v entries whose entry w of row t is
// at(t, w). It reads every entry twice: once for the row floors and the
// number of explicit entries, then to fill the rows. The bitmaps, the
// ranks and the values take one allocation each.
func newPhi(k, v int, at func(t, w int) float32) *sparsePhi {
	p := &sparsePhi{k: k, v: v, floor: make([]float32, k)}
	explicit := 0
	for t := range p.floor {
		// The first smallest entry, and how many entries share its bits.
		var floor float32
		same := 0
		for w := 0; w < v; w++ {
			x := at(t, w)
			if w == 0 || x < floor {
				floor, same = x, 1
			} else if math.Float32bits(x) == math.Float32bits(floor) {
				same++
			}
		}
		p.floor[t] = floor
		explicit += v - same
	}
	nb := (v + samplerBlock - 1) / samplerBlock
	p.bits = make([]uint64, nb*k)
	p.rank = make([]uint32, nb*k)
	p.vals = make([]float32, 0, explicit)
	for t, floor := range p.floor {
		for w := 0; w < v; w++ {
			i := w/samplerBlock*k + t
			if w%samplerBlock == 0 {
				p.rank[i] = uint32(len(p.vals))
			}
			if x := at(t, w); math.Float32bits(x) != math.Float32bits(floor) {
				p.bits[i] |= 1 << (w % samplerBlock)
				p.vals = append(p.vals, x)
			}
		}
	}
	return p
}

// at returns entry w of row t.
func (p *sparsePhi) at(t, w int) float32 {
	i := w/samplerBlock*p.k + t
	word, bit := p.bits[i], uint64(1)<<(w%samplerBlock)
	if word&bit == 0 {
		return p.floor[t]
	}
	return p.vals[p.rank[i]+uint32(bits.OnesCount64(word&(bit-1)))]
}

// explicit returns row t's explicit entries in word order.
func (p *sparsePhi) explicit(t int) []float32 {
	end := len(p.vals)
	if t+1 < p.k {
		end = int(p.rank[t+1])
	}
	return p.vals[p.rank[t]:end]
}

// entries yields row t's V entries in word order.
func (p *sparsePhi) entries(t int) iter.Seq2[int, float32] {
	return func(yield func(int, float32) bool) {
		vals := p.explicit(t)
		for w := 0; w < p.v; w++ {
			x := p.floor[t]
			if p.bits[w/samplerBlock*p.k+t]>>(w%samplerBlock)&1 != 0 {
				x, vals = vals[0], vals[1:]
			}
			if !yield(w, x) {
				return
			}
		}
	}
}
