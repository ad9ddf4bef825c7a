package lda

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// dense expands Φ into K rows of V entries, the layout the references
// read.
func (m *Model) dense() [][]float32 {
	phi := make([][]float32, m.K)
	for t := range phi {
		phi[t] = make([]float32, m.V)
		for w := range phi[t] {
			phi[t][w] = m.Phi(t, w)
		}
	}
	return phi
}

// setPhi holds the dense rows phi as m's Φ.
func setPhi(m *Model, phi [][]float32) {
	m.phi = newPhi(len(phi), m.V, func(t, w int) float32 { return phi[t][w] })
}

// newRowSampler returns the sampler of a one-topic Φ holding row.
func newRowSampler(row []float32) rowSampler {
	p := newPhi(1, len(row), func(_, w int) float32 { return row[w] })
	return p.sampler(0, make([]float64, 0, len(row)/samplerBlock+2))
}

// sparseRowPalette holds the values palette-mode rows of FuzzSparseRow
// draw from: both zeros, subnormals, and a few normal weights.
var sparseRowPalette = []float32{
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, 3 * math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), 1e-3, 0.25, 1,
}

// FuzzSparseRow holds the sparse rows to the dense rows they are built
// from. Each input makes a row of raw float32 bits (NaN, ±Inf and
// negatives included), of palette values, or of byte weights where
// zeros are common. Every entry must read back with the same bits, at
// random and in order, from a Φ of two rows (the row and its reverse)
// sharing their allocations; the floor must be the row's smallest entry
// and the explicit entries exactly those whose bits differ from it. On a
// row of finite weights ≥ 0, pick must also stop where a dense
// left-to-right scan stops: at, and one ulp either side of, every
// block's prefix and every running sum, and at and above the total.
func FuzzSparseRow(f *testing.F) {
	for _, v := range []int{1, 2, 5, 63, 64, 65, 100, 128, 130, 200} {
		raw := make([]byte, 4*v)
		for i := range raw {
			raw[i] = byte(i * 37)
		}
		for mode := uint8(0); mode < 3; mode++ {
			f.Add(raw, mode)
		}
		f.Add(make([]byte, v), uint8(1))                // all +0
		f.Add(make([]byte, v), uint8(2))                // all zero weights
		f.Add(bytesOf(byte(7), v), uint8(1))            // all 1
		f.Add(bytesOf(byte(1), v), uint8(1))            // all -0
		f.Add(bytesOf(byte(2), v), uint8(1))            // all the smallest subnormal
		f.Add(append(bytesOf(2, v), 3, 1, 0), uint8(1)) // subnormals, then -0 and +0
	}
	f.Fuzz(func(t *testing.T, raw []byte, mode uint8) {
		var row []float32
		switch mode % 3 {
		case 0:
			for b := raw; len(b) >= 4; b = b[4:] {
				row = append(row, math.Float32frombits(binary.LittleEndian.Uint32(b)))
			}
		case 1:
			for _, b := range raw {
				row = append(row, sparseRowPalette[int(b)%len(sparseRowPalette)])
			}
		case 2:
			for _, b := range raw {
				row = append(row, float32(max(0, int(b)-85))/16)
			}
		}
		// The checks below scan the row once per u: past 20 blocks a
		// longer row only makes each input slower.
		row = row[:min(len(row), 20*samplerBlock)]
		v := len(row)
		if v == 0 {
			return
		}
		phi := newPhi(2, v, func(t, w int) float32 {
			if t == 1 {
				w = v - 1 - w
			}
			return row[w]
		})
		for i := 0; i < 2; i++ {
			at := func(w int) float32 {
				if i == 1 {
					w = v - 1 - w
				}
				return row[w]
			}
			explicit, floorSeen := 0, false
			for w := 0; w < v; w++ {
				x := at(w)
				if got := phi.at(i, w); math.Float32bits(got) != math.Float32bits(x) {
					t.Fatalf("row %d, word %d: reads %08x, was %08x", i, w, math.Float32bits(got), math.Float32bits(x))
				}
				if x < phi.floor[i] {
					t.Fatalf("row %d: word %d = %v lies below the floor %v", i, w, x, phi.floor[i])
				}
				if math.Float32bits(x) == math.Float32bits(phi.floor[i]) {
					floorSeen = true
				} else {
					explicit++
				}
			}
			if stored := len(phi.explicit(i)); !floorSeen || explicit != stored {
				t.Fatalf("row %d: floor %v held by a word: %v; %d explicit entries stored, %d differ from it", i, phi.floor[i], floorSeen, stored, explicit)
			}
			n := 0
			for w, x := range phi.entries(i) {
				if w != n || math.Float32bits(x) != math.Float32bits(at(w)) {
					t.Fatalf("row %d: entries yields word %d = %v at step %d, want %v", i, w, x, n, at(n))
				}
				n++
			}
			if n != v {
				t.Fatalf("row %d: entries yields %d words, want %d", i, n, v)
			}
		}

		for _, x := range row {
			if !(x >= 0) || math.IsInf(float64(x), 1) {
				return
			}
		}
		s := phi.sampler(0, make([]float64, 0, v/samplerBlock+2))
		total := s.prefix[len(s.prefix)-1]
		us := []float64{total, math.Nextafter(total, math.Inf(1)), math.Inf(1)}
		for _, p := range s.prefix {
			us = append(us, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
		}
		acc := 0.0
		for _, x := range row {
			acc += float64(x)
			us = append(us, acc, math.Nextafter(acc, 0))
		}
		for _, u := range us {
			if got, want := s.pick(u), scanIndexRef(row, u); got != want {
				t.Fatalf("V=%d, u=%x: pick = %d, the scan picks %d", v, math.Float64bits(u), got, want)
			}
		}
	})
}

func bytesOf(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// topWordsRef is TopWords as a sort of all V words of the dense row.
func topWordsRef(m *Model, t, n int) []TermWeight {
	row := m.dense()[t]
	idx := make([]int, m.V)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if row[idx[a]] != row[idx[b]] {
			return row[idx[a]] > row[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := make([]TermWeight, min(n, m.V))
	for i := range out {
		out[i] = TermWeight{Term: m.Terms[idx[i]], Weight: float64(row[idx[i]])}
	}
	return out
}

// TestTopWordsMatchesDenseSort compares TopWords with a sort of every
// word, on a trained model and on random rows with ties, zeros of both
// signs and rows that are all floor, for n from 0 past V.
func TestTopWordsMatchesDenseSort(t *testing.T) {
	trained, _, _ := trainSmall(t, 5, 43)
	rng := rand.New(rand.NewSource(47))
	const k, v = 6, 150
	random := &Model{K: k, V: v, Prior: make([]float64, k), Terms: make([]string, v)}
	for w := range random.Terms {
		random.Terms[w] = fmt.Sprintf("w%d", w)
	}
	phi := make([][]float32, k)
	for t := range phi {
		phi[t] = make([]float32, v)
		palette := sparseRowPalette[:1+t]
		for w := range phi[t] {
			phi[t][w] = palette[rng.Intn(len(palette))]
		}
	}
	setPhi(random, phi)
	for _, m := range []*Model{trained, random} {
		for tt := 0; tt < m.K; tt++ {
			for _, n := range []int{0, 1, 2, 7, 20, m.V / 2, m.V - 1, m.V, m.V + 3} {
				got, want := m.TopWords(tt, n), topWordsRef(m, tt, n)
				if len(got) != len(want) {
					t.Fatalf("V=%d, topic %d, n=%d: %d words, want %d", m.V, tt, n, len(got), len(want))
				}
				for i := range want {
					if got[i].Term != want[i].Term || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
						t.Fatalf("V=%d, topic %d, n=%d: word %d is %v, want %v", m.V, tt, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}
