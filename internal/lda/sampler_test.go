package lda

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// scanIndexRef is the sampler this package's rowSampler replaced: a
// left-to-right scan of the whole weight vector. Kept as the oracle.
func scanIndexRef(weights []float32, u float64) int {
	acc := 0.0
	for i, w := range weights {
		acc += float64(w)
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

func sampleIndexRef(weights []float32, rng *rand.Rand) int {
	total := 0.0
	for _, w := range weights {
		total += float64(w)
	}
	return scanIndexRef(weights, rng.Float64()*total)
}

// samplerRows are weight vectors around every block-layout edge.
func samplerRows() map[string][]float32 {
	rng := rand.New(rand.NewSource(77))
	zipf := func(v int) []float32 {
		row := make([]float32, v)
		for i := range row {
			row[i] = float32(rng.Float64() / float64(1+rng.Intn(v)))
		}
		return row
	}
	withZeros := func(row []float32, runs ...[2]int) []float32 {
		for _, r := range runs {
			for i := r[0]; i < r[1] && i < len(row); i++ {
				row[i] = 0
			}
		}
		return row
	}
	return map[string][]float32{
		"one word":              {0.3},
		"under a block":         zipf(samplerBlock - 27),
		"exactly a block":       zipf(samplerBlock),
		"block plus one":        zipf(samplerBlock + 1),
		"many blocks, ragged":   zipf(5*samplerBlock + 19),
		"many blocks, exact":    zipf(4 * samplerBlock),
		"vocabulary sized":      zipf(5003),
		"zero head":             withZeros(zipf(200), [2]int{0, 70}),
		"zero tail":             withZeros(zipf(200), [2]int{120, 200}),
		"whole blocks of zeros": withZeros(zipf(400), [2]int{64, 192}, [2]int{320, 400}),
		"scattered zeros":       withZeros(zipf(300), [2]int{3, 4}, [2]int{63, 65}, [2]int{127, 129}, [2]int{299, 300}),
		"all zeros":             make([]float32, 150),
	}
}

// TestRowSamplerMatchesScanOnSharedSeed draws over a million words from
// each implementation with identically seeded RNGs: every draw must
// pick the same word and leave the RNG in the same state.
func TestRowSamplerMatchesScanOnSharedSeed(t *testing.T) {
	rows := samplerRows()
	draws := 1_200_000/len(rows) + 1
	if testing.Short() {
		draws /= 20
	}
	for name, row := range rows {
		s := newRowSampler(row)
		a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		for i := 0; i < draws; i++ {
			if got, want := s.sample(a), sampleIndexRef(row, b); got != want {
				t.Fatalf("%s: draw %d picked word %d, the scan picks %d", name, i, got, want)
			}
		}
		if a.Int63() != b.Int63() {
			t.Errorf("%s: the sampler consumed a different number of random values", name)
		}
	}
}

// TestRowSamplerBlockBoundaries forces u onto each stored prefix, one
// float to either side of it, and to both ends of the range.
func TestRowSamplerBlockBoundaries(t *testing.T) {
	for name, row := range samplerRows() {
		s := newRowSampler(row)
		total := s.prefix[len(s.prefix)-1]
		us := []float64{0, math.Nextafter(total, 0), total, math.Nextafter(total, math.Inf(1))}
		for _, p := range s.prefix {
			us = append(us, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
		}
		// The running sum after every word is a boundary of the scan
		// inside a block.
		acc := 0.0
		for _, w := range row {
			acc += float64(w)
			us = append(us, acc, math.Nextafter(acc, 0))
		}
		for _, u := range us {
			if got, want := s.pick(u), scanIndexRef(row, u); got != want {
				t.Errorf("%s: u=%x picked word %d, the scan picks %d", name, math.Float64bits(u), got, want)
			}
		}
	}
}

func TestRowSamplerPrefixCount(t *testing.T) {
	for v, want := range map[int]int{1: 2, 63: 2, 64: 2, 65: 3, 128: 3, 129: 4} {
		if got := len(newRowSampler(make([]float32, v)).prefix); got != want {
			t.Errorf("V=%d: %d prefixes, want %d", v, got, want)
		}
	}
}

// TestSampleWordFollowsPhi checks the public entry point against the
// model's own row, and that it tracks the distribution it claims.
func TestSampleWordFollowsPhi(t *testing.T) {
	m, _, _ := trainSmall(t, 6, 3)
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	hits := make([]int, m.V)
	const draws = 20000
	for i := 0; i < draws; i++ {
		w := m.SampleWord(2, a)
		if want := sampleIndexRef(m.Phi[2], b); w != want {
			t.Fatalf("draw %d: SampleWord = %d, scan = %d", i, w, want)
		}
		hits[w]++
	}
	top := m.TopWords(2, 1)[0]
	got := float64(hits[m.TermID(top.Term)]) / draws
	if math.Abs(got-top.Weight) > 0.02 {
		t.Errorf("top word drawn with frequency %.3f, Pr(w|t) = %.3f", got, top.Weight)
	}
}

// scanFirstAbove is the left-to-right scan firstAbove must agree with:
// the first i with u < sums[i], or the last index when none.
func scanFirstAbove(sums []float64, u float64) int {
	for i, s := range sums {
		if u < s {
			return i
		}
	}
	return len(sums) - 1
}

// FuzzFirstAbove holds the branch-free search to the scan over running
// sums built from the input: byte-sized weights, where ties and zero
// weights are common, or raw float64 bits, up to +Inf; and a u that is
// the input's own value, an entry, one ulp below an entry, zero, the
// total, or above it.
func FuzzFirstAbove(f *testing.F) {
	for _, n := range []int{1, 2, 3, 31, 32, 33, 63, 64, 65, 100, 130} {
		bytes := make([]byte, n+1)
		for i := range bytes {
			bytes[i] = byte(i * 37)
		}
		for mode := uint8(0); mode < 6; mode++ {
			f.Add(bytes, 0.37, mode)
		}
	}
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, 5.0, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 5}, 0.0, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, u float64, mode uint8) {
		if len(raw) < 2 {
			return
		}
		var weights []float64
		if raw[0]%2 == 0 {
			// Byte weights: 0 for a third of the byte values, else a
			// multiple of 1/16.
			for _, b := range raw[1:] {
				weights = append(weights, float64(max(0, int(b)-85))/16)
			}
		} else {
			for b := raw[1:]; len(b) >= 8; b = b[8:] {
				w := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(b)))
				if math.IsNaN(w) {
					w = 0
				}
				weights = append(weights, w)
			}
		}
		if len(weights) == 0 {
			return
		}
		sums := make([]float64, len(weights))
		total := 0.0
		for i, w := range weights {
			total += w
			sums[i] = total
		}
		pick := int(math.Float64bits(u) % uint64(len(sums)))
		switch mode % 6 {
		case 0:
			if u = math.Abs(u); math.IsNaN(u) {
				u = 0
			}
		case 1:
			u = sums[pick]
		case 2:
			u = math.Nextafter(sums[pick], 0)
		case 3:
			u = 0
		case 4:
			u = total
		case 5:
			u = math.Nextafter(total, math.Inf(1))
		}
		if got, want := firstAbove(sums, u), scanFirstAbove(sums, u); got != want {
			t.Fatalf("u=%v over %d sums %v: firstAbove = %d, the scan stops at %d", u, len(sums), sums, got, want)
		}
	})
}

// TestRowSamplerPickAtEveryBlockBoundary runs pick against the full-row
// scan on seeded rows of every length up to eleven blocks, with runs of
// zero weights and of equal weights, at and one ulp either side of every
// block's opening prefix, and at and above the total.
func TestRowSamplerPickAtEveryBlockBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for v := 1; v <= 11*samplerBlock; v++ {
		row := make([]float32, v)
		for i := 0; i < v; {
			run := 1 + rng.Intn(2*samplerBlock)
			w := [3]float32{0, float32(1 + rng.Intn(4)), float32(rng.Float64())}[rng.Intn(3)]
			for ; run > 0 && i < v; run-- {
				row[i] = w
				if w != 0 && rng.Intn(4) == 0 {
					row[i] = float32(rng.Float64())
				}
				i++
			}
		}
		s := newRowSampler(row)
		total := s.prefix[len(s.prefix)-1]
		us := []float64{total, math.Nextafter(total, math.Inf(1)), math.Inf(1)}
		for _, p := range s.prefix {
			us = append(us, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
		}
		for _, u := range us {
			if got, want := s.pick(u), scanIndexRef(row, u); got != want {
				t.Fatalf("V=%d, u=%x: pick = %d, the scan picks %d", v, math.Float64bits(u), got, want)
			}
		}
	}
}
