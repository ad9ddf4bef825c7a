package main

// The benchmark runs on a few cores of a shared host, and what those
// cores do in a second is not constant: other tenants come and go on
// the sibling hardware threads, and the same code then runs 1.3 to 1.6
// times slower for seconds or for a quarter of an hour, with no steal
// time to show for it. Runs of one commit were seen 60% apart an hour
// apart, and ten back-to-back runs spread 17-30% between their
// quartiles (README.md, Steadiness). No statistic over one run's own
// samples removes that; a yardstick measured in the same run does.
//
// The yardstick is a fixed computation from the standard library only,
// made of the kinds of work the system does, which no change to this
// repository can move. It is timed on every CPU at once before every
// phase of every round, and a run divides its timings by how much
// slower than refCalibMs the yardstick ran on average. A reported
// latency is therefore "milliseconds on the reference machine when it
// is undisturbed"; the unscaled figures are printed beside it. On the
// runs above, scaling took the spread of every timing from 17-30% to
// 3-7%.

import (
	"encoding/binary"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// calibWork is the fixed data one goroutine's reference computation
// runs over, built once so that the computation itself allocates
// nothing and never meets the garbage collector.
type calibWork struct {
	weights []float64
	varints []byte
	unsorted,
	sorted []float64
	table map[string]int32
	keys  []string
	sink  float64
}

func newCalibWork() *calibWork {
	w := &calibWork{
		weights:  make([]float64, 64),
		unsorted: make([]float64, 40000),
		sorted:   make([]float64, 40000),
		table:    make(map[string]int32, 8192),
	}
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range w.unsorted {
		w.unsorted[i] = float64(next() % 1000003)
	}
	for i := 0; i < 600000; i++ {
		w.varints = binary.AppendUvarint(w.varints, next()%100000)
	}
	for i := 0; i < 8192; i++ {
		w.table["term"+strconv.Itoa(i)] = int32(i)
	}
	for i := 0; i < 80000; i++ {
		w.keys = append(w.keys, "term"+strconv.Itoa(int(next()%12000)))
	}
	return w
}

// once runs the reference computation once: the kinds of work the
// system under test is made of (floating-point inference, streaming
// varint decode, sorting, string-keyed map lookups), from the standard
// library only, so that no change to the repository can move it.
func (w *calibWork) once() {
	acc := 0.0
	for rep := 0; rep < 2000; rep++ {
		tot := 0.0
		for k := range w.weights {
			w.weights[k] = math.Exp(-float64((k*rep)%17)/5) * math.Log(2+float64(k+rep))
			tot += w.weights[k]
		}
		for k := range w.weights {
			w.weights[k] /= tot
		}
		acc += w.weights[rep%64]
	}
	sum := uint64(0)
	for p := 0; p < len(w.varints); {
		v, n := binary.Uvarint(w.varints[p:])
		sum += v
		p += n
	}
	acc += float64(sum)
	copy(w.sorted, w.unsorted)
	sort.Float64s(w.sorted)
	acc += w.sorted[len(w.sorted)/2]
	for _, k := range w.keys {
		acc += float64(w.table[k])
	}
	w.sink += acc
}

// calibrator times the reference computation on every CPU at once.
type calibrator struct {
	work []*calibWork
}

func newCalibrator(workers int) *calibrator {
	c := &calibrator{}
	for i := 0; i < workers; i++ {
		c.work = append(c.work, newCalibWork())
	}
	return c
}

// refCalibMs is what one reference computation takes on the reference
// box (2 vCPUs of a Xeon at 2.1 GHz, go1.24) while nothing disturbs it.
// It only fixes the unit; comparisons between commits do not depend on
// it.
const refCalibMs = 13.0

// calibReps is how often a sample repeats the computation; the sample
// is the fastest repetition, which a stray interruption does not touch
// and a slow machine does.
const calibReps = 3

// sample returns the milliseconds one reference computation takes right
// now, with all CPUs busy running it: the mean over the goroutines of
// each one's fastest repetition.
func (c *calibrator) sample() float64 {
	best := make([]float64, len(c.work))
	var wg sync.WaitGroup
	for i, w := range c.work {
		wg.Add(1)
		go func(i int, w *calibWork) {
			defer wg.Done()
			best[i] = math.Inf(1)
			for r := 0; r < calibReps; r++ {
				t0 := time.Now()
				w.once()
				best[i] = min(best[i], float64(time.Since(t0))/float64(time.Millisecond))
			}
		}(i, w)
	}
	wg.Wait()
	sum := 0.0
	for _, b := range best {
		sum += b
	}
	return sum / float64(len(best))
}
