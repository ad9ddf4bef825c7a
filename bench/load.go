package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// samples are the latencies of one phase, with its failure count.
type samples struct {
	lat []time.Duration
	// late is, for paced phases, how long after its due time each
	// operation was started: generator lateness plus queueing.
	late      []time.Duration
	attempted int
	failed    int
	// firstErr is the first failure, for the report.
	firstErr error
	elapsed  time.Duration
}

func (s *samples) merge(o samples) {
	s.lat = append(s.lat, o.lat...)
	s.late = append(s.late, o.late...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.elapsed += o.elapsed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

func (s *samples) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// closedLoop runs workers goroutines, each issuing its next operation
// only after the previous one completed. A worker stops once dur has
// passed and it has issued minOps operations: a phase on a slow machine
// runs long rather than report a percentile it has no samples for, and
// dur 0 makes it a fixed count. do receives the worker and that
// worker's operation counter. Failed operations count against
// attempted and contribute no latency.
func closedLoop(dur time.Duration, minOps, workers int, do func(worker, i int) error) samples {
	per := make([]samples, workers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := &per[w]
			for i := 0; ; i++ {
				t0 := time.Now()
				if i >= minOps && !t0.Before(deadline) {
					return
				}
				err := do(w, i)
				s.attempted++
				if err != nil {
					s.fail(err)
					continue
				}
				s.lat = append(s.lat, time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	return mergeSamples(per, start)
}

// opsFor is how many operations each of workers must issue for n
// samples in all.
func opsFor(n, workers int) int { return (n + workers - 1) / workers }

func mergeSamples(per []samples, start time.Time) samples {
	var all samples
	for _, s := range per {
		all.merge(s)
	}
	all.elapsed = time.Since(start)
	return all
}

// openLoop issues operation i at start + i/rate whether or not earlier
// ones have completed, for dur and at least minOps operations. Latency
// is measured from the due time, not from when a worker got to the
// operation, so a stall is charged to every operation that had to wait
// behind it. stop, when non-nil, ends the schedule early.
func openLoop(rate float64, dur time.Duration, minOps, workers int, stop <-chan struct{}, do func(worker, i int) error) samples {
	total := max(int(rate*dur.Seconds()), minOps)
	interval := time.Duration(float64(time.Second) / rate)
	per := make([]samples, workers)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := &per[w]
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-stop:
						t.Stop()
						return
					}
				}
				begun := time.Now()
				err := do(w, i)
				s.attempted++
				if err != nil {
					s.fail(err)
					continue
				}
				s.late = append(s.late, begun.Sub(due))
				s.lat = append(s.lat, time.Since(due))
			}
		}(w)
	}
	wg.Wait()
	return mergeSamples(per, start)
}

// minBeyond is how many samples must lie beyond a reported percentile;
// p50Samples and p95Samples are the sample counts that takes.
const (
	minBeyond  = 10
	p50Samples = 2 * minBeyond
	p95Samples = 20 * minBeyond
)

// percentile returns the p-quantile (0 < p < 1) of lat in
// milliseconds. It refuses a percentile that has fewer than ten
// samples beyond it on either side: a p95 of sixty samples is the
// third-worst sample, not a percentile.
func percentile(lat []time.Duration, p float64) (float64, error) {
	n := len(lat)
	beyond := math.Min(p, 1-p) * float64(n)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d: lengthen the phase", p*100, n, beyond, minBeyond)
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Linear interpolation between closest ranks.
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	v := float64(sorted[lo])
	if lo+1 < n {
		v += frac * float64(sorted[lo+1]-sorted[lo])
	}
	return v / float64(time.Millisecond), nil
}

// highestPercentile is the highest of p50/p90/p95/p99 that lat's
// sample count supports, with its label; diagnostics use it.
func highestPercentile(lat []time.Duration) (string, float64) {
	for _, c := range []struct {
		label string
		p     float64
	}{{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p50", 0.50}} {
		if v, err := percentile(lat, c.p); err == nil {
			return c.label, v
		}
	}
	return "none", 0
}

// quantile is the p-quantile (0 <= p <= 1) of xs, by linear
// interpolation between closest ranks; NaN for no values.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spreadPct is the distance between the quartiles of xs as a
// percentage of their median, the driver's measure of steadiness.
func spreadPct(xs []float64) float64 {
	return 100 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
