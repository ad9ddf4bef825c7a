package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"toppriv/internal/core"
	"toppriv/internal/search"
)

// runConfig is one invocation's settings.
type runConfig struct {
	Workload workload
	Sizes    sizes
	Seed     int64
	Seconds  float64
	Clients  int
	Trace    bool
	// TmpRoot is where the traced pass keeps the shard and journal
	// directories of its durable write rig; removed when the run ends.
	TmpRoot string
	// OutDir, when set, receives the trace file.
	OutDir string
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of timings behind a percentile or median
	// (0 for counts and ratios).
	Samples int `json:"samples,omitempty"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Diagnostics are recorded but neither bounded nor part of the
	// driver contract: tail percentiles, writer acks, generator
	// lateness.
	Diagnostics map[string]value `json:"diagnostics,omitempty"`
	// Rounds are the unscaled per-round figures behind the end-to-end
	// timings and the speed samples taken between them, in run order:
	// how the machine drifted while the run was measured.
	Rounds map[string][]float64 `json:"rounds,omitempty"`
	// Notes are failed output checks, in words.
	Notes []string `json:"notes,omitempty"`
}

// defs is the metric list this run reports.
func (r *result) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

func (r *result) set(name string, v float64, samples int) {
	for _, d := range r.defs() {
		if d.Name == name {
			r.Metrics[name] = value{Value: v, Unit: d.Unit, Samples: samples}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

func (r *result) diag(name, unit string, v float64, samples int) {
	r.Diagnostics[name] = value{Value: v, Unit: unit, Samples: samples}
}

// failPhase records the failed operations of one phase.
func (r *result) failPhase(what string, s samples) {
	r.Attempted += s.attempted
	r.fail(s.failed, "%d of %d %s failed, first: %v", s.failed, s.attempted, what, s.firstErr)
}

// fail records failed output checks.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

var (
	errUnsatisfied = errors.New("cycle did not reach the exposure threshold")
	errUnstable    = errors.New("hits differ from an earlier answer to the same query")
	errShortAck    = errors.New("ingest acknowledged fewer ids than documents sent")
)

// loadClient is one closed-loop user: a trusted client with its own
// RNG and its own replay order. It is used by one goroutine at a time.
type loadClient struct {
	c     *search.Client
	order []string
	pos   int
	// first keeps the first answer to every query: the index does not
	// change during a run, so every later answer must equal it.
	first map[string][]search.SearchHit

	cycles, cycleLenSum int
}

func (lc *loadClient) next() string {
	q := lc.order[lc.pos%len(lc.order)]
	lc.pos++
	return q
}

func (lc *loadClient) remember(q string, hits []search.SearchHit) error {
	if prev, ok := lc.first[q]; ok {
		if !sameHits(prev, hits) {
			return errUnstable
		}
		return nil
	}
	lc.first[q] = hits
	return nil
}

// cycle runs one private search and the checks cheap enough to sit
// inside a timed loop.
func (lc *loadClient) cycle(ctx context.Context) error {
	q := lc.next()
	hits, err := lc.c.SearchCycle(ctx, q)
	if err != nil {
		return err
	}
	cy := lc.c.LastCycle()
	lc.cycles++
	lc.cycleLenSum += cy.Len()
	if !cy.Satisfied {
		return errUnsatisfied
	}
	return lc.remember(q, hits)
}

// plain runs one unprotected search.
func (lc *loadClient) plain() error {
	q := lc.next()
	hits, err := lc.c.SearchPlain(q)
	if err != nil {
		return err
	}
	return lc.remember(q, hits)
}

func sameHits(a, b []search.SearchHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

func newLoadClients(n int, s *stack, obf *core.Obfuscator, in *inputs, sz sizes, seed int64) ([]*loadClient, error) {
	out := make([]*loadClient, n)
	for i := range out {
		c, err := search.NewClient(s.front.URL, s.net.Client, obf, in.an, rand.New(rand.NewSource(seed*7919+int64(i))))
		if err != nil {
			return nil, err
		}
		c.K = sz.K
		out[i] = &loadClient{
			c: c, order: in.clientOrder(i, n),
			first: make(map[string][]search.SearchHit),
		}
	}
	return out, nil
}

// setup is everything a deployment does before its first query: train
// the model, build the obfuscator, build and start the stack.
func setup(cfg runConfig, in *inputs) (*core.Obfuscator, *stack, error) {
	obf, err := trainModel(cfg.Sizes, in.corpus)
	if err != nil {
		return nil, nil, err
	}
	st, err := buildStack(cfg.Workload, cfg.Sizes, in)
	if err != nil {
		return nil, nil, err
	}
	return obf, st, nil
}

// liveHeap is the bytes of reachable heap objects. Two collections,
// because an object with a finalizer (a closed file, a dropped mapping)
// takes two to go.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// roundStats are every round's figures, in run order.
type roundStats struct {
	cycleP50, cycleP95, cyclesPerS, openP50, plainP50 []float64
}

// runEndToEnd measures one workload with tracing off.
//
// Every timing it reports is scaled to the reference machine's speed:
// see calib.go. The unscaled figures and the scale are diagnostics.
func runEndToEnd(cfg runConfig, in *inputs, cl *closer) (*result, error) {
	sz, w := cfg.Sizes, cfg.Workload
	res := &result{Workload: w.Name, Seed: cfg.Seed, Metrics: map[string]value{}, Diagnostics: map[string]value{}}
	cal := newCalibrator(runtime.NumCPU())

	// Set-up, repeated, with a speed sample either side of every
	// repetition; the first stack is the one measured, so its heap is
	// read before the repeats leave their garbage behind.
	heapBefore := liveHeap()
	var (
		obf     *core.Obfuscator
		st      *stack
		setupsS []float64
	)
	setupSpeed := []float64{cal.sample()}
	for rep := 0; rep < sz.SetupReps; rep++ {
		t0 := time.Now()
		o, s, err := setup(cfg, in)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupsS = append(setupsS, time.Since(t0).Seconds())
		setupSpeed = append(setupSpeed, cal.sample())
		if rep > 0 {
			if err := s.Close(); err != nil {
				return nil, fmt.Errorf("close repeated stack: %w", err)
			}
			continue
		}
		obf, st = o, s
		cl.add(func() { st.Close() })
		res.set("heap_mb", (liveHeap()-heapBefore)/(1<<20), 0)
	}
	runtime.GC()

	clients, err := newLoadClients(cfg.Clients, st, obf, in, sz, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	n := len(clients)
	cycle := func(c, _ int) error { return clients[c].cycle(ctx) }

	warm := closedLoop(0, opsFor(sz.WarmCycles, n), n, cycle)
	res.failPhase("warm-up cycles", warm)
	for _, lc := range clients {
		lc.cycles, lc.cycleLenSum = 0, 0
	}

	// The three phases alternate in short rounds, each with the samples
	// its own percentiles need, and a speed sample before every phase.
	// A run reports the mean over the rounds of each round's figure: the
	// machine's speed moves from second to second, the mean of the rounds
	// follows the share of the run that was slow in proportion, and so
	// does the mean of the speed samples it is scaled by. A percentile
	// pooled over the run does not, and a median of rounds jumps when
	// about half the run was slow.
	rounds := max(2, int(cfg.Seconds/roundSeconds))
	share := func(f float64) time.Duration {
		return time.Duration(f * cfg.Seconds / float64(rounds) * float64(time.Second))
	}
	var (
		closed, open, plain samples
		rs                  roundStats
		speed               []float64
		perr                error
	)
	pct := func(dst *[]float64, what string, lat []time.Duration, p float64) {
		v, err := percentile(lat, p)
		if err != nil {
			perr = errors.Join(perr, fmt.Errorf("%s: %w", what, err))
		}
		*dst = append(*dst, v)
	}
	for r := 0; r < rounds; r++ {
		speed = append(speed, cal.sample())
		c := closedLoop(share(closedShare), opsFor(p95Samples, n), n, cycle)
		speed = append(speed, cal.sample())
		o := openLoop(w.OpenRate, share(openShare), p50Samples, n, nil, cycle)
		speed = append(speed, cal.sample())
		pl := closedLoop(share(plainShare), opsFor(p50Samples, n), n, func(c, _ int) error { return clients[c].plain() })
		pct(&rs.cycleP50, "closed-loop p50", c.lat, 0.50)
		pct(&rs.cycleP95, "closed-loop p95", c.lat, 0.95)
		pct(&rs.openP50, "open-loop p50", o.lat, 0.50)
		pct(&rs.plainP50, "plain p50", pl.lat, 0.50)
		rs.cyclesPerS = append(rs.cyclesPerS, float64(len(c.lat))/c.elapsed.Seconds())
		closed.merge(c)
		open.merge(o)
		plain.merge(pl)
	}
	speed = append(speed, cal.sample())
	cycles, lenSum := 0, 0
	for _, lc := range clients {
		cycles += lc.cycles
		lenSum += lc.cycleLenSum
	}

	res.failPhase("closed-loop cycles", closed)
	res.failPhase("open-loop cycles", open)
	res.failPhase("plain searches", plain)
	if perr != nil {
		return nil, perr
	}
	res.Rounds = map[string][]float64{
		"cycle_p50_ms": rs.cycleP50, "cycle_p95_ms": rs.cycleP95, "cycles_per_s": rs.cyclesPerS,
		"open_p50_ms": rs.openP50, "plain_p50_ms": rs.plainP50,
		"setup_s": setupsS, "setup_calib_ms": setupSpeed, "calib_ms": speed,
	}
	// slow is how many times slower than the reference machine this one
	// was while the phases ran, slowSetup while set-up ran.
	slow, slowSetup := mean(speed)/refCalibMs, mean(setupSpeed)/refCalibMs
	res.set("setup_s", mean(setupsS)/slowSetup, len(setupsS))
	res.set("cycle_p50_ms", mean(rs.cycleP50)/slow, len(closed.lat))
	res.set("cycle_p95_ms", mean(rs.cycleP95)/slow, len(closed.lat))
	res.set("cycles_per_s", mean(rs.cyclesPerS)*slow, len(closed.lat))
	res.set("open_p50_ms", mean(rs.openP50)/slow, len(open.lat))
	res.set("plain_p50_ms", mean(rs.plainP50)/slow, len(plain.lat))
	res.set("cycle_len_mean", float64(lenSum)/float64(cycles), cycles)

	// What the scaled means leave out: the machine's speed, how far the
	// rounds lay apart, and the unscaled figures pooled over the run.
	res.diag("rounds", "count", float64(rounds), 0)
	res.diag("machine.slowdown", "x", slow, len(speed))
	res.diag("machine.slowdown_setup", "x", slowSetup, len(setupSpeed))
	res.diag("machine.calib_spread_pct", "%", spreadPct(speed), len(speed))
	res.diag("search.cycle_p50_round_spread_pct", "%", spreadPct(rs.cycleP50), rounds)
	res.diag("setup_unscaled_s", "s", median(setupsS), len(setupsS))
	res.diag("search.cycles_per_s_unscaled", "1/s", float64(len(closed.lat))/closed.elapsed.Seconds(), len(closed.lat))
	for _, d := range []struct {
		name string
		lat  []time.Duration
	}{{"search.cycle", closed.lat}, {"search.open", open.lat}, {"search.plain", plain.lat}, {"loadgen.open_late", open.late}} {
		p50, _ := percentile(d.lat, 0.5)
		res.diag(d.name+"_p50_unscaled_ms", "ms", p50, len(d.lat))
		label, v := highestPercentile(d.lat)
		res.diag(d.name+"_"+label+"_unscaled_ms", "ms", v, len(d.lat))
	}

	// Output checks outside the timed phases.
	if st.rig != nil {
		deg := int(st.rig.router.ClusterHealth().Degraded)
		res.fail(deg, "%d cycles were answered without every shard", deg)
	}
	if err := checkAgainstOracle(st, clients, in, sz, res); err != nil {
		return nil, fmt.Errorf("oracle check: %w", err)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// makeTmpRoot creates the run's scratch directory under base.
func makeTmpRoot(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
