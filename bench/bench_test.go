package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeSizes run every workload and the traced pass in a few seconds.
var smokeSizes = sizes{
	NumDocs: 1000, NumTopics: 16, WordsPerTopic: 80, SharedWords: 100,
	LDATopics: 16, LDAIters: 30, LDASample: 400,
	// A toy model cannot always mask down to the paper's 1%.
	Eps1: 0.05, Eps2: 0.03,
	MinTerms: 2, MaxTerms: 9, PerTopic: 1,
	K:               10,
	ClientBoundDocs: 200,
	PreloadBatch:    100,
	WarmCycles:      20,
	WriteBatch:      10,
	SetupReps:       1,
	TraceCycles:     40, WriteRigDocs: 200,
	SurvivorTitles: 50, SurvivorQueries: 10,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json to spec.go: the
// same workloads and metrics, under the same names, units, directions
// and bounds, within the driver's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if strings.Join(bf.Command, " ") != "go run ./bench" {
		t.Errorf("command = %v", bf.Command)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec has %d", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the driver's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q), spec has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, spec has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			name(m.Name)
			if m != want[i] {
				t.Errorf("%s %d: %+v, spec has %+v", kind, i, m, want[i])
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}

// TestSmoke runs every workload end to end at toy sizes, and the traced
// pass on one single-node and one clustered workload (the two shapes it
// has), and requires every metric of the matching list exactly once,
// finite, with its unit, and every output check to pass.
func TestSmoke(t *testing.T) {
	tmp := t.TempDir()
	in, err := makeInputs(smokeSizes, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && w.Name != "client_bound" && w.Name != "cluster" {
				continue
			}
			cfg := runConfig{Workload: w, Sizes: smokeSizes, Seed: 3, Seconds: 1, Clients: 2, Trace: trace, TmpRoot: tmp, OutDir: tmp}
			res, err := runWorkload(cfg, in)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d failed %d: %v", w.Name, trace, res.Attempted, res.Failed, res.Notes)
			}
			defs := res.defs()
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s missing", w.Name, trace, d.Name)
					continue
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s = %v %q", w.Name, trace, d.Name, v.Value, v.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			var line bytes.Buffer
			if err := printResultLine(&line, res); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(line.Bytes(), &obj); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", w.Name, trace, err)
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || len(metrics) != len(defs) {
				t.Errorf("%s trace=%v: result line has keys %d and %d metrics: %s", w.Name, trace, len(obj), len(metrics), line.String())
			}
		}
	}
	for _, name := range []string{"client_bound", "cluster"} {
		if _, err := os.Stat(filepath.Join(tmp, "trace-"+name+".json")); err != nil {
			t.Errorf("trace file: %v", err)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	mk := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{19, 0.50, false}, {20, 0.50, true},
		{199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{60, 0.05, false},
	} {
		_, err := percentile(mk(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, p=%v): err = %v, want ok = %v", c.n, c.p, err, c.ok)
		}
	}
	if v, _ := percentile(mk(101), 0.5); v != 51 {
		t.Errorf("median of 1..101 ms = %v", v)
	}
}

// TestOpenLoopTimesFromDue stalls a fake backend once. Every operation
// that came due during the stall waited behind it, and an open loop
// must charge them that wait; a closed loop over the same backend
// shows one slow operation and nothing else.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	backend := func(_, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	}
	open := openLoop(200, 400*time.Millisecond, 0, 1, nil, backend)
	if len(open.lat) != 80 || open.failed != 0 {
		t.Fatalf("open loop: %d samples, %d failed", len(open.lat), open.failed)
	}
	// The 40 operations due during the stall complete when it ends,
	// 200..5 ms after they were due; the 40 after it are prompt. p75 is
	// therefore about half the stall. Timed from when a worker got to
	// them, all but the first would read as instant.
	p75, err := percentile(open.lat, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if p75 < 50 {
		t.Errorf("open-loop p75 = %.1f ms after a %v stall: latency is not measured from the due time", p75, stall)
	}
	lateness, err := percentile(open.late, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if lateness < 50 {
		t.Errorf("generator lateness p75 = %.1f ms, want the stall to show", lateness)
	}
	closed := closedLoop(0, 80, 1, backend)
	closedP75, err := percentile(closed.lat, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if closedP75 > 5 {
		t.Errorf("closed-loop p75 = %.1f ms: only the stalled operation itself should be slow", closedP75)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(sub string, p50 float64, correct bool) string {
		d := filepath.Join(dir, sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, jitter := range []float64{-0.01, 0, 0.01} {
			res := &result{Workload: "cluster", Seed: int64(i), Correct: correct, Attempted: 10, Metrics: map[string]value{
				"cycle_p50_ms": {Value: p50 * (1 + jitter), Unit: "ms"},
				"cycles_per_s": {Value: 100, Unit: "1/s"},
			}}
			if err := writeReport(d, res); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	a := write("a", 10, true)
	same := write("same", 10.5, true)
	slow := write("slow", 13.5, true)
	wrong := write("wrong", 10, false)
	for _, c := range []struct {
		b    string
		want bool
	}{{same, false}, {slow, true}, {wrong, true}} {
		var out bytes.Buffer
		got, err := compareReports(&out, a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("compare(a, %s) = %v, want %v\n%s", filepath.Base(c.b), got, c.want, out.String())
		}
	}
}

// TestQueryListIsStratified holds makeInputs to its promise: every
// seed's list has the same number of queries of every length, in
// windows that hold one of each.
func TestQueryListIsStratified(t *testing.T) {
	sz := smokeSizes
	nLen := sz.MaxTerms - sz.MinTerms + 1
	for seed := int64(1); seed <= 2; seed++ {
		in, err := makeInputs(sz, seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := nLen * sz.NumTopics * sz.PerTopic; len(in.queries) != want {
			t.Fatalf("seed %d: %d queries, want %d", seed, len(in.queries), want)
		}
		for lo := 0; lo < len(in.queries); lo += nLen {
			seen := map[int]bool{}
			for _, q := range in.queries[lo : lo+nLen] {
				seen[len(strings.Fields(q))] = true
			}
			if len(seen) != nLen {
				t.Fatalf("seed %d: window at %d holds %d distinct lengths, want %d", seed, lo, len(seen), nLen)
			}
		}
	}
}

// TestCalibratorIsSteady: the yardstick allocates nothing (so it never
// meets the collector) and two samples in a row agree.
func TestCalibratorIsSteady(t *testing.T) {
	w := newCalibWork()
	if allocs := testing.AllocsPerRun(2, w.once); allocs != 0 {
		t.Errorf("reference computation allocates %v times a run", allocs)
	}
	c := newCalibrator(1)
	a, b := c.sample(), c.sample()
	if a <= 0 || b <= 0 || math.Max(a, b) > 3*math.Min(a, b) {
		t.Errorf("two speed samples in a row: %.2f ms and %.2f ms", a, b)
	}
}

func TestClientsGuard(t *testing.T) {
	if n := defaultClients(); n < 2 || n > 8 || n > maxClients() {
		t.Errorf("defaultClients() = %d, maxClients() = %d", n, maxClients())
	}
}
