// Command bench is the repository's system benchmark: it builds the
// TopPriv deployments in-process over loopback HTTP, drives them with
// obfuscated query cycles from one process, checks what they answer,
// and prints every metric named in BENCHMARK.json.
//
//	go run ./bench -workload cluster -seed 1 -seconds 22 -trace 0
//	go run ./bench -workload all -out bench-out
//	go run ./bench -compare A B
//
// The last line of standard output is one JSON object per workload run;
// everything else goes to standard error. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// hardLimit is the longest one workload's run may take.
const hardLimit = 170 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run: single_node, client_bound, cluster or all")
		seed         = flag.Int64("seed", 1, "seed of the query workload and the client RNGs (the corpus and model seeds are fixed)")
		seconds      = flag.Float64("seconds", 22, "seconds of timed phases per run")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and the per-layer metrics")
		clients      = flag.Int("clients", defaultClients(), "client goroutines (default two per CPU, at most four per CPU)")
		outDir       = flag.String("out", "", "directory for run-*.json reports and trace-<workload>.json (optional)")
		compare      = flag.Bool("compare", false, "compare two reports (files or -out directories): bench -compare A B")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A B")
			return 2
		}
		worse, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		return 2
	}
	if *clients < 1 || *clients > maxClients() {
		fmt.Fprintf(os.Stderr, "bench: -clients %d refused: the load generator shares %d CPUs with the system it measures, at most %d\n", *clients, runtime.NumCPU(), maxClients())
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	var run []workload
	if *workloadName == "all" {
		run = workloads
	} else {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		run = []workload{w}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}

	// Everything started or created below is released on every exit
	// path, a signal included.
	cl := &closer{}
	defer cl.run()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cl.run()
		os.Exit(130)
	}()

	tmpRoot, err := makeTmpRoot(".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cl.add(func() { os.RemoveAll(tmpRoot) })

	sz := fullSizes
	printHeader(sz, *seed, *seconds, *clients, *trace == 1)
	t0 := time.Now()
	in, err := makeInputs(sz, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "inputs: %d docs, %d terms, %d queries generated in %.2fs (untimed)\n",
		in.corpus.NumDocs(), in.corpus.VocabSize(), len(in.queries), time.Since(t0).Seconds())

	ok := true
	for _, w := range run {
		cfg := runConfig{Workload: w, Sizes: sz, Seed: *seed, Seconds: *seconds, Clients: *clients, Trace: *trace == 1, TmpRoot: tmpRoot, OutDir: *outDir}
		// The driver allows a run 180 s. A run that is still going
		// after hardLimit is wedged: say where, clean up, and fail.
		watchdog := time.AfterFunc(hardLimit, func() {
			fmt.Fprintf(os.Stderr, "bench: %s still running after %v; goroutines:\n", w.Name, hardLimit)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			cl.run()
			os.Exit(3)
		})
		res, err := runWorkload(cfg, in)
		watchdog.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		printReport(os.Stderr, res)
		if *outDir != "" {
			if err := writeReport(*outDir, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		if err := printResultLine(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		ok = ok && res.Correct
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload runs one workload in one mode and releases its stacks.
func runWorkload(cfg runConfig, in *inputs) (*result, error) {
	cl := &closer{}
	defer cl.run()
	fmt.Fprintf(os.Stderr, "\n== %s (trace=%v): %s\n", cfg.Workload.Name, cfg.Trace, cfg.Workload.Why)
	if cfg.Trace {
		return runTraced(cfg, in, cl)
	}
	return runEndToEnd(cfg, in, cl)
}

func printHeader(sz sizes, seed int64, seconds float64, clients int, trace bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(os.Stderr, "toppriv bench: commit %s, %s, nproc %d, GOMAXPROCS %d, clients %d, seed %d, seconds %g, trace %v\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), clients, seed, seconds, trace)
	b, _ := json.Marshal(sz)
	fmt.Fprintf(os.Stderr, "sizes: %s\n", b)
	fmt.Fprintf(os.Stderr, "phases: rounds of %gs (closed %.0f%%, open %.0f%%, plain %.0f%%); a timing is the mean over the rounds, scaled to the reference speed (yardstick %g ms)\n",
		roundSeconds, 100*closedShare, 100*openShare, 100*plainShare, refCalibMs)
	fmt.Fprintf(os.Stderr, "flush policy: %s; %s\n", storePolicy, durablePolicy)
}

// printResultLine prints the one-line JSON object the driver reads:
// exactly the keys correct, attempted, failed and metrics, each metric
// with its value and unit.
func printResultLine(w io.Writer, res *result) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range res.defs() {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		line.Metrics[d.Name] = metric{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printReport is the human-readable form: every metric by name with
// unit, sample count, direction and regression bound.
func printReport(w io.Writer, res *result) {
	fmt.Fprintf(w, "%-34s %14s %-14s %8s %-7s %s\n", "metric", "value", "unit", "samples", "better", "bound")
	for _, d := range res.defs() {
		v := res.Metrics[d.Name]
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
		}
		fmt.Fprintf(w, "%-34s %14.4f %-14s %8d %-7s %s\n", d.Name, v.Value, v.Unit, v.Samples, d.Better, bound)
	}
	names := make([]string, 0, len(res.Diagnostics))
	for name := range res.Diagnostics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Diagnostics[name]
		fmt.Fprintf(w, "  diag %-29s %14.4f %-14s %8d\n", name, v.Value, v.Unit, v.Samples)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// writeReport saves one run under dir; the time in the name keeps
// repeated runs of one seed apart.
func writeReport(dir string, res *result) error {
	mode := "e2e"
	if res.Trace {
		mode = "trace"
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("run-%s-%s-seed%d-%d.json", res.Workload, mode, res.Seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
