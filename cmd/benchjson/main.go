// Command benchjson converts `go test -bench` text output into a JSON
// artifact, so CI can upload a machine-readable performance record
// (ns/op, allocs/op, and custom metrics like docs_scored/op) and the
// perf trajectory of the query engine can be tracked across commits.
// It also compares two such artifacts and exits non-zero when a
// machine-independent metric regressed, which is what lets CI gate a PR
// on the committed baseline.
//
// Usage:
//
//	go test -run xxx -bench BenchmarkSearch -benchmem . | benchjson -o BENCH_search.json
//	benchjson -compare BENCH_search.json BENCH_new.json -tolerance 0.25
//
// Convert mode: non-benchmark lines (ok/PASS/log output) pass through
// unparsed; a run that produced no benchmark lines is an error, so a
// silently skipped bench step fails the pipeline instead of uploading
// an empty artifact. Every `<value> <unit>` metric pair on a
// benchmark line is captured generically — custom b.ReportMetric
// units round-trip unchanged, and a stray token skips one field, not
// the whole line.
//
// Compare mode: benchmarks are matched by name with the -cpu suffix
// stripped (machines differ). It fails only on what does not depend on
// the machine that ran the benchmarks. Entries whose name matches the
// -gate regexp (default covers the search benchmarks, the decode
// micro-benchmarks, the client-side obfuscation, inference and LDA
// training rows, the public-hop codec rows, the text-analysis rows, the
// live-store ingest row and the routed-ingest row) fail the comparison when their allocs/op
// grew by more than -tolerance (fraction, default 0.25; a baseline of
// zero allows none) or when they disappeared from the new results.
// Entries carrying an index_bytes/doc metric (the BenchmarkIndexSize
// memory-footprint row) are compared on that metric alone: growth
// beyond -size-tolerance (default 0.10) always fails,
// whatever the gate; entries carrying resident_bytes/doc (the
// BenchmarkTraversalCold/Warm store-residency rows) fail on that metric
// with the same size tolerance (a baseline of zero allows none).
// Everything else only warns: other
// benchmarks, work metrics like docs_scored/op, and ns/op growth beyond
// -tolerance on every row, gated or not — a committed ns/op is one
// machine's, and a gate that compared it with another's failed five PRs
// running (17–21) on code they had not touched. Time is judged by the
// system benchmark (bench/, BENCHMARK.json), which runs both sides on
// the same machine. Exit status 1 on any failure.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// defaultGate gates the end-to-end search benchmarks, the postings
// decode micro-benchmarks, the mapped-store traversal benchmarks, the
// client-side rows (one obfuscated cycle, one LDA posterior, and LDA
// training: BenchmarkLDATrain, BenchmarkLDATrainParallel's worker rows
// and BenchmarkLDATrainSample) and the public hop's reply codec (BenchmarkPublicWire: encode,
// decode keeping one member, decode keeping all), text analysis
// (BenchmarkAnalyze: query, document, non-ASCII text), index
// construction (BenchmarkIndexBuild), live-store ingest
// (BenchmarkLiveIndexIngest) and one routed ingest (BenchmarkRouterAdd)
// on allocs/op and on still being there; everything
// else (live-index query rows, instrumented variants) only warns.
const defaultGate = "^Benchmark(Search|DecodeTraversal|TraversalCold|TraversalWarm|ObfuscateQuery$|Inference$|LDATrain|PublicWire/|Analyze/|IndexBuild$|LiveIndexIngest$|RouterAdd$)"

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the full benchmark name including the sub-benchmark
	// path, with the -cpu suffix stripped so artifacts from machines
	// with different core counts stay comparable.
	Name string `json:"name"`
	// N is the iteration count the harness settled on.
	N int64 `json:"n"`
	// Metrics maps unit → per-op value, e.g. "ns/op", "allocs/op",
	// "docs_scored/op".
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.Bool("compare", false, "compare two benchmark JSON files (old new) and exit non-zero on regression")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional growth: of allocs/op before a gated benchmark counts as regressed, of ns/op before a warning is printed")
	sizeTolerance := flag.Float64("size-tolerance", 0.10, "allowed fractional index_bytes/doc growth before a size benchmark hard-fails")
	gate := flag.String("gate", defaultGate, "regexp over benchmark names whose regressions fail the comparison (others only warn)")
	flag.Parse()

	if *compare {
		files := flag.Args()
		if len(files) > 2 {
			// The flag package stops at the first positional argument;
			// re-parse the remainder so the documented shape
			// `benchjson -compare old.json new.json -tolerance 0.25`
			// works with the flags trailing.
			if err := flag.CommandLine.Parse(files[2:]); err != nil {
				log.Fatal(err)
			}
			if flag.CommandLine.NArg() > 0 {
				log.Fatalf("unexpected arguments after flags: %v", flag.CommandLine.Args())
			}
			files = files[:2]
		}
		runCompare(files, *tolerance, *sizeTolerance, *gate)
		return
	}

	var benches []Benchmark
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			benches = append(benches, b)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(benches) == 0 {
		log.Fatal("no benchmark lines found on stdin")
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benches); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks\n", len(benches))
}

// parseLine parses one `Benchmark<Name>-P  N  v1 u1  v2 u2 ...` line.
// Metric pairs are collected generically; a token that is not a float
// is skipped on its own instead of discarding the line, so custom
// metrics and odd spacing cannot silently drop a benchmark.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: stripCPUSuffix(fields[0]), N: n, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			i++
			continue
		}
		b.Metrics[fields[i+1]] = v
		i += 2
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// stripCPUSuffix removes the trailing "-<digits>" GOMAXPROCS marker
// from a benchmark name, if present.
func stripCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// runCompare loads two artifacts and exits non-zero when the new one
// regresses a gated benchmark.
func runCompare(args []string, tolerance, sizeTolerance float64, gate string) {
	if len(args) != 2 {
		log.Fatal("-compare needs exactly two arguments: old.json new.json")
	}
	gateRE, err := regexp.Compile(gate)
	if err != nil {
		log.Fatalf("-gate: %v", err)
	}
	oldB, err := loadBenchmarks(args[0])
	if err != nil {
		log.Fatal(err)
	}
	newB, err := loadBenchmarks(args[1])
	if err != nil {
		log.Fatal(err)
	}
	failures, warnings := compareBenchmarks(oldB, newB, tolerance, sizeTolerance, gateRE)
	for _, w := range warnings {
		fmt.Fprintf(os.Stderr, "benchjson: warn: %s\n", w)
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "benchjson: FAIL: %s\n", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d baseline benchmarks compared, no gated regressions (allocs/op tolerance %.0f%%; ns/op only warns)\n",
		len(oldB), tolerance*100)
}

func loadBenchmarks(path string) ([]Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var benches []Benchmark
	if err := json.Unmarshal(data, &benches); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return benches, nil
}

// sizeMetric is the machine-independent memory-footprint metric
// (BenchmarkIndexSize): postings bytes per indexed document. Entries
// carrying it are size-only rows — their ns/op is setup noise.
const sizeMetric = "index_bytes/doc"

// residentMetric is the heap-residency footprint of the traversal
// benchmarks (BenchmarkTraversalCold/Warm): heap bytes per document a
// loaded store actually pins. Unlike sizeMetric rows, these rows are
// real traversal timings, so their ns/op and allocs/op are compared as
// well.
const residentMetric = "resident_bytes/doc"

// compareBenchmarks diffs new against the old baseline. allocs/op
// growth beyond the tolerance — any growth from a baseline of zero —
// fails gated entries (gate regexp match) and warns for the rest; ns/op
// growth beyond it only ever warns — the baseline's timings are another
// machine's. docs_scored/op growth
// always only warns — scoring more documents is a work regression worth
// flagging, but it never blocks by itself. Entries carrying the
// index_bytes/doc size metric are compared on that metric alone and
// hard-fail beyond sizeTolerance regardless of the gate regexp (bytes
// don't depend on the runner).
// Entries present only in the new run are additions and pass
// silently. Names are matched as stored: parseLine already normalized
// away the -cpu suffix, and stripping again here would mangle
// sub-benchmark names that legitimately end in "-<digits>".
func compareBenchmarks(oldB, newB []Benchmark, tolerance, sizeTolerance float64, gate *regexp.Regexp) (failures, warnings []string) {
	latest := make(map[string]Benchmark, len(newB))
	for _, b := range newB {
		latest[b.Name] = b
	}
	flag := func(gated bool, format string, args ...interface{}) {
		msg := fmt.Sprintf(format, args...)
		if gated {
			failures = append(failures, msg)
		} else {
			warnings = append(warnings, msg)
		}
	}
	for _, ob := range oldB {
		name := ob.Name
		if oldSz, ok := ob.Metrics[sizeMetric]; ok && oldSz > 0 {
			nb, ok := latest[name]
			if !ok {
				flag(true, "%s: missing from new results", name)
				continue
			}
			newSz, ok := nb.Metrics[sizeMetric]
			if !ok {
				flag(true, "%s: %s missing from new results", name, sizeMetric)
				continue
			}
			if newSz > oldSz*(1+sizeTolerance) {
				flag(true, "%s: %s %.1f → %.1f (+%.1f%%, tolerance %.0f%%) — index footprint regressed",
					name, sizeMetric, oldSz, newSz, (newSz/oldSz-1)*100, sizeTolerance*100)
			}
			// ns/op of a size benchmark is environment-setup noise;
			// nothing else to compare.
			continue
		}
		gated := gate.MatchString(name)
		nb, ok := latest[name]
		if !ok {
			flag(gated, "%s: missing from new results", name)
			continue
		}
		if oldRes, ok := ob.Metrics[residentMetric]; ok {
			// Residency is machine-independent, so like index_bytes/doc it
			// hard-fails beyond sizeTolerance regardless of the gate
			// regexp — from a committed zero, at any growth; the row's
			// other metrics are still compared below.
			if newRes, ok := nb.Metrics[residentMetric]; !ok {
				flag(true, "%s: %s missing from new results", name, residentMetric)
			} else if oldRes == 0 && newRes > 0 {
				flag(true, "%s: %s 0 → %.1f — the baseline pins nothing on the heap", name, residentMetric, newRes)
			} else if newRes > oldRes*(1+sizeTolerance) {
				flag(true, "%s: %s %.1f → %.1f (+%.1f%%, tolerance %.0f%%) — store residency regressed",
					name, residentMetric, oldRes, newRes, (newRes/oldRes-1)*100, sizeTolerance*100)
			}
		}
		if oldNS, ok := ob.Metrics["ns/op"]; ok && oldNS > 0 {
			if newNS, ok := nb.Metrics["ns/op"]; ok && newNS > oldNS*(1+tolerance) {
				warnings = append(warnings, fmt.Sprintf(
					"%s: ns/op %.0f → %.0f (+%.1f%%, tolerance %.0f%%) — time is not gated here, see go run ./bench",
					name, oldNS, newNS, (newNS/oldNS-1)*100, tolerance*100))
			}
		}
		if oldA, ok := ob.Metrics["allocs/op"]; ok {
			newA, ok := nb.Metrics["allocs/op"]
			switch {
			case ok && oldA > 0 && newA > oldA*(1+tolerance):
				flag(gated, "%s: allocs/op %.0f → %.0f (+%.1f%%, tolerance %.0f%%)",
					name, oldA, newA, (newA/oldA-1)*100, tolerance*100)
			case ok && oldA == 0 && newA > 0:
				// No fraction of nothing: a row committed at zero stays there.
				flag(gated, "%s: allocs/op 0 → %.0f — the baseline allocates nothing", name, newA)
			}
		}
		if oldDS, ok := ob.Metrics["docs_scored/op"]; ok && oldDS > 0 {
			if newDS, ok := nb.Metrics["docs_scored/op"]; ok && newDS > oldDS*(1+tolerance) {
				warnings = append(warnings, fmt.Sprintf(
					"%s: docs_scored/op %.1f → %.1f (+%.1f%%) — more documents scored",
					name, oldDS, newDS, (newDS/oldDS-1)*100))
			}
		}
	}
	return failures, warnings
}
