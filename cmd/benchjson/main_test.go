package main

import (
	"regexp"
	"strings"
	"testing"
)

func TestParseLineStandard(t *testing.T) {
	b, ok := parseLine("BenchmarkSearch/cosine/exhaustive-8         \t   26794\t     47863 ns/op\t        75.07 docs_scored/op\t     184 B/op\t       2 allocs/op")
	if !ok {
		t.Fatal("standard line must parse")
	}
	if b.Name != "BenchmarkSearch/cosine/exhaustive" {
		t.Errorf("Name = %q, want cpu suffix stripped", b.Name)
	}
	if b.N != 26794 {
		t.Errorf("N = %d", b.N)
	}
	want := map[string]float64{
		"ns/op": 47863, "docs_scored/op": 75.07,
		"B/op": 184, "allocs/op": 2,
	}
	for unit, v := range want {
		if b.Metrics[unit] != v {
			t.Errorf("Metrics[%q] = %v, want %v", unit, b.Metrics[unit], v)
		}
	}
}

// TestParseLineCustomMetrics pins the fix for the silent-drop bug: a
// line carrying custom b.ReportMetric units — including ones with odd
// characters or a stray non-numeric token in the middle — must still
// produce every parsable metric pair instead of being discarded.
func TestParseLineCustomMetrics(t *testing.T) {
	b, ok := parseLine("BenchmarkFig3-4  2  912345 ns/op  14.2 Usize@0.5%  3.00 maxrank@0.5%  5.1 exposure%")
	if !ok {
		t.Fatal("custom-metric line must parse")
	}
	for unit, v := range map[string]float64{
		"ns/op": 912345, "Usize@0.5%": 14.2, "maxrank@0.5%": 3, "exposure%": 5.1,
	} {
		if b.Metrics[unit] != v {
			t.Errorf("Metrics[%q] = %v, want %v", unit, b.Metrics[unit], v)
		}
	}

	// A stray token skips one field, not the line.
	b, ok = parseLine("BenchmarkOdd-2  10  100 ns/op  garbage  7 widgets/op")
	if !ok {
		t.Fatal("line with a stray token must still parse")
	}
	if b.Metrics["ns/op"] != 100 || b.Metrics["widgets/op"] != 7 {
		t.Errorf("Metrics = %v, want ns/op and widgets/op captured", b.Metrics)
	}
}

func TestParseLineRejectsNonBenchmarks(t *testing.T) {
	for _, line := range []string{
		"ok  \ttoppriv\t9.2s",
		"PASS",
		"goos: linux",
		"BenchmarkBad notanumber 12 ns/op",
		"BenchmarkShort 5",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("line %q must not parse", line)
		}
	}
}

func TestStripCPUSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkSearch/cosine/exhaustive-8": "BenchmarkSearch/cosine/exhaustive",
		"BenchmarkSearch/cosine/exhaustive":   "BenchmarkSearch/cosine/exhaustive",
		"BenchmarkX-12":                       "BenchmarkX",
		"BenchmarkX-a8":                       "BenchmarkX-a8",
		"BenchmarkX-":                         "BenchmarkX-",
	} {
		if got := stripCPUSuffix(in); got != want {
			t.Errorf("stripCPUSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func bench(name string, ns, docsScored float64) Benchmark {
	m := map[string]float64{"ns/op": ns}
	if docsScored > 0 {
		m["docs_scored/op"] = docsScored
	}
	return Benchmark{Name: name, N: 1, Metrics: m}
}

// TestCompareNsOpOnlyWarns: the committed ns/op is one machine's and
// the new run another's, so growth past the tolerance is printed for
// every row, gated or not, and never fails the comparison.
func TestCompareNsOpOnlyWarns(t *testing.T) {
	oldB := []Benchmark{
		bench("BenchmarkSearch/cosine/exhaustive", 40000, 60),
		bench("BenchmarkSearch/bm25/exhaustive", 30000, 55),
		bench("BenchmarkLiveIndex/single", 36000, 0),
	}
	newB := []Benchmark{
		bench("BenchmarkSearch/cosine/exhaustive", 49000, 60), // within 25%
		bench("BenchmarkSearch/bm25/exhaustive", 40000, 80),   // gated, +33% ns: warn; docs_scored +45%: warn
		bench("BenchmarkLiveIndex/single", 80000, 0),          // ungated, +122% ns: warn
		bench("BenchmarkSearchBatch/cosine/batch8", 10000, 0), // addition: ignored
	}
	failures, warnings := compareBenchmarks(oldB, newB, 0.25, 0.10, regexp.MustCompile("^BenchmarkSearch"))
	if len(failures) != 0 {
		t.Errorf("failures = %v, want none: ns/op growth is never fatal", failures)
	}
	all := strings.Join(warnings, "\n")
	if len(warnings) != 3 || !strings.Contains(all, "BenchmarkSearch/bm25/exhaustive: ns/op 30000 → 40000") ||
		!strings.Contains(all, "BenchmarkLiveIndex/single: ns/op") || !strings.Contains(all, "docs_scored") {
		t.Errorf("warnings = %v, want the gated and the ungated ns/op growth and the docs_scored growth", warnings)
	}
}

func TestCompareMissingGatedEntryFails(t *testing.T) {
	oldB := []Benchmark{bench("BenchmarkSearch/cosine/exhaustive", 40000, 0)}
	failures, _ := compareBenchmarks(oldB, []Benchmark{bench("BenchmarkOther", 1, 0)}, 0.25, 0.10, regexp.MustCompile("^BenchmarkSearch"))
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Errorf("failures = %v, want a missing-entry failure", failures)
	}
}

func TestCompareCleanRun(t *testing.T) {
	oldB := []Benchmark{
		bench("BenchmarkSearch/cosine/exhaustive", 40000, 60),
		bench("BenchmarkLiveIndex/segmented4", 66000, 400),
	}
	newB := []Benchmark{
		bench("BenchmarkSearch/cosine/exhaustive", 41000, 58),
		bench("BenchmarkLiveIndex/segmented4", 70000, 410),
	}
	failures, warnings := compareBenchmarks(oldB, newB, 0.25, 0.10, regexp.MustCompile("^BenchmarkSearch"))
	if len(failures) != 0 || len(warnings) != 0 {
		t.Errorf("clean run produced failures %v warnings %v", failures, warnings)
	}
}

// sizeBench builds a BenchmarkIndexSize-style entry.
func sizeBench(name string, bytesPerDoc, nsOp float64) Benchmark {
	return Benchmark{Name: name, N: 1, Metrics: map[string]float64{
		"index_bytes/doc": bytesPerDoc,
		"ns/op":           nsOp,
	}}
}

// TestCompareSizeGate checks the index_bytes/doc rules: growth beyond
// the size tolerance hard-fails regardless of the gate prefix, growth
// within it passes, the wildly varying ns/op of a size benchmark is
// ignored, and a baseline size entry missing from the new run fails.
func TestCompareSizeGate(t *testing.T) {
	oldB := []Benchmark{sizeBench("BenchmarkIndexSize", 125, 7e9)}
	// +8% with a 1000x ns/op swing: clean.
	failures, warnings := compareBenchmarks(oldB,
		[]Benchmark{sizeBench("BenchmarkIndexSize", 135, 7e6)}, 0.25, 0.10, regexp.MustCompile("^BenchmarkSearch"))
	if len(failures) != 0 || len(warnings) != 0 {
		t.Errorf("within-tolerance size growth flagged: failures %v warnings %v", failures, warnings)
	}
	// +20%: hard failure even though the name is outside the gate prefix.
	failures, _ = compareBenchmarks(oldB,
		[]Benchmark{sizeBench("BenchmarkIndexSize", 150, 7e9)}, 0.25, 0.10, regexp.MustCompile("^BenchmarkSearch"))
	if len(failures) != 1 || !strings.Contains(failures[0], "index_bytes/doc") {
		t.Errorf("failures = %v, want one index_bytes/doc size failure", failures)
	}
	// Size entry vanished entirely: hard failure.
	failures, _ = compareBenchmarks(oldB,
		[]Benchmark{bench("BenchmarkSearch/cosine/exhaustive", 40000, 60)}, 0.25, 0.10, regexp.MustCompile("^BenchmarkSearch"))
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Errorf("failures = %v, want a missing size-entry failure", failures)
	}
	// New run lost the metric but kept the benchmark: hard failure.
	failures, _ = compareBenchmarks(oldB,
		[]Benchmark{bench("BenchmarkIndexSize", 100, 0)}, 0.25, 0.10, regexp.MustCompile("^BenchmarkSearch"))
	if len(failures) != 1 || !strings.Contains(failures[0], "index_bytes/doc missing") {
		t.Errorf("failures = %v, want a missing-metric failure", failures)
	}
}

// TestCompareDefaultGateRegexp pins the default gate: the decode
// micro-benchmarks, the mapped-traversal benchmarks, the client-side
// rows, the text-analysis rows, index construction and both ingest rows
// fail alongside
// the search benchmarks when they disappear from the new results, while
// a name that merely contains (not starts with) a gated word only warns.
func TestCompareDefaultGateRegexp(t *testing.T) {
	gate := regexp.MustCompile(defaultGate)
	oldB := []Benchmark{
		bench("BenchmarkDecodeTraversal/w8", 1000, 0),
		bench("BenchmarkTraversalCold", 3000, 0),
		bench("BenchmarkTraversalWarm/heap", 3000, 0),
		bench("BenchmarkResearchIndexing", 500, 0),
		bench("BenchmarkObfuscateQuery", 300000, 0),
		bench("BenchmarkInference", 20000, 0),
		bench("BenchmarkInferenceIters/160", 80000, 0),
		bench("BenchmarkPublicWire/encode", 12000, 0),
		bench("BenchmarkPublicWire/decode/keep-one", 23000, 0),
		bench("BenchmarkPublicWire/decode/keep-all", 140000, 0),
		bench("BenchmarkPublicWireless", 100, 0),
		bench("BenchmarkAnalyze/query", 3000, 0),
		bench("BenchmarkAnalyzeReference/query", 12000, 0),
		bench("BenchmarkLDATrain", 15e6, 0),
		bench("BenchmarkLDATrainParallel/2workers", 80e6, 0),
		bench("BenchmarkFitLDATrain", 1e6, 0),
		bench("BenchmarkIndexBuild", 9e6, 0),
		bench("BenchmarkIndexBuildParallel", 9e6, 0),
		bench("BenchmarkLiveIndexIngest", 60000, 0),
		bench("BenchmarkLiveIndexIngestMapped", 60000, 0),
		bench("BenchmarkRouterAdd", 12e6, 0),
		bench("BenchmarkRouterAddAll", 12e6, 0),
	}
	newB := []Benchmark{bench("BenchmarkSearch/cosine/exhaustive", 40000, 0)}
	failures, warnings := compareBenchmarks(oldB, newB, 0.25, 0.10, gate)
	if len(failures) != 14 {
		t.Errorf("failures = %v, want DecodeTraversal, both Traversal rows, ObfuscateQuery, Inference, the three PublicWire rows, Analyze/query, both LDATrain rows, IndexBuild, LiveIndexIngest and RouterAdd gated", failures)
	}
	if all := strings.Join(warnings, "\n"); len(warnings) != 8 || !strings.Contains(all, "IndexBuildParallel") || !strings.Contains(all, "ResearchIndexing") || !strings.Contains(all, "InferenceIters") || !strings.Contains(all, "PublicWireless") || !strings.Contains(all, "AnalyzeReference") || !strings.Contains(all, "FitLDATrain") || !strings.Contains(all, "LiveIndexIngestMapped") || !strings.Contains(all, "RouterAddAll") {
		t.Errorf("warnings = %v, want the anchored-out names to warn only", warnings)
	}
}

// TestCompareAllocsGate: allocations per operation do not depend on the
// machine — a gated row fails, any other row warns.
func TestCompareAllocsGate(t *testing.T) {
	allocBench := func(name string, allocs float64) Benchmark {
		return Benchmark{Name: name, N: 1, Metrics: map[string]float64{"ns/op": 1000, "allocs/op": allocs}}
	}
	// The routed-cycle row is gated through the BenchmarkSearch prefix:
	// falling back to per-member set-up (32 allocations) must fail.
	const routed = "BenchmarkSearchBatch/bm25-global/batch8"
	// The public hop's rows: keeping one member must not creep toward
	// keeping all, and the encoder, committed at zero, allocates nothing —
	// a fraction of zero would let any growth through.
	const encode, keepOne = "BenchmarkPublicWire/encode", "BenchmarkPublicWire/decode/keep-one"
	// Text analysis: a query back on the rune-by-rune pipeline's
	// per-token allocations must fail.
	const analyze = "BenchmarkAnalyze/query"
	// LDA training: working memory allocated per sweep instead of once
	// per training (10 sweeps × 2 shards here) must fail; a run within
	// the tolerance passes.
	const train, train2 = "BenchmarkLDATrain", "BenchmarkLDATrainParallel/2workers"
	oldB := []Benchmark{allocBench("BenchmarkObfuscateQuery", 139), allocBench("BenchmarkInference", 2), allocBench("BenchmarkFig2", 100), allocBench(routed, 17), allocBench(encode, 0), allocBench(keepOne, 31), allocBench(analyze, 2), allocBench(train, 441), allocBench(train2, 3086), allocBench("BenchmarkLiveIndex/single", 0)}
	newB := []Benchmark{allocBench("BenchmarkObfuscateQuery", 150), allocBench("BenchmarkInference", 6), allocBench("BenchmarkFig2", 200), allocBench(routed, 32), allocBench(encode, 1), allocBench(keepOne, 60), allocBench(analyze, 46), allocBench(train, 460), allocBench(train2, 3886), allocBench("BenchmarkLiveIndex/single", 0)}
	failures, warnings := compareBenchmarks(oldB, newB, 0.25, 0.10, regexp.MustCompile(defaultGate))
	if all := strings.Join(failures, "\n"); len(failures) != 6 || !strings.Contains(all, "BenchmarkInference: allocs/op 2 → 6") || !strings.Contains(all, routed+": allocs/op 17 → 32") || !strings.Contains(all, encode+": allocs/op 0 → 1") || !strings.Contains(all, keepOne+": allocs/op 31 → 60") || !strings.Contains(all, analyze+": allocs/op 2 → 46") || !strings.Contains(all, train2+": allocs/op 3086 → 3886") {
		t.Errorf("failures = %v, want exactly the Inference, routed-batch, two PublicWire, Analyze and parallel-training allocs/op regressions", failures)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "BenchmarkFig2: allocs/op") {
		t.Errorf("warnings = %v, want the ungated allocs/op growth", warnings)
	}
}

// residentBench builds a BenchmarkTraversal-style entry carrying both
// a timing and a residency metric.
func residentBench(name string, nsOp, resPerDoc float64) Benchmark {
	return Benchmark{Name: name, N: 1, Metrics: map[string]float64{
		"ns/op":              nsOp,
		"resident_bytes/doc": resPerDoc,
	}}
}

// TestCompareResidentGate checks the resident_bytes/doc rules: the
// metric hard-fails beyond the size tolerance regardless of the gate
// regexp, and — unlike index_bytes/doc rows — the same row's ns/op is
// still compared, as a warning.
func TestCompareResidentGate(t *testing.T) {
	oldB := []Benchmark{residentBench("BenchmarkTraversalWarm/heap", 50000, 130)}
	gate := regexp.MustCompile(defaultGate)
	// Both axes within tolerance: clean.
	failures, warnings := compareBenchmarks(oldB,
		[]Benchmark{residentBench("BenchmarkTraversalWarm/heap", 55000, 138)}, 0.25, 0.10, gate)
	if len(failures) != 0 || len(warnings) != 0 {
		t.Errorf("within-tolerance run flagged: failures %v warnings %v", failures, warnings)
	}
	// Residency +23%: hard failure even under a gate regexp that does
	// not match the name.
	failures, _ = compareBenchmarks(oldB,
		[]Benchmark{residentBench("BenchmarkTraversalWarm/heap", 50000, 160)}, 0.25, 0.10,
		regexp.MustCompile("^BenchmarkNothing"))
	if len(failures) != 1 || !strings.Contains(failures[0], "resident_bytes/doc") {
		t.Errorf("failures = %v, want one resident_bytes/doc failure", failures)
	}
	// Residency flat but ns/op +40%: the timing is reported, not failed.
	failures, warnings = compareBenchmarks(oldB,
		[]Benchmark{residentBench("BenchmarkTraversalWarm/heap", 70000, 130)}, 0.25, 0.10, gate)
	if len(failures) != 0 || len(warnings) != 1 || !strings.Contains(warnings[0], "ns/op") {
		t.Errorf("failures %v warnings %v, want one ns/op warning and no failure", failures, warnings)
	}
	// Both regressed: both axes reported, the residency as the failure.
	failures, warnings = compareBenchmarks(oldB,
		[]Benchmark{residentBench("BenchmarkTraversalWarm/heap", 70000, 160)}, 0.25, 0.10, gate)
	if len(failures) != 1 || !strings.Contains(failures[0], "resident_bytes/doc") || len(warnings) != 1 {
		t.Errorf("failures %v warnings %v, want the residency failure and the timing warning", failures, warnings)
	}
	// Metric lost while the benchmark survives: hard failure.
	failures, _ = compareBenchmarks(oldB,
		[]Benchmark{bench("BenchmarkTraversalWarm/heap", 50000, 0)}, 0.25, 0.10, gate)
	if len(failures) != 1 || !strings.Contains(failures[0], "resident_bytes/doc missing") {
		t.Errorf("failures = %v, want a missing-metric failure", failures)
	}
	// A row committed at zero (the mapped store pins no postings bytes)
	// stays there: no fraction of nothing is tolerated.
	zero := []Benchmark{residentBench("BenchmarkTraversalCold", 50000, 0)}
	failures, _ = compareBenchmarks(zero,
		[]Benchmark{residentBench("BenchmarkTraversalCold", 50000, 0.1)}, 0.25, 0.10, gate)
	if len(failures) != 1 || !strings.Contains(failures[0], "resident_bytes/doc 0 → 0.1") {
		t.Errorf("failures = %v, want one growth-from-zero failure", failures)
	}
	if failures, _ = compareBenchmarks(zero, zero, 0.25, 0.10, gate); len(failures) != 0 {
		t.Errorf("zero held at zero flagged: %v", failures)
	}
}
