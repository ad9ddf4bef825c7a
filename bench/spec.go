package main

import (
	"fmt"
	"runtime"

	"toppriv/internal/vsm"
)

// sizes fixes every input size and count of a run. They are constants
// of the benchmark, never scaled at run time: a number measured on one
// commit is comparable with the same number on another only because
// both indexed the same documents and replayed the same queries.
type sizes struct {
	// Corpus (corpus.Synthesize, seed fixed at 1 so the index shape
	// does not change with -seed).
	NumDocs, NumTopics, WordsPerTopic, SharedWords int
	// LDA model: trained on a corpus.Sample of LDASample documents
	// (the paper's "representative sample"), with two Gibbs workers so
	// the model does not depend on the machine's core count.
	LDATopics, LDAIters, LDASample int
	// Eps1 and Eps2 are the obfuscator's thresholds (core.Params).
	Eps1, Eps2 float64
	// Queries: PerTopic queries on every topic at every length
	// MinTerms..MaxTerms (see makeInputs).
	MinTerms, MaxTerms, PerTopic int
	// K is the hit count per query.
	K int
	// ClientBoundDocs is the departmental index of client_bound.
	ClientBoundDocs int
	// PreloadBatch is the Router.Add batch size during cluster preload.
	PreloadBatch int
	// WarmCycles precede the first timed phase.
	WarmCycles int
	// WriteBatch is the documents per POST of the write-path probes.
	WriteBatch int
	// SetupReps is how often set-up is repeated; setup_s is the median.
	SetupReps int
	// TraceCycles is the length of the traced pass; WriteRigDocs is how
	// many documents the write-path probes ingest.
	TraceCycles, WriteRigDocs int
	// SurvivorTitles and SurvivorQueries size the check of a cluster
	// against a rebuild over the survivors of its mutations.
	SurvivorTitles, SurvivorQueries int
}

// fullSizes are the sizes of a real run. ISSUE 12 proposed 30k
// documents; the driver's budget (70 runs in 57 min, set-up included
// and repeated) leaves about 45 s per run, and the seconds go to the
// timed phases, which is what steadies a run, so the corpus and model
// are a third of the proposal.
var fullSizes = sizes{
	NumDocs: 9000, NumTopics: 32, WordsPerTopic: 150, SharedWords: 200,
	LDATopics: 32, LDAIters: 40, LDASample: 1500,
	Eps1: 0.05, Eps2: 0.01, // the paper's defaults
	MinTerms: 2, MaxTerms: 20, PerTopic: 2,
	K:               10,
	ClientBoundDocs: 600,
	PreloadBatch:    500,
	WarmCycles:      200,
	WriteBatch:      50,
	SetupReps:       3,
	TraceCycles:     300, WriteRigDocs: 1000,
	SurvivorTitles: 200, SurvivorQueries: 50,
}

// A run is -seconds/roundSeconds rounds, and a round is the three
// phases in these shares. Every workload runs all three so that every
// end-to-end metric is defined on every workload.
const (
	roundSeconds = 2.0
	closedShare  = 0.45
	openShare    = 0.40
	plainShare   = 0.15
)

// workload is one traffic mix over one deployment.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Docs is how many corpus documents the stack holds before timing.
	Docs func(sizes) int
	// Clustered selects a 3-shard cluster behind a router instead of a
	// single vsm.Engine.
	Clustered bool
	Scoring   vsm.Scoring
	// OpenRate is the open-loop arrival rate in cycles/s, fixed at
	// 15-27% of the saturated rate on the reference box.
	OpenRate float64
}

const numShards = 3

var workloads = []workload{
	{
		Name:    "single_node",
		Why:     "Fig. 1 deployment, heap vsm.Engine over the whole corpus: vsm+index own the cycle; closed vs open loop separates throughput from idle latency",
		Docs:    func(s sizes) int { return s.NumDocs },
		Scoring: vsm.Cosine, OpenRate: 100,
	},
	{
		Name:    "client_bound",
		Why:     "same stack over a small departmental index: the engine does almost nothing, so core/belief/lda and HTTP/JSON own the cycle; engine changes must not move it",
		Docs:    func(s sizes) int { return s.ClientBoundDocs },
		Scoring: vsm.Cosine, OpenRate: 160,
	},
	{
		Name:      "cluster",
		Why:       "3 in-memory shards (segment.Store, BM25) behind cluster.Router: scatter/merge, the JSON shard wire and the slowest shard set the time",
		Docs:      func(s sizes) int { return s.NumDocs },
		Clustered: true, Scoring: vsm.BM25, OpenRate: 60,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one reported metric. The lists below are the single
// source of names, units, directions and bounds; bench_test.go checks
// BENCHMARK.json against them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user or operator of the system sees,
// measured with tracing off. Bound is the share of the parent's median
// by which the metric may worsen before a change counts as a
// regression. The time bounds are the widest the driver admits: on the
// reference box unscaled runs of one commit differ by 10-30% and scaled
// ones (calib.go) by 3-10% (README.md, Steadiness), and a bound inside
// the noise rejects at random.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cycle_p50_ms", "ms", "lower", 0.25},
	{"cycle_p95_ms", "ms", "lower", 0.25},
	{"cycles_per_s", "1/s", "higher", 0.25},
	{"plain_p50_ms", "ms", "lower", 0.25},
	{"open_p50_ms", "ms", "lower", 0.25},
	{"cycle_len_mean", "queries/cycle", "lower", 0.05},
	{"heap_mb", "MiB", "lower", 0.05},
}

// perLayer are the metrics of single layers, from the traced pass.
// Layer names are package names.
var perLayer = []metricDef{
	{Name: "textproc.analyze_us", Unit: "us", Better: "lower"},
	{Name: "lda.posterior_us", Unit: "us", Better: "lower"},
	{Name: "core.obfuscate_us", Unit: "us", Better: "lower"},
	{Name: "core.self_us", Unit: "us", Better: "lower"},
	{Name: "core.posteriors_per_cycle", Unit: "count", Better: "lower"},
	{Name: "core.rejected_per_cycle", Unit: "count", Better: "lower"},
	{Name: "core.ghost_terms_per_cycle", Unit: "count", Better: "lower"},
	{Name: "core.cycle_len", Unit: "queries/cycle", Better: "lower"},
	{Name: "belief.recheck_exposure_p95", Unit: "boost", Better: "lower"},
	{Name: "vsm.batch_us", Unit: "us", Better: "lower"},
	{Name: "vsm.single_us", Unit: "us", Better: "lower"},
	{Name: "vsm.docs_scored_per_cycle", Unit: "count", Better: "lower"},
	{Name: "vsm.docs_pruned_per_cycle", Unit: "count", Better: "higher"},
	{Name: "index.blocks_decoded_per_cycle", Unit: "count", Better: "lower"},
	{Name: "index.decode_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "index.bytes_per_doc", Unit: "B", Better: "lower"},
	{Name: "search.http_batch_us", Unit: "us", Better: "lower"},
	{Name: "search.self_us", Unit: "us", Better: "lower"},
	{Name: "search.req_bytes", Unit: "B", Better: "lower"},
	{Name: "search.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "segment.batch_us", Unit: "us", Better: "lower"},
	{Name: "segment.self_us", Unit: "us", Better: "lower"},
	{Name: "segment.segments", Unit: "count", Better: "lower"},
	{Name: "segment.bloom_skips_per_cycle", Unit: "count", Better: "higher"},
	{Name: "segment.add_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "segment.resident_bytes_per_doc", Unit: "B", Better: "lower"},
	{Name: "cluster.router_batch_us", Unit: "us", Better: "lower"},
	{Name: "cluster.shard_max_us", Unit: "us", Better: "lower"},
	{Name: "cluster.shard_mean_us", Unit: "us", Better: "lower"},
	{Name: "cluster.router_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.add_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "cluster.add_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.journal_bytes_per_doc", Unit: "B", Better: "lower"},
	{Name: "cluster.preload_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed_pct", Unit: "%", Better: "lower"},
}

// defaultClients is two client goroutines per CPU, at most eight. With
// one per CPU the loopback request/response ping-pong leaves CPUs idle
// between hops, and on a virtual machine the halt and wake-up of an
// idle vCPU is what the run then measures: 2-second slices of one
// closed loop differed by ±20% with 2 clients on 2 vCPUs and by ±3.5%
// with 4. Two per CPU keep every CPU busy, which is also what
// "saturated" is meant to mean in the closed-loop phase.
func defaultClients() int {
	return 2 * min(runtime.NumCPU(), 4)
}

// maxClients is the most the -clients flag accepts: beyond a few per
// CPU the run measures the scheduler's queue, not the system.
func maxClients() int { return 4 * runtime.NumCPU() }
