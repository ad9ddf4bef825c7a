package toppriv

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§V), plus ablations of the obfuscator's design choices and
// micro-benchmarks for the hot paths. Quality metrics (exposure %,
// cycle length, TopPriv/PDX ratio, …) are attached to each benchmark
// via b.ReportMetric, so `go test -bench=. -benchmem` leaves a full
// paper-vs-measured record in its output.
//
// The benchmarks share one lazily-built environment sized between the
// unit tests and the full cmd/experiments run: big enough for the
// paper's shapes to be visible, small enough to regenerate everything
// in minutes.

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"toppriv/internal/adversary"
	"toppriv/internal/baseline"
	"toppriv/internal/belief"
	"toppriv/internal/core"
	"toppriv/internal/corpus"
	"toppriv/internal/experiment"
	"toppriv/internal/index"
	"toppriv/internal/lda"
	"toppriv/internal/telemetry"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

var (
	benchOnce sync.Once
	benchEnv  *experiment.Env
	benchErr  error
)

func getBenchEnv(b *testing.B) *experiment.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiment.NewEnv(experiment.EnvSpec{
			Seed:       1,
			NumDocs:    1000,
			NumTopics:  24,
			Ks:         []int{8, 16, 24, 32},
			NumQueries: 60,
			TrainIters: 100,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// midEngine returns the belief engine of the grid's mid-size model.
func midEngine(env *experiment.Env) *belief.Engine {
	ks := env.SortedKs()
	return env.Engines[ks[len(ks)/2]]
}

// --- Figures --------------------------------------------------------------

// BenchmarkFig2 regenerates Figure 2 (ε1 = 5%, ε2 sweep): exposure,
// mask, cycle length and generation time per model.
func BenchmarkFig2(b *testing.B) {
	env := getBenchEnv(b)
	var points []experiment.Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.Fig2(env, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, points)
}

// BenchmarkFig3 regenerates Figure 3 (ε1 = ε2 sweep) with the |U| and
// max-rank panels.
func BenchmarkFig3(b *testing.B) {
	env := getBenchEnv(b)
	var points []experiment.Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.Fig3(env, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, points)
	// Fig 3e/f: report the mean |U| and rank depth at the tightest
	// threshold for the largest model.
	ks := env.SortedKs()
	kMax := ks[len(ks)-1]
	for _, p := range points {
		if p.K == kMax && p.Eps1 == 0.005 {
			b.ReportMetric(p.USize, "Usize@0.5%")
			b.ReportMetric(p.MaxRank, "maxrank@0.5%")
		}
	}
}

func reportSweep(b *testing.B, points []experiment.Point) {
	b.Helper()
	var exp, mask, ups float64
	n := 0
	for _, p := range points {
		if p.Queries == 0 {
			continue
		}
		exp += p.Exposure
		mask += p.Mask
		ups += p.Upsilon
		n++
	}
	if n > 0 {
		b.ReportMetric(exp/float64(n)*100, "exposure%")
		b.ReportMetric(mask/float64(n)*100, "mask%")
		b.ReportMetric(ups/float64(n), "upsilon")
	}
}

// BenchmarkFig4 regenerates Figure 4: PDX exposure across expansion
// factors and models.
func BenchmarkFig4(b *testing.B) {
	env := getBenchEnv(b)
	var points []experiment.PDXPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.Fig4(env, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	var lo, hi float64
	var nlo, nhi int
	for _, p := range points {
		if p.Queries == 0 {
			continue
		}
		switch p.Expansion {
		case 2:
			lo += p.Exposure
			nlo++
		case 16:
			hi += p.Exposure
			nhi++
		}
	}
	if nlo > 0 {
		b.ReportMetric(lo/float64(nlo)*100, "pdx_exposure%@2x")
	}
	if nhi > 0 {
		b.ReportMetric(hi/float64(nhi)*100, "pdx_exposure%@16x")
	}
}

// BenchmarkFig5 regenerates Figure 5: the TopPriv/PDX exposure ratio at
// equal word budgets. Paper shape: ratio < 1, shrinking with υ.
func BenchmarkFig5(b *testing.B) {
	env := getBenchEnv(b)
	var points []experiment.RatioPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.Fig5(env, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	byUps := map[int][]float64{}
	for _, p := range points {
		if p.Queries == 0 || p.PDX == 0 {
			continue
		}
		byUps[p.Upsilon] = append(byUps[p.Upsilon], p.Ratio)
	}
	for _, ups := range experiment.DefaultUpsilons() {
		rs := byUps[ups]
		if len(rs) == 0 {
			continue
		}
		sum := 0.0
		for _, r := range rs {
			sum += r
		}
		b.ReportMetric(sum/float64(len(rs)), "ratio@ups"+itoa(ups))
	}
}

// BenchmarkFig6 regenerates Figure 6: LDA model size vs index size as
// the corpus grows.
func BenchmarkFig6(b *testing.B) {
	env := getBenchEnv(b)
	var points []experiment.ScalePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.Fig6(env, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(points) >= 2 {
		first, last := points[0], points[len(points)-1]
		idxGrowth := float64(last.IndexBytes) / float64(first.IndexBytes)
		modelGrowth := float64(last.ModelBytes) / float64(first.ModelBytes)
		b.ReportMetric(idxGrowth, "index_growth")
		b.ReportMetric(modelGrowth, "model_growth")
		b.ReportMetric(last.Saving*100, "saving%@max")
	}
}

// --- Tables ---------------------------------------------------------------

// BenchmarkTable2 regenerates Table II (sample topics of the default
// model).
func BenchmarkTable2(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table2(env, nil, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table III (one topic across model sizes).
func BenchmarkTable3(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table3(env, "medicine", 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates Table IV (undersized model) — this trains
// a tiny LDA model per iteration.
func BenchmarkTable4(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table4(env, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTablePIR regenerates the §II PIR-impracticality statistics.
func BenchmarkTablePIR(b *testing.B) {
	env := getBenchEnv(b)
	var rep experiment.PIRReport
	for i := 0; i < b.N; i++ {
		rep = experiment.PIRTable(env)
	}
	b.ReportMetric(rep.Blowup, "pir_blowup_x")
	b.ReportMetric(rep.MeanListLen, "mean_list_len")
}

// BenchmarkTableAttacks regenerates the §IV-D resilience table.
func BenchmarkTableAttacks(b *testing.B) {
	env := getBenchEnv(b)
	var rows []experiment.AttackRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.AttackTable(env, 0.05, 0.01, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Attack == "coherence" {
			b.ReportMetric(r.Value, "coherence_"+r.Scheme)
		}
	}
}

// --- Ablations of the obfuscator's design choices -------------------------

// ablationRun measures mean exposure and cycle length for a parameter
// variant of the obfuscator over the bench workload.
func ablationRun(b *testing.B, params core.Params) {
	b.Helper()
	env := getBenchEnv(b)
	eng := midEngine(env)
	obf, err := core.NewObfuscator(eng, params)
	if err != nil {
		b.Fatal(err)
	}
	queries := env.AnalyzedQueries()
	var exposure, ups float64
	contributing := 0
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(9))
		exposure, ups = 0, 0
		contributing = 0
		for _, q := range queries {
			cyc, err := obf.Obfuscate(q, rng)
			if err != nil {
				b.Fatal(err)
			}
			ups += float64(cyc.Len())
			if len(cyc.Intention) == 0 {
				continue
			}
			exposure += cyc.Exposure
			contributing++
		}
	}
	if contributing > 0 {
		b.ReportMetric(exposure/float64(contributing)*100, "exposure%")
	}
	b.ReportMetric(ups/float64(len(queries)), "upsilon")
}

// BenchmarkAblationBaseline is the reference configuration the other
// ablations compare against.
func BenchmarkAblationBaseline(b *testing.B) {
	ablationRun(b, core.Params{Eps1: 0.05, Eps2: 0.01})
}

// BenchmarkAblationNoBacktrack disables the Step 3(c) ineffective-topic
// test: every tentative ghost is kept even if it raises exposure.
func BenchmarkAblationNoBacktrack(b *testing.B) {
	ablationRun(b, core.Params{Eps1: 0.05, Eps2: 0.01, NoBacktrack: true})
}

// BenchmarkAblationUniformWords replaces the Step 3(b) topical word
// bias with uniform vocabulary sampling (TrackMeNot-style ghosts).
func BenchmarkAblationUniformWords(b *testing.B) {
	ablationRun(b, core.Params{Eps1: 0.05, Eps2: 0.01, UniformWords: true})
}

// BenchmarkAblationFixedLen pins every ghost to a fixed short length
// instead of multiples of |q_u|.
func BenchmarkAblationFixedLen(b *testing.B) {
	ablationRun(b, core.Params{Eps1: 0.05, Eps2: 0.01, FixedGhostLen: 4})
}

// --- Micro-benchmarks -------------------------------------------------------

// BenchmarkObfuscateQuery is the per-query client overhead of Figures
// 2d/3d: one full ghost-generation cycle.
func BenchmarkObfuscateQuery(b *testing.B) {
	env := getBenchEnv(b)
	eng := midEngine(env)
	obf, err := core.NewObfuscator(eng, core.Params{Eps1: 0.05, Eps2: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	queries := env.AnalyzedQueries()
	rng := rand.New(rand.NewSource(10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obf.Obfuscate(queries[i%len(queries)], rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInference measures one LDA posterior estimate Pr(t|q).
func BenchmarkInference(b *testing.B) {
	env := getBenchEnv(b)
	eng := midEngine(env)
	queries := env.AnalyzedQueries()
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Posterior(queries[i%len(queries)], rng)
	}
}

// BenchmarkInferenceIters sweeps the fold-in pass count — the
// accuracy/latency trade of the inference substrate.
func BenchmarkInferenceIters(b *testing.B) {
	env := getBenchEnv(b)
	ks := env.SortedKs()
	m := env.Models[ks[len(ks)/2]]
	queries := env.AnalyzedQueries()
	for _, passes := range []int{1, 3, 10} {
		b.Run(itoa(passes), func(b *testing.B) {
			inf, err := lda.NewInferencer(m, lda.InferSpec{Iterations: passes})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				inf.PosteriorTerms(queries[i%len(queries)])
			}
		})
	}
}

// searchTop10 runs one analyzed top-10 query alone and folds its work
// counters into stats.
func searchTop10(b *testing.B, engine *vsm.Engine, terms []string, stats *vsm.ExecStats) {
	resp, err := engine.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: 10})
	if err != nil {
		b.Fatal(err)
	}
	stats.Add(resp.Stats)
}

// BenchmarkSearch measures top-10 engine throughput of a query scanned
// alone, for both scorers. (The rows are named "exhaustive", the mode
// label such a query carries in traces and metrics.)
func BenchmarkSearch(b *testing.B) {
	env := getBenchEnv(b)
	queries := env.AnalyzedQueries()
	for _, scoring := range []vsm.Scoring{vsm.Cosine, vsm.BM25} {
		engine, err := vsm.NewEngine(env.Index, env.An, scoring)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(scoring.String()+"/exhaustive", func(b *testing.B) {
			var stats vsm.ExecStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				searchTop10(b, engine, queries[i%len(queries)], &stats)
			}
			b.ReportMetric(float64(stats.DocsScored)/float64(b.N), "docs_scored/op")
		})
	}
}

// BenchmarkSearchInstrumented is BenchmarkSearch with telemetry wired
// on: a live registry, latency and phase histograms, work-counter
// aggregates and the trace ring all updating on every query. Its rows
// sit next to BenchmarkSearch's in BENCH_search.json, so the committed
// baseline records the instrumentation overhead explicitly and the
// benchjson gate (prefix "BenchmarkSearch") keeps both from
// regressing. The cost of enabling is a near-constant ~1-2µs per
// query, dominated by the six clock reads that bound the four phases;
// the histogram and counter updates are a handful of atomic adds.
// Telemetry stays off by default, so BenchmarkSearch itself is the
// proof the uninstrumented path did not pay for the feature.
func BenchmarkSearchInstrumented(b *testing.B) {
	env := getBenchEnv(b)
	queries := env.AnalyzedQueries()
	for _, scoring := range []vsm.Scoring{vsm.Cosine, vsm.BM25} {
		engine, err := vsm.NewEngine(env.Index, env.An, scoring)
		if err != nil {
			b.Fatal(err)
		}
		engine.EnableMetrics(telemetry.NewRegistry(), telemetry.NewTraceRing(telemetry.DefaultTraceCap))
		b.Run(scoring.String()+"/exhaustive", func(b *testing.B) {
			var stats vsm.ExecStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				searchTop10(b, engine, queries[i%len(queries)], &stats)
			}
			b.ReportMetric(float64(stats.DocsScored)/float64(b.N), "docs_scored/op")
		})
	}
}

// BenchmarkSearchBatch measures cycle-at-a-time batch execution: an
// 8-member obfuscation cycle (generated by the TopPriv obfuscator, so
// its members share topics and terms the way real ghost cycles do)
// submitted through SearchBatch in one engine pass versus the same
// eight queries run one after another. The batch plan shares term
// resolution, postings fetches and the per-posting impact computation
// across members; the sequential baseline pays each query's full cost.
// The -text rows submit the members as Query text, the path a search
// server runs; the -global rows run the cycle as a shard sees it behind
// a router. The regression gate covers every row.
func BenchmarkSearchBatch(b *testing.B) {
	env := getBenchEnv(b)
	eng := midEngine(env)
	obf, err := core.NewObfuscator(eng, core.Params{Eps1: 0.05, Eps2: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	// Assemble a deterministic 8-member cycle: obfuscate workload
	// queries until eight cycle members (the genuine query among its
	// ghosts) are collected.
	rng := rand.New(rand.NewSource(53))
	queries := env.AnalyzedQueries()
	var cycle [][]string
	for qi := 0; len(cycle) < 8; qi++ {
		cyc, err := obf.Obfuscate(queries[qi%len(queries)], rng)
		if err != nil {
			b.Fatal(err)
		}
		cycle = append(cycle, cyc.Queries...)
	}
	cycle = cycle[:8]
	ctx := context.Background()
	for _, scoring := range []vsm.Scoring{vsm.Cosine, vsm.BM25} {
		engine, err := vsm.NewEngine(env.Index, env.An, scoring)
		if err != nil {
			b.Fatal(err)
		}
		reqs := make([]vsm.Request, len(cycle))
		for i, q := range cycle {
			reqs[i] = vsm.Request{Terms: q, K: 10}
		}
		batch8 := func(reqs []vsm.Request) func(*testing.B) {
			return func(b *testing.B) {
				var scored int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resps, err := engine.SearchBatch(ctx, reqs)
					if err != nil {
						b.Fatal(err)
					}
					scored = 0
					for j := range resps {
						scored += resps[j].Stats.DocsScored
					}
				}
				b.ReportMetric(float64(scored), "docs_scored/op")
			}
		}
		b.Run(scoring.String()+"/batch8", batch8(reqs))
		// The same cycle as a search server receives it: each member's
		// terms joined into Query text, which the engine resolves through
		// its token memo.
		text := make([]vsm.Request, len(cycle))
		for i, q := range cycle {
			text[i] = vsm.Request{Query: strings.Join(q, " "), K: 10}
		}
		b.Run(scoring.String()+"/batch8-text", batch8(text))
		// The routed form of the same cycle: every member carries
		// GlobalStats the way a cluster.Router attaches them (here the
		// index's own, so the work matches the row above). It must cost
		// what batch8 costs, not what sequential8 does.
		var totalLen int64
		for d := 0; d < env.Index.NumDocs(); d++ {
			totalLen += int64(env.Index.DocLen(corpus.DocID(d)))
		}
		routed := make([]vsm.Request, len(reqs))
		for i, r := range reqs {
			r.Global = &vsm.GlobalStats{Docs: env.Index.NumDocs(), TotalLen: totalLen, DF: make([]int, len(r.Terms))}
			for j, term := range r.Terms {
				if id := env.Index.Vocab().ID(term); id != textproc.InvalidTerm {
					r.Global.DF[j] = env.Index.DocFreq(id)
				}
			}
			routed[i] = r
		}
		b.Run(scoring.String()+"-global/batch8", batch8(routed))
		b.Run(scoring.String()+"/sequential8", func(b *testing.B) {
			var stats vsm.ExecStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats = vsm.ExecStats{}
				for _, q := range cycle {
					searchTop10(b, engine, q, &stats)
				}
			}
			b.ReportMetric(float64(stats.DocsScored), "docs_scored/op")
		})
	}
}

// BenchmarkIndexSize records the memory footprint of the
// block-compressed postings on the bench corpus: exact postings bytes
// per document (the index_bytes/doc metric the CI gate hard-fails on
// when it grows >10%), and the compression ratio against the
// uncompressed 8-byte ⟨int32 doc, int32 tf⟩ posting representation.
func BenchmarkIndexSize(b *testing.B) {
	env := getBenchEnv(b)
	var s index.Stats
	for i := 0; i < b.N; i++ {
		s = env.Index.ComputeStats()
	}
	b.ReportMetric(s.BytesPerDoc, "index_bytes/doc")
	b.ReportMetric(float64(s.PostingsBytes), "postings_bytes")
	if s.PostingsBytes > 0 {
		b.ReportMetric(float64(8*s.NumPostings)/float64(s.PostingsBytes), "compression_x")
	}
}

// BenchmarkIndexBuild measures inverted-index construction. Its
// allocs/op is gated in CI: a build allocates its lists, their encoded
// payloads and the index, and nothing per document.
func BenchmarkIndexBuild(b *testing.B) {
	env := getBenchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.Build(env.Corpus); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLDATrain measures Gibbs training on a small corpus (per
// sweep cost scales linearly in tokens × K).
func BenchmarkLDATrain(b *testing.B) {
	c, _, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 13, NumDocs: 200, NumTopics: 8, DocLenMin: 40, DocLenMax: 80,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lda.Train(c, lda.TrainSpec{NumTopics: 8, Iterations: 20, Seed: 13}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoherenceAttack measures the adversary's per-cycle cost.
func BenchmarkCoherenceAttack(b *testing.B) {
	env := getBenchEnv(b)
	eng := midEngine(env)
	obf, err := core.NewObfuscator(eng, core.Params{Eps1: 0.05, Eps2: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	queries := env.AnalyzedQueries()
	var cycles [][][]string
	for _, q := range queries[:20] {
		cyc, err := obf.Obfuscate(q, rng)
		if err != nil {
			b.Fatal(err)
		}
		cycles = append(cycles, cyc.Queries)
	}
	attack := &adversary.CoherenceAttack{Eng: eng}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attack.GuessUser(cycles[i%len(cycles)], rng)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Extended-system benchmarks ---------------------------------------------

// BenchmarkTableQuality regenerates the retrieval-fidelity comparison:
// TopPriv/PDX preserve the exact results; canonical substitution
// degrades them.
func BenchmarkTableQuality(b *testing.B) {
	env := getBenchEnv(b)
	var rows []experiment.QualityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RetrievalQuality(env, 10, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Overlap, "overlap_"+r.Scheme)
	}
}

// BenchmarkIntersectionAttack measures cross-cycle frequency analysis
// against independent vs sticky sessions.
func BenchmarkIntersectionAttack(b *testing.B) {
	env := getBenchEnv(b)
	eng := midEngine(env)
	obf, err := core.NewObfuscator(eng, core.Params{Eps1: 0.05, Eps2: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	queries := env.AnalyzedQueries()
	// One synthetic "user" issuing 8 re-phrasings of the same query
	// (a stable interest), the scenario intersection analysis exploits.
	var indep, sticky [][][]string
	sess, err := core.NewSession(obf)
	if err != nil {
		b.Fatal(err)
	}
	base := queries[0]
	for len(base) < 14 {
		base = append(base, queries[0]...)
	}
	for i := 0; i < 8; i++ {
		q := base[i%4 : i%4+10]
		ci, err := obf.Obfuscate(q, rng)
		if err != nil {
			b.Fatal(err)
		}
		indep = append(indep, ci.Queries)
		cs, err := sess.Obfuscate(q, rng)
		if err != nil {
			b.Fatal(err)
		}
		sticky = append(sticky, cs.Queries)
	}
	attack := &adversary.IntersectionAttack{Eng: eng, TopM: 5}
	var setIndep, setSticky []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setIndep = attack.RecurrentTopics(indep, 0.8, rng)
		setSticky = attack.RecurrentTopics(sticky, 0.8, rng)
	}
	b.ReportMetric(float64(len(setIndep)), "confusion_independent")
	b.ReportMetric(float64(len(setSticky)), "confusion_sticky")
}

// BenchmarkLDATrainParallel compares AD-LDA speedup over sequential
// Gibbs on the same corpus.
func BenchmarkLDATrainParallel(b *testing.B) {
	// Per sweep, a token costs K weights (a division each), their
	// running sum and a ⌈log2 K⌉-step draw, which take comparable
	// shares. Each shard also copies in, and diffs out, K counts for
	// each of its distinct words, and the barrier adds those deltas: at
	// most K × V × workers, in practice far fewer. Speedup requires real
	// cores: on a single-CPU host the worker variants only show the
	// coordination overhead, and the model is the same on any host. On
	// 2 vCPUs, 2 workers trained only ≈ 1.15× faster than 1 at K = 32.
	c, _, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 41, NumDocs: 1500, NumTopics: 16, DocLenMin: 80, DocLenMax: 140,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(itoa(workers)+"workers", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lda.TrainParallel(c, lda.TrainSpec{NumTopics: 16, Iterations: 10, Seed: 41}, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLDATrainSample trains the model the system benchmark (bench/)
// trains before its first private query, for 10 of its 40 sweeps: K = 32
// at 2 workers, on a 1 500-document sample of the same 9 000-document,
// 32-topic corpus. At K = 32 each draw's search takes 5 halvings, against
// 3 and 4 in the rows above.
func BenchmarkLDATrainSample(b *testing.B) {
	c, _, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 1, NumDocs: 9000, NumTopics: 32, WordsPerTopic: 150, SharedWords: 200,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	sample, err := corpus.Sample(c, corpus.SampleSpec{DocFraction: 1500.0 / 9000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lda.TrainParallel(sample, lda.TrainSpec{NumTopics: 32, Iterations: 10, Seed: 1}, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusSample measures the §V-A future-work reduction.
func BenchmarkCorpusSample(b *testing.B) {
	env := getBenchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corpus.Sample(env.Corpus, corpus.SampleSpec{
			DocFraction: 0.5, TopWordFraction: 0.7, Seed: 47,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanonicalSubstitute measures the Murugesan–Clifton baseline's
// runtime mapping step.
func BenchmarkCanonicalSubstitute(b *testing.B) {
	env := getBenchEnv(b)
	eng := midEngine(env)
	canon, err := baseline.NewCanonical(eng, 4, 8, 49)
	if err != nil {
		b.Fatal(err)
	}
	queries := env.AnalyzedQueries()
	rng := rand.New(rand.NewSource(50))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := canon.Substitute(queries[i%len(queries)], rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableEffectiveness regenerates the IR-effectiveness table:
// TopPriv matches the unprotected engine exactly; canonical
// substitution loses MAP/nDCG.
func BenchmarkTableEffectiveness(b *testing.B) {
	env := getBenchEnv(b)
	var rows []experiment.EffectivenessRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Effectiveness(env, 19)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Metrics.MAP, "MAP_"+r.Scheme)
	}
}

// BenchmarkAblationMimicProfile measures the learned-distinguisher
// countermeasure's cost: depth-profile ghost sampling instead of plain
// Φ-biased sampling.
func BenchmarkAblationMimicProfile(b *testing.B) {
	ablationRun(b, core.Params{Eps1: 0.05, Eps2: 0.01, MimicProfile: true})
}
