package vsm

import (
	"context"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/telemetry"
	"toppriv/internal/textproc"
)

// telemetryEngine builds an instrumented engine over a synthetic
// corpus.
func telemetryEngine(t *testing.T) (*Engine, *telemetry.Registry, *telemetry.TraceRing, []string) {
	t.Helper()
	spec := corpus.GenSpec{Seed: 311, NumDocs: 400, NumTopics: 4, DocLenMin: 30, DocLenMax: 80}
	c, gt, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	eng, err := NewEngine(idx, an, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ring := telemetry.NewTraceRing(8)
	eng.EnableMetrics(reg, ring)
	var terms []string
	for _, w := range gt.TopicWords[0] {
		if t, ok := an.AnalyzeTerm(w); ok {
			terms = append(terms, t)
			if len(terms) == 5 {
				break
			}
		}
	}
	return eng, reg, ring, terms
}

// TestExecStatsIteratorCounters pins the satellite surface:
// BlocksDecoded flows from the iterators into ExecStats, and Add folds
// it like the other counters.
func TestExecStatsIteratorCounters(t *testing.T) {
	eng, _, _, terms := telemetryEngine(t)
	resp, err := eng.SearchRequest(context.Background(), Request{Terms: terms, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	stats := resp.Stats
	if stats.BlocksDecoded == 0 {
		t.Error("BlocksDecoded = 0, want > 0")
	}
	var sum ExecStats
	sum.Add(stats)
	sum.Add(stats)
	if sum.BlocksDecoded != 2*stats.BlocksDecoded {
		t.Errorf("Add dropped iterator counters: %+v vs %+v", sum, stats)
	}
}

// TestEngineMetricsObserve checks the engine-side wiring end to end,
// for a query on its own and for a cycle: every scan lands once in the
// latency histogram under its mode label and once in each phase
// histogram, every member is counted, the work counters advance, and
// the trace ring retains a structurally-sound trace.
func TestEngineMetricsObserve(t *testing.T) {
	for _, tc := range []struct {
		mode           string
		members, k, of int // of: the trace's Batch
	}{{"exhaustive", 1, 5, 0}, {"batch", 3, 0, 3}} {
		eng, reg, ring, terms := telemetryEngine(t)
		const n = 4
		ctx := context.Background()
		reqs := make([]Request, tc.members)
		for i := range reqs {
			reqs[i] = Request{Terms: terms, K: 5}
		}
		for i := 0; i < n; i++ {
			var err error
			if tc.members == 1 {
				_, err = eng.SearchRequest(ctx, reqs[0])
			} else {
				_, err = eng.SearchBatch(ctx, reqs)
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		fams, err := telemetry.ParseText(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		var latCount, phaseCount, queries float64
		for _, f := range fams {
			for _, s := range f.Samples {
				switch count := strings.HasSuffix(s.Name, "_count"); {
				case f.Name == MetricQuerySeconds && count && s.Labels["mode"] == tc.mode:
					latCount += s.Value
				case f.Name == MetricQueryPhaseSeconds && count:
					phaseCount += s.Value
				case f.Name == MetricQueriesTotal && s.Labels["mode"] == tc.mode:
					queries += s.Value
				}
			}
		}
		if latCount != n || phaseCount != 4*n || queries != float64(n*tc.members) {
			t.Fatalf("%s: histogram count = %v, count over the four phases = %v, queries_total = %v, want %d, %d, %d",
				tc.mode, latCount, phaseCount, queries, n, 4*n, n*tc.members)
		}

		if ring.Len() != n {
			t.Fatalf("%s: trace ring retains %d, want %d", tc.mode, ring.Len(), n)
		}
		traces := ring.Snapshot()
		last := traces[len(traces)-1]
		if last.Terms != len(terms) || last.K != tc.k || last.Batch != tc.of || last.Scorer != "cosine" || last.Mode != tc.mode {
			t.Fatalf("trace = %+v, want terms=%d k=%d batch=%d scorer=cosine mode=%s", last, len(terms), tc.k, tc.of, tc.mode)
		}
		if last.TotalNS <= 0 || last.TraverseNS <= 0 {
			t.Fatalf("%s: trace timings not populated: %+v", tc.mode, last)
		}
		if last.DocsScored == 0 || last.BlocksDecoded == 0 {
			t.Fatalf("%s: trace work counters not populated: %+v", tc.mode, last)
		}
	}
}

// TestTraceWithoutMetrics guards the decoupling: an explicit Trace
// request must produce an inline trace even on an engine that never
// called EnableMetrics — tracing works without a scrape pipeline —
// and an unrequested trace must stay absent.
func TestTraceWithoutMetrics(t *testing.T) {
	spec := corpus.GenSpec{Seed: 313, NumDocs: 80, NumTopics: 3, DocLenMin: 20, DocLenMax: 40}
	c, gt, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(idx, textproc.NewAnalyzer(), Cosine)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.SearchRequest(context.Background(), Request{Query: strings.Join(gt.TopicWords[0][:3], " "), K: 5, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || resp.Trace.TotalNS <= 0 {
		t.Fatalf("inline trace without metrics = %+v, want populated", resp.Trace)
	}
	resp, err = eng.SearchRequest(context.Background(), Request{Query: strings.Join(gt.TopicWords[0][:3], " "), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Fatal("unrequested trace present")
	}
}
