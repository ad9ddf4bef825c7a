package vsm

import (
	"toppriv/internal/telemetry"
)

// Telemetry metric family names published by the engine — a static
// one or the one inside a segment.Store, so a deployment's dashboards
// are backend-agnostic.
const (
	MetricQuerySeconds      = "toppriv_query_seconds"
	MetricQueryPhaseSeconds = "toppriv_query_phase_seconds"
	MetricQueriesTotal      = "toppriv_queries_total"
)

// modeSolo labels a scan of one member — a solo query, or the only live
// member of a batch — in traces and in the latency and query-count
// families. The name predates the single strategy; it is kept so that
// nothing a dashboard reads is renamed.
const modeSolo = "exhaustive"

// engineMetrics holds the telemetry handles an instrumented engine
// updates per query. Every child is resolved once at EnableMetrics
// time — the hot path does array indexing and atomic adds, never a
// label lookup.
type engineMetrics struct {
	ring *telemetry.TraceRing
	// soloLat/soloQ cover a scan of one member (mode "exhaustive"),
	// batchLat/batchQ a scan of several (mode "batch").
	soloLat  *telemetry.Histogram
	batchLat *telemetry.Histogram
	soloQ    *telemetry.Counter
	batchQ   *telemetry.Counter
	// phase is indexed resolve, fetch, traverse, merge.
	phase [4]*telemetry.Histogram

	docsScored    *telemetry.Counter
	docsFiltered  *telemetry.Counter
	postings      *telemetry.Counter
	blocksDecoded *telemetry.Counter
}

// newEngineMetrics resolves every family and child the query path
// needs. scorer labels the engine's scoring function; the same
// registry can carry several scorers.
func newEngineMetrics(reg *telemetry.Registry, ring *telemetry.TraceRing, scorer string) *engineMetrics {
	m := &engineMetrics{ring: ring}
	lat := reg.HistogramVec(MetricQuerySeconds,
		"Query latency by scorer and mode (exhaustive = one query scanned alone, batch).",
		telemetry.DefaultLatencyBuckets, "scorer", "mode")
	q := reg.CounterVec(MetricQueriesTotal,
		"Queries executed by scorer and mode (exhaustive = one query scanned alone, batch).",
		"scorer", "mode")
	m.soloLat = lat.With(scorer, modeSolo)
	m.soloQ = q.With(scorer, modeSolo)
	m.batchLat = lat.With(scorer, "batch")
	m.batchQ = q.With(scorer, "batch")
	ph := reg.HistogramVec(MetricQueryPhaseSeconds,
		"Per-phase query latency (resolve, fetch, traverse, merge).",
		telemetry.DefaultLatencyBuckets, "scorer", "phase")
	for i, name := range [...]string{"resolve", "fetch", "traverse", "merge"} {
		m.phase[i] = ph.With(scorer, name)
	}
	m.docsScored = reg.Counter("toppriv_docs_scored_total",
		"Documents fully scored across all queries.")
	m.docsFiltered = reg.Counter("toppriv_docs_filtered_total",
		"Documents rejected by the keep predicate (tombstones).")
	m.postings = reg.Counter("toppriv_postings_total",
		"Postings visited.")
	m.blocksDecoded = reg.Counter("toppriv_blocks_decoded_total",
		"Compressed postings blocks decoded.")
	return m
}

// addStats folds one query's work counters into the running totals.
func (m *engineMetrics) addStats(stats *ExecStats) {
	m.docsScored.Add(uint64(stats.DocsScored))
	m.docsFiltered.Add(uint64(stats.DocsFiltered))
	m.postings.Add(uint64(stats.Postings))
	m.blocksDecoded.Add(uint64(stats.BlocksDecoded))
}

// EnableMetrics wires the engine to a telemetry registry (histograms
// and counters) and, optionally, a trace ring that retains each
// query's phase breakdown. Call once, before serving: the handle is
// read without synchronization on the query path. A nil registry is a
// no-op; tracing via Request.Trace works with or without metrics.
func (e *Engine) EnableMetrics(reg *telemetry.Registry, ring *telemetry.TraceRing) {
	if reg == nil {
		return
	}
	e.metrics = newEngineMetrics(reg, ring, e.scoring.String())
}

// finishScan closes out one flat scan — the one place a query's
// telemetry is produced, whatever the scan's size. It builds the scan's
// phase trace from the clock and the served members' work counters,
// observes the latency and phase histograms once, counts the members,
// records the trace in the ring, and copies it to every served member
// that asked for one inline. A scan of one member is labelled modeSolo
// and carries its K; a scan of several is labelled "batch" and carries
// how many. No-op when neither telemetry nor an inline trace was
// requested.
func (e *Engine) finishScan(pc *phaseClock, bs *batchState, resps []Response) {
	if !pc.enabled {
		return
	}
	served := bs.shared
	t := telemetry.PhaseTrace{
		Scorer:     e.scoring.String(),
		Mode:       modeSolo,
		Terms:      len(bs.union),
		ResolveNS:  pc.resolve,
		FetchNS:    pc.fetch,
		TraverseNS: pc.traverse,
		MergeNS:    pc.merge,
		TotalNS:    pc.total(),
	}
	if len(served) == 1 {
		t.K = bs.members[served[0]].k
	} else {
		t.Mode, t.Batch = "batch", len(served)
	}
	for _, i := range served {
		st := &resps[i].Stats
		t.DocsScored += st.DocsScored
		t.Postings += st.Postings
		t.BlocksDecoded += st.BlocksDecoded
	}
	if m := e.metrics; m != nil {
		lat, queries := m.soloLat, m.soloQ
		if len(served) > 1 {
			lat, queries = m.batchLat, m.batchQ
		}
		lat.ObserveSeconds(t.TotalNS)
		queries.Add(uint64(len(served)))
		m.phase[0].ObserveSeconds(pc.resolve)
		m.phase[1].ObserveSeconds(pc.fetch)
		m.phase[2].ObserveSeconds(pc.traverse)
		m.phase[3].ObserveSeconds(pc.merge)
		for _, i := range served {
			m.addStats(&resps[i].Stats)
		}
		if m.ring != nil {
			t.Seq = m.ring.Record(t)
		}
	}
	for _, i := range served {
		if resps[i].Trace != nil {
			*resps[i].Trace = t
		}
	}
}
