package vsm

import (
	"toppriv/internal/telemetry"
)

// Telemetry metric family names published by the engine (and by
// segment.Store, which reuses the same families so a deployment's
// dashboards are backend-agnostic).
const (
	MetricQuerySeconds      = "toppriv_query_seconds"
	MetricQueryPhaseSeconds = "toppriv_query_phase_seconds"
	MetricQueriesTotal      = "toppriv_queries_total"
)

// modeSolo labels a query scanned on its own in traces and in the
// latency and query-count families. The name predates the single
// strategy; it is kept so that nothing a dashboard reads is renamed.
const modeSolo = "exhaustive"

// engineMetrics holds the telemetry handles an instrumented engine
// updates per query. Every child is resolved once at EnableMetrics
// time — the hot path does array indexing and atomic adds, never a
// label lookup.
type engineMetrics struct {
	ring *telemetry.TraceRing
	// soloLat/soloQ cover a query scanned on its own (mode "exhaustive"),
	// batchLat/batchQ a cycle scanned together (mode "batch").
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
// registry can carry several scorers (a store with mixed engines would
// simply resolve more children).
func newEngineMetrics(reg *telemetry.Registry, ring *telemetry.TraceRing, scorer string) *engineMetrics {
	m := &engineMetrics{ring: ring}
	lat := reg.HistogramVec(MetricQuerySeconds,
		"Query latency by scorer and mode (exhaustive = one query scanned alone, batch, store).",
		telemetry.DefaultLatencyBuckets, "scorer", "mode")
	q := reg.CounterVec(MetricQueriesTotal,
		"Queries executed by scorer and mode (exhaustive = one query scanned alone, batch, store).",
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
	if stats == nil {
		return
	}
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

// finishQuery closes out one instrumented query: it builds the phase
// trace from the state's clock and counters, observes the latency and
// phase histograms, bumps the aggregate counters, records the trace in
// the ring, and copies it to the caller's inline sink. No-op when
// neither telemetry nor an inline trace was requested.
func (e *Engine) finishQuery(qs *queryState, terms, k int, stats *ExecStats, trace *telemetry.PhaseTrace) {
	c := &qs.clock
	if !c.enabled {
		return
	}
	t := telemetry.PhaseTrace{
		Scorer:     e.scoring.String(),
		Mode:       modeSolo,
		Terms:      terms,
		K:          k,
		ResolveNS:  c.resolve,
		FetchNS:    c.fetch,
		TraverseNS: c.traverse,
		MergeNS:    c.merge,
		TotalNS:    c.total(),
	}
	if stats != nil {
		t.DocsScored = stats.DocsScored
		t.Postings = stats.Postings
		t.BlocksDecoded = stats.BlocksDecoded
	}
	if m := e.metrics; m != nil {
		m.soloLat.ObserveSeconds(t.TotalNS)
		m.soloQ.Inc()
		m.phase[0].ObserveSeconds(c.resolve)
		m.phase[1].ObserveSeconds(c.fetch)
		m.phase[2].ObserveSeconds(c.traverse)
		m.phase[3].ObserveSeconds(c.merge)
		m.addStats(stats)
		if m.ring != nil {
			t.Seq = m.ring.Record(t)
		}
	}
	if trace != nil {
		*trace = t
	}
}
