package segment

import (
	"toppriv/internal/telemetry"
)

// EnableMetrics wires the store to a telemetry registry and an
// optional trace ring. The query path is the engine's: its latency and
// phase histograms, query and work counters and traces (modes
// "exhaustive" and "batch") cover a live store as they cover a static
// index, so dashboards are backend-agnostic. On top of them the store
// registers gauges over its shape (segments, memtable, tombstones,
// postings footprint) — scrape-time functions over its own snapshots, so
// it never pushes shape updates — and the compaction counters. Call
// once, before serving.
func (st *Store) EnableMetrics(reg *telemetry.Registry, ring *telemetry.TraceRing) {
	if reg == nil {
		return
	}
	st.eng.EnableMetrics(reg, ring)
	reg.GaugeFunc("toppriv_segments",
		"Sealed segments in the store.",
		func() float64 { return float64(st.Stats().Segments) })
	reg.GaugeFunc("toppriv_memtable_docs",
		"Documents buffered in the unsealed memtable.",
		func() float64 { return float64(st.Stats().MemtableDocs) })
	reg.GaugeFunc("toppriv_live_docs",
		"Live (non-tombstoned) documents across all segments and the memtable.",
		func() float64 { return float64(st.Stats().LiveDocs) })
	reg.GaugeFunc("toppriv_tombstones",
		"Tombstoned documents awaiting compaction.",
		func() float64 { return float64(st.Stats().Tombstones) })
	reg.GaugeFunc("toppriv_postings_bytes",
		"Compressed postings footprint in bytes (memtable lists at in-memory cost).",
		func() float64 { return float64(st.ComputeStats().PostingsBytes) })
	reg.GaugeFunc("toppriv_postings_bytes_per_doc",
		"Postings bytes per live document.",
		func() float64 { return st.ComputeStats().BytesPerDoc })
	reg.CounterFunc("toppriv_compactions_total",
		"Completed compaction runs (background and explicit).",
		func() float64 { return float64(st.compactRuns.Load()) })
	reg.CounterFunc("toppriv_compaction_seconds_total",
		"Total wall time spent in completed compaction runs.",
		func() float64 { return float64(st.compactNanos.Load()) / 1e9 })
	reg.GaugeFunc("toppriv_resident_bytes",
		"Heap-resident postings footprint: PostingsBytes minus mapped payloads.",
		func() float64 { return float64(st.ComputeStats().ResidentBytes) })
}
