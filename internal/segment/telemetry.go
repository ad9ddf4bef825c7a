package segment

import (
	"time"

	"toppriv/internal/telemetry"
	"toppriv/internal/vsm"
)

// storeMetrics holds the telemetry handles an instrumented store
// updates. Query-path children are resolved once here; the gauges are
// scrape-time functions over the store's own snapshots, so the store
// never pushes shape updates.
//
// The store publishes into the same metric families as vsm.Engine
// (toppriv_query_seconds and friends) under mode="store", so
// dashboards are backend-agnostic; its shard engines are deliberately
// NOT instrumented — one store query fans out to every shard, and
// per-shard observations would both double-count the work totals and
// pollute the latency distribution with partial times.
type storeMetrics struct {
	ring    *telemetry.TraceRing
	lat     *telemetry.Histogram
	queries *telemetry.Counter

	docsScored    *telemetry.Counter
	docsFiltered  *telemetry.Counter
	postings      *telemetry.Counter
	blocksDecoded *telemetry.Counter
}

// EnableMetrics wires the store to a telemetry registry and an
// optional trace ring. It registers the store-level query latency
// histogram and work-counter aggregates, gauges over the store's
// shape (segments, memtable, tombstones, postings footprint), and the
// compaction counters. Call once, before serving: the handle is read
// without synchronization on the query path.
func (st *Store) EnableMetrics(reg *telemetry.Registry, ring *telemetry.TraceRing) {
	if reg == nil {
		return
	}
	scorer := st.cfg.Scoring.String()
	m := &storeMetrics{ring: ring}
	m.lat = reg.HistogramVec(vsm.MetricQuerySeconds,
		"Query latency by scorer and mode (exhaustive = one query scanned alone, batch, store).",
		telemetry.DefaultLatencyBuckets, "scorer", "mode").With(scorer, "store")
	m.queries = reg.CounterVec(vsm.MetricQueriesTotal,
		"Queries executed by scorer and mode (exhaustive = one query scanned alone, batch, store).",
		"scorer", "mode").With(scorer, "store")
	m.docsScored = reg.Counter("toppriv_docs_scored_total",
		"Documents fully scored across all queries.")
	m.docsFiltered = reg.Counter("toppriv_docs_filtered_total",
		"Documents rejected by the keep predicate (tombstones).")
	m.postings = reg.Counter("toppriv_postings_total",
		"Postings visited.")
	m.blocksDecoded = reg.Counter("toppriv_blocks_decoded_total",
		"Compressed postings blocks decoded.")

	reg.GaugeFunc("toppriv_segments",
		"Sealed segments in the store.",
		func() float64 { return float64(st.Stats().Segments) })
	reg.GaugeFunc("toppriv_memtable_docs",
		"Documents buffered in the unsealed memtable.",
		func() float64 { return float64(st.Stats().MemtableDocs) })
	reg.GaugeFunc("toppriv_live_docs",
		"Live (non-tombstoned) documents across all shards.",
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
	reg.CounterFunc("toppriv_bloom_skips_total",
		"Shard-request pairs pruned by per-segment term bloom filters.",
		func() float64 { return float64(st.bloomSkips.Load()) })
	st.metrics = m
}

// batchTimer times the store-level phases of one SearchBatch: resolve
// (query analysis), traverse (the shard fan-out, which subsumes each
// shard's fetch and traversal), and merge (per-member top-k merging).
type batchTimer struct {
	enabled                  bool
	began                    time.Time
	last                     time.Time
	resolve, traverse, merge int64
}

func (bt *batchTimer) start() {
	if bt.enabled {
		bt.began = time.Now()
		bt.last = bt.began
	}
}

func (bt *batchTimer) mark(d *int64) {
	if !bt.enabled {
		return
	}
	now := time.Now()
	*d += now.Sub(bt.last).Nanoseconds()
	bt.last = now
}

// finishBatch closes out one instrumented store batch: it aggregates
// the members' work counters into one store-level trace, observes the
// latency histogram once, records the trace in the ring, and copies it
// to every member that asked for an inline trace. Shard-level phase
// attribution is intentionally absent — the shards run concurrently,
// so their phases do not sum to anything meaningful at this level.
func (st *Store) finishBatch(bt *batchTimer, reqs []vsm.Request, resps []vsm.Response) {
	if !bt.enabled {
		return
	}
	t := telemetry.PhaseTrace{
		Scorer:     st.cfg.Scoring.String(),
		Mode:       "store",
		Batch:      len(reqs),
		ResolveNS:  bt.resolve,
		TraverseNS: bt.traverse,
		MergeNS:    bt.merge,
		TotalNS:    time.Since(bt.began).Nanoseconds(),
	}
	var agg vsm.ExecStats
	for i := range resps {
		t.Terms += len(reqs[i].Terms)
		agg.Add(resps[i].Stats)
	}
	if len(reqs) == 1 {
		t.K = reqs[0].K
	}
	t.DocsScored = agg.DocsScored
	t.Postings = agg.Postings
	t.BlocksDecoded = agg.BlocksDecoded
	if m := st.metrics; m != nil {
		m.lat.ObserveSeconds(t.TotalNS)
		m.queries.Add(uint64(len(reqs)))
		m.docsScored.Add(uint64(agg.DocsScored))
		m.docsFiltered.Add(uint64(agg.DocsFiltered))
		m.postings.Add(uint64(agg.Postings))
		m.blocksDecoded.Add(uint64(agg.BlocksDecoded))
		if m.ring != nil {
			t.Seq = m.ring.Record(t)
		}
	}
	for i := range resps {
		if resps[i].Trace != nil {
			*resps[i].Trace = t
		}
	}
}
