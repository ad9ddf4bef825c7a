package segment

import (
	"context"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// BenchmarkLiveIndex compares query latency over one immutable index
// against a 4-segment live store at equal corpus size. The acceptance
// bar for the subsystem is segmented ≤ 2× single. What segmentation
// costs is four short lists per term where the single index has one
// long one — four iterator set-ups and four partly filled last blocks —
// and nothing per segment beyond that: the query is resolved once and
// the segments are scanned in turn into one heap. Measured on a 2-vCPU
// box, three alternated runs of 0.5 s: single 21.2–24.4 µs and 19
// allocs/op, segmented4 25.1–27.5 µs and 21 (≈ 1.15×); with an engine
// and a goroutine per segment and a merge behind them (PR 21) segmented4
// read 81.7–86.5 µs and 87 allocs/op (≈ 3.7×) in the same runs.
//
//	go test ./internal/segment -bench BenchmarkLiveIndex -benchtime 2s
func BenchmarkLiveIndex(b *testing.B) {
	const numDocs = 2000
	an := textproc.NewAnalyzer()
	c, _, err := corpus.Synthesize(corpus.GenSpec{Seed: 42, NumDocs: numDocs}, an)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]string, 64)
	for i := range queries {
		queries[i] = queryFrom(c.Docs[(i*31)%numDocs], i%40, 4)
	}
	ctx := context.Background()

	b.Run("single", func(b *testing.B) {
		// The static path: one index, one engine.
		refCorpus, err := corpus.Build(cloneDocs(c.Docs), an, textproc.PruneSpec{})
		if err != nil {
			b.Fatal(err)
		}
		idx, err := index.Build(refCorpus)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := vsm.NewEngine(idx, an, vsm.Cosine)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp, err := eng.SearchRequest(ctx, vsm.Request{Query: queries[i%len(queries)], K: 10}); err != nil || len(resp.Hits) == 0 {
				b.Fatalf("no results (err %v)", err)
			}
		}
	})

	// fourSegments loads the corpus into a store that seals every
	// numDocs/seals documents, compaction held off, then merges each run
	// of seals/4 segments into one: four segments either way.
	fourSegments := func(b *testing.B, seals int) *Store {
		st, err := Open(Config{
			Analyzer:          an,
			SealThreshold:     numDocs / seals,
			DisableCompaction: true, // hold the 4-segment layout fixed
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Add(cloneDocs(c.Docs)...); err != nil {
			b.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			b.Fatal(err)
		}
		for i := 0; seals > 4 && i < 4; i++ {
			if _, err := st.compactRun(i, i+seals/4); err != nil {
				b.Fatal(err)
			}
		}
		if got := st.NumSegments(); got != 4 {
			b.Fatalf("layout has %d segments, want 4", got)
		}
		return st
	}
	searchLoop := func(b *testing.B, st *Store) {
		defer st.Close()
		var stats vsm.ExecStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			terms := an.Analyze(queries[i%len(queries)])
			resp, err := st.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: 10})
			if err != nil || len(resp.Hits) == 0 {
				b.Fatalf("%d results, err %v", len(resp.Hits), err)
			}
			stats.Add(resp.Stats)
		}
		b.ReportMetric(float64(stats.DocsScored)/float64(b.N), "docs_scored/op")
	}

	b.Run("segmented4", func(b *testing.B) {
		searchLoop(b, fourSegments(b, 4))
	})

	b.Run("compacted4", func(b *testing.B) {
		// segmented4's documents and layout reached through compaction:
		// sixteen seals, merged four at a time into four level-1
		// segments. Their lists must scan as segmented4's do — were
		// partial blocks left at the seams, this row would pay a block
		// header and a kernel call for every few postings.
		searchLoop(b, fourSegments(b, 16))
	})

	b.Run("segmented4-parallel", func(b *testing.B) {
		// Concurrent searchers against the live store — the serving shape
		// searchd actually runs.
		st := fourSegments(b, 4)
		defer st.Close()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				st.SearchRequest(ctx, vsm.Request{Query: queries[i%len(queries)], K: 10})
				i++
			}
		})
	})
}

// BenchmarkLiveIndexIngest measures steady-state ingestion with sealing
// enabled (compaction off, so the cost measured is analyze+index only).
// Its allocs/op is gated in CI: a seal builds its segment against a view
// of the store's dictionary, and a document adds nothing to the
// dictionary but its new terms.
func BenchmarkLiveIndexIngest(b *testing.B) {
	b.ReportAllocs()
	an := textproc.NewAnalyzer()
	c, _, err := corpus.Synthesize(corpus.GenSpec{Seed: 43, NumDocs: 512}, an)
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(Config{Analyzer: an, SealThreshold: 256, DisableCompaction: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Add(c.Docs[i%len(c.Docs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// saveTraversalFixture builds a 4-segment store over a synthetic
// corpus, saves it, and returns the directory plus analyzed queries —
// the shared substrate of the traversal benchmarks below.
func saveTraversalFixture(b *testing.B, an *textproc.Analyzer) (string, [][]string) {
	b.Helper()
	const numDocs = 2000
	c, _, err := corpus.Synthesize(corpus.GenSpec{Seed: 42, NumDocs: numDocs}, an)
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(Config{Analyzer: an, SealThreshold: numDocs / 4, DisableCompaction: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Add(cloneDocs(c.Docs)...); err != nil {
		b.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := st.Save(dir); err != nil {
		b.Fatal(err)
	}
	queries := make([][]string, 64)
	for i := range queries {
		queries[i] = an.Analyze(queryFrom(c.Docs[(i*31)%numDocs], i%40, 4))
	}
	return dir, queries
}

// traversalLoop runs the query battery — every posting of every
// queried list is decoded, so the measured cost is dominated by
// postings traversal, which is exactly what differs between a
// heap-resident and a mapped store.
func traversalLoop(b *testing.B, st *Store, queries [][]string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp, err := st.SearchRequest(context.Background(), vsm.Request{Terms: queries[i%len(queries)], K: 10}); err != nil || len(resp.Hits) == 0 {
			b.Fatalf("no results (err %v)", err)
		}
	}
	b.StopTimer()
	if s := st.ComputeStats(); s.NumDocs > 0 {
		b.ReportMetric(s.ResidentPerDoc, "resident_bytes/doc")
	}
}

// BenchmarkTraversalCold measures query traversal over a mapped store:
// every block decodes straight from the mapped file image on every
// query. (CI cannot drop the OS page cache, so "cold" means cold decode
// state, not cold pages.) The committed resident_bytes/doc row is the
// disk-residency claim the benchjson gate enforces: zero, because a
// mapped list is its count, its last doc and a view of the file — no
// postings byte lives on the heap.
func BenchmarkTraversalCold(b *testing.B) {
	an := textproc.NewAnalyzer()
	dir, queries := saveTraversalFixture(b, an)
	st, err := Load(dir, Config{Analyzer: an, DisableCompaction: true, Mapped: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	traversalLoop(b, st, queries)
}

// BenchmarkTraversalWarm is the heap-resident baseline on the same
// saved directory. The bar held for the mapped subsystem is
// BenchmarkTraversalCold ≤ 1.15 × heap — decode work is identical, the
// gap is mapped-payload reads — with resident_bytes/doc of both rows
// inside benchjson's 10 % size gate.
func BenchmarkTraversalWarm(b *testing.B) {
	an := textproc.NewAnalyzer()
	dir, queries := saveTraversalFixture(b, an)
	b.Run("heap", func(b *testing.B) {
		st, err := Load(dir, Config{Analyzer: an, DisableCompaction: true})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		traversalLoop(b, st, queries)
	})
}

func cloneDocs(docs []corpus.Document) []corpus.Document {
	out := make([]corpus.Document, len(docs))
	copy(out, docs)
	return out
}
