package segment

import (
	"testing"

	"toppriv/internal/vsm"
)

// TestCompactionWarmsCache asserts the populate-on-compact path: a full
// compaction must leave the block cache pre-filled with the merged
// segment's blocks — without a single query having run — and a
// subsequent query pass must be served entirely from those warm entries
// (zero additional misses) while remaining bit-identical to the
// in-memory oracle.
func TestCompactionWarmsCache(t *testing.T) {
	dir, queries, an := saveMappedFixture(t, vsm.BM25, 17)
	mem, err := Load(dir, Config{Analyzer: an, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	cached, err := Load(dir, Config{Analyzer: an, DisableCompaction: true, Mapped: true, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()

	for _, st := range []*Store{mem, cached} {
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
	}

	warm, ok := cached.CacheStats()
	if !ok {
		t.Fatal("cached store lost cache telemetry")
	}
	if warm.Entries == 0 {
		t.Fatalf("compaction did not warm the cache: %+v", warm)
	}
	if warm.Evictions != 0 {
		t.Fatalf("warming evicted live entries: %+v", warm)
	}

	// The fixture is far smaller than the cache, so warming covered every
	// block of the merged segment: the whole query pass must hit.
	for qi, q := range queries {
		terms := an.Analyze(q)
		want := mustSearch(t, mem, vsm.Request{Terms: terms, K: 10})
		got := mustSearch(t, cached, vsm.Request{Terms: terms, K: 10})
		if len(got) != len(want) {
			t.Fatalf("q%d: %d results vs %d in-memory", qi, len(got), len(want))
		}
		for i := range got {
			if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
				t.Fatalf("q%d rank %d: (%d,%v) vs in-memory (%d,%v)",
					qi, i, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score)
			}
		}
	}
	after, _ := cached.CacheStats()
	if after.Misses != warm.Misses {
		t.Fatalf("post-compaction queries missed a warmed cache: %+v -> %+v", warm, after)
	}
	if after.Hits == warm.Hits {
		t.Fatal("post-compaction queries never touched the cache")
	}
}
