package cluster

import (
	"testing"

	"toppriv/internal/corpus"
)

// TestRingPlacementIgnoresListOrder: placement hashes shard names, so
// two routers configured with the same shards in different order must
// route every document identically.
func TestRingPlacementIgnoresListOrder(t *testing.T) {
	a := []string{"http://s0:7", "http://s1:7", "http://s2:7"}
	b := []string{"http://s2:7", "http://s0:7", "http://s1:7"}
	ra, rb := newRing(a), newRing(b)
	for gid := corpus.DocID(0); gid < 5000; gid++ {
		if a[ra.place(gid)] != b[rb.place(gid)] {
			t.Fatalf("gid %d placed on %s vs %s under reordered shard list",
				gid, a[ra.place(gid)], b[rb.place(gid)])
		}
	}
}

// TestRingDistribution: with 64 vnodes per shard, no shard's share of
// a large gid range should collapse or balloon. It bounds each share to
// 10–60 %, not to uniform: these names split 30 000 gids
// 12 587 / 9 649 / 7 764.
func TestRingDistribution(t *testing.T) {
	names := []string{"http://s0:7", "http://s1:7", "http://s2:7"}
	r := newRing(names)
	counts := make([]int, len(names))
	const n = 30000
	for gid := corpus.DocID(0); gid < n; gid++ {
		counts[r.place(gid)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.60 {
			t.Fatalf("shard %d holds %.1f%% of documents (counts %v)", i, 100*frac, counts)
		}
	}
}

// TestRingDistributionSmallSequentialBatch: sequential gids from a
// single small ingest must still spread across the cluster. Raw FNV-1a
// over inputs differing in one byte forms a lattice that once put 82
// of 90 sequential gids on one shard of three; the mix32 avalanche
// finalizer is what this test holds in place. Names mirror a real
// deployment (URLs differing only in the port digit).
func TestRingDistributionSmallSequentialBatch(t *testing.T) {
	names := []string{
		"http://127.0.0.1:18091",
		"http://127.0.0.1:18092",
		"http://127.0.0.1:18093",
	}
	r := newRing(names)
	counts := make([]int, len(names))
	const n = 90
	for gid := corpus.DocID(0); gid < n; gid++ {
		counts[r.place(gid)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.60 {
			t.Fatalf("shard %d holds %.1f%% of a %d-doc sequential ingest (counts %v)",
				i, 100*frac, n, counts)
		}
	}
}

// TestRingStability: growing the cluster by one shard must move only a
// minority of documents — the property consistent hashing buys over
// mod-N placement (which moves nearly everything).
func TestRingStability(t *testing.T) {
	small := []string{"http://s0:7", "http://s1:7", "http://s2:7"}
	grown := append(append([]string(nil), small...), "http://s3:7")
	rs, rg := newRing(small), newRing(grown)
	moved := 0
	const n = 30000
	for gid := corpus.DocID(0); gid < n; gid++ {
		from, to := rs.place(gid), rg.place(gid)
		if small[from] != grown[to] {
			if grown[to] != "http://s3:7" {
				t.Fatalf("gid %d moved between pre-existing shards (%s → %s)",
					gid, small[from], grown[to])
			}
			moved++
		}
	}
	if frac := float64(moved) / n; frac > 0.5 {
		t.Fatalf("adding one shard moved %.1f%% of documents", 100*frac)
	}
}
