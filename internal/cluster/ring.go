// Package cluster is the distributed search tier: shard servers that
// serve the vsm.Request/Response schema over HTTP for a subset of
// documents, and a scatter-gather router that fans each obfuscation
// cycle out to every shard, injects cluster-merged collection
// statistics so every shard scores exactly as a single index over all
// documents would, and merges the per-shard top-k.
//
// The design extends the segment store's global-statistics discipline
// (store-wide N, df, avgdl over shard-local postings) across process
// boundaries: shards report their local statistics, the router sums
// them, and every query carries the merged numbers — so the merged
// ranking is score-identical to a single-node rebuild, which keeps the
// adversary-visible query log and result filtering exactly as the
// paper models them (conf_icde_PangXS12 §II, Fig. 1).
package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"toppriv/internal/corpus"
)

// vnodesPerShard is how many virtual points each shard contributes to
// the hash ring. 64 points keep the ring a few KiB but do not make the
// shares uniform: the system benchmark's three shards
// (http://stack-shard-{0,1,2}.bench) own 28.8 / 43.2 / 28.0 % of the
// hash space, and gids 0–8 999 land 2 563 / 3 901 / 2 536 on them.
// TestRingDistribution bounds each shard's share of 30 000 sequential
// gids to 10–60 %, no closer. Placement is left as it is: another point
// set would move documents that existing journals already placed.
const vnodesPerShard = 64

// ring is a consistent-hash ring placing documents on shards by global
// ID. Placement is a pure function of (shard set, gid): every router
// over the same shard list routes POST /index and DELETE /doc/{id}
// identically, and adding a shard moves only ~1/n of the documents.
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash  uint32
	shard int
}

// mix32 is the murmur3 finalizer. FNV-1a alone under-disperses short
// near-identical inputs — sequential gids differ in one byte, and the
// raw hashes form a lattice that can land almost entirely inside one
// shard's arcs (observed: 82 of 90 sequential gids on one shard of
// three). Full avalanche on the final value restores uniformity.
func mix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// newRing builds the ring over n shards, each identified by its stable
// name (the shard's base URL). Names, not indices, feed the hash, so
// reordering the shard list does not reshuffle placement.
func newRing(names []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(names)*vnodesPerShard)}
	for i, name := range names {
		for v := 0; v < vnodesPerShard; v++ {
			h := fnv.New32a()
			h.Write([]byte(name))
			var vb [4]byte
			binary.LittleEndian.PutUint32(vb[:], uint32(v))
			h.Write(vb[:])
			r.points = append(r.points, ringPoint{hash: mix32(h.Sum32()), shard: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].shard < r.points[b].shard
	})
	return r
}

// place returns the shard index owning gid: the first ring point at or
// after the document's hash, wrapping around.
func (r *ring) place(gid corpus.DocID) int {
	var gb [4]byte
	binary.LittleEndian.PutUint32(gb[:], uint32(gid))
	h := fnv.New32a()
	h.Write(gb[:])
	key := mix32(h.Sum32())
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
