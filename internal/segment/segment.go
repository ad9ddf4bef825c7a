// Package segment implements the live-index subsystem: an LSM-inspired
// layering of a mutable in-memory memtable under a stack of immutable
// sealed segments, each wrapping an index.Index. Documents are added to
// the memtable; at a size threshold the memtable is sealed into a new
// level-0 segment; a background compactor merges runs of four
// same-level segments into the next level while documents arrive, and
// once ingest goes quiet (a CompactInterval without a seal) folds the
// stack to at most one segment per level; deletes set tombstone bits
// without touching postings.
//
// The store has one vsm.Engine, and is that engine's source: a query —
// a whole cycle at once — is resolved against the shared dictionary and
// weighed against the store's *global* live collection statistics
// (N, df, avgdl) once, and then the sealed segments and the memtable are
// scanned in turn by the engine's flat scan into one top-k heap per
// member, under store-wide document IDs. Tombstones are filtered inside
// the scan, before a document can reach a heap (a part with none runs
// unfiltered). Results are therefore identical — to floating-point noise
// — to a from-scratch index.Build over the surviving documents.
//
// The store persists as one TPIX file and one documents file per sealed
// segment plus a JSON manifest, so a restart recovers without
// re-analyzing any text.
package segment

import (
	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// seg is one immutable sealed segment. Its postings and norms never
// change after sealing; only the tombstone bits (dead) mutate, under
// the store's write lock.
type seg struct {
	level int
	// ids maps segment-local document IDs (dense from 0) to the store's
	// global IDs, in ascending order.
	ids []corpus.DocID
	// docs holds the raw documents, aligned with ids; Document.ID is the
	// global ID. Retained for /doc lookups, delete-time stats
	// maintenance, and persistence.
	docs []corpus.Document
	idx  *index.Index
	// norms holds the documents' lnc vector norms, one per document: the
	// memtable's at seal, the parts' survivors' at merge, vsm.DocNorms at
	// load — the same bits every way.
	norms []float64
	dead  []bool
	live  int
}

// locate binary-searches the segment for a global doc ID, returning the
// local ID.
func (s *seg) locate(gid corpus.DocID) (corpus.DocID, bool) {
	return locateID(s.ids, gid)
}

// locateID binary-searches an ascending global-ID slice, returning the
// position as a part-local doc ID. Shared by segments and the
// memtable.
func locateID(ids []corpus.DocID, gid corpus.DocID) (corpus.DocID, bool) {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < gid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ids) && ids[lo] == gid {
		return corpus.DocID(lo), true
	}
	return 0, false
}

// collection is the Store as its engine's vsm.Source — the same memory
// under a type whose methods read the store's live counters, which span
// every part and exclude tombstoned documents, without locking: the
// engine only calls them from SearchBatch, under the store's read lock,
// which excludes every writer. (Store's own exported accessors take that
// lock, and must not be re-entered under it.)
type collection Store

func (c *collection) Vocab() *textproc.Vocab { return c.vocab }
func (c *collection) NumDocs() int           { return c.liveDocs }

func (c *collection) DocFreq(id textproc.TermID) int {
	if id < 0 || int(id) >= len(c.df) {
		return 0
	}
	return int(c.df[id])
}

func (c *collection) AvgDocLen() float64 {
	if c.liveDocs == 0 {
		return 0
	}
	return float64(c.liveLen) / float64(c.liveDocs)
}

// AppendParts snapshots the parts with a live document: the sealed
// segments in stack order, then the memtable. The slices a part carries
// — a segment's norms and IDs, the memtable's growing ones, either's
// tombstones — are safe to read for as long as the read lock is held.
func (c *collection) AppendParts(dst []vsm.Part) []vsm.Part {
	for _, sg := range c.segs {
		if sg.live > 0 {
			dst = append(dst, vsm.Part{Postings: sg.idx, Norms: sg.norms, IDs: sg.ids, Dead: tombstones(sg.dead, sg.live)})
		}
	}
	if mt := c.mem; mt.live > 0 {
		dst = append(dst, vsm.Part{Postings: mt, Norms: mt.norm, IDs: mt.ids, Dead: tombstones(mt.dead, mt.live)})
	}
	return dst
}

// tombstones returns dead, or nil when every one of its documents is
// live: a part without tombstones is scanned unfiltered, which is the
// engine's fast path.
func tombstones(dead []bool, live int) []bool {
	if live == len(dead) {
		return nil
	}
	return dead
}
