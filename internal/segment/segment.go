// Package segment implements the live-index subsystem: an LSM-inspired
// layering of a mutable in-memory memtable under a stack of immutable
// sealed segments, each wrapping an index.Index. Documents are added to
// the memtable; at a size threshold the memtable is sealed into a new
// level-0 segment; a background compactor merges same-level runs of
// segments into the next level; deletes set tombstone bits without
// touching postings. Searches fan out across all segments (and the
// memtable) concurrently and merge per-shard top-k results with a heap,
// scoring every shard against *global* live collection statistics
// (N, df, avgdl) so results are identical — to floating-point noise —
// to a from-scratch index.Build over the surviving documents.
//
// Every shard engine runs vsm's flat scan, a cycle's members together;
// tombstones are filtered inside the shard, before a document can reach
// its top-k (a shard with none runs unfiltered).
//
// The store persists as one TPIX file per sealed segment plus a JSON
// manifest, so a restart recovers without re-analyzing any text.
package segment

import (
	"math"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// seg is one immutable sealed segment. Its postings and engine never
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
	eng  *vsm.Engine
	dead []bool
	live int
}

// locate binary-searches the segment for a global doc ID, returning the
// local ID.
func (s *seg) locate(gid corpus.DocID) (corpus.DocID, bool) {
	return locateID(s.ids, gid)
}

// locateID binary-searches an ascending global-ID slice, returning the
// position as a shard-local doc ID. Shared by segments and the
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

// localSource is the shard-local half of a liveSource: postings
// iterators and per-document lengths. Both *index.Index (sealed
// segments: decode-on-traversal iterators over block-compressed lists)
// and *memtable (plain slice iterators over its uncompressed growing
// lists) satisfy it.
type localSource interface {
	NumTerms() int
	IterInto(id textproc.TermID, it *index.Iterator)
	DocLen(d corpus.DocID) int
}

// liveSource adapts one shard to the vsm.Source contract by delegating
// postings to the shard while reading collection statistics — document
// count, document frequency, idf, average length — from the store's
// live counters, which span every shard and exclude tombstoned
// documents. This is what makes per-shard scoring add up to exactly the
// single-index result: a query term's weight is the same in every
// shard, even in shards that have never seen the term.
//
// All methods read store fields without locking: the engine only calls
// them while the store's mutex is held (read-held during Search,
// write-held during seal), which excludes every writer.
type liveSource struct {
	st    *Store
	local localSource
	// norms holds precomputed lnc document norms for sealed shards; nil
	// for the memtable, whose norms grow with it (localNorms).
	norms []float64
}

// localNorms is implemented by shards that maintain their own norms
// (the memtable).
type localNorms interface {
	DocNorm(d corpus.DocID) float64
}

func (s *liveSource) Vocab() *textproc.Vocab { return s.st.vocab }
func (s *liveSource) NumDocs() int           { return s.st.liveDocs }
func (s *liveSource) NumTerms() int          { return s.local.NumTerms() }

func (s *liveSource) IterInto(id textproc.TermID, it *index.Iterator) {
	s.local.IterInto(id, it)
}

func (s *liveSource) DocFreq(id textproc.TermID) int { return s.st.docFreqLocked(id) }

func (s *liveSource) IDF(id textproc.TermID) float64 {
	df := s.st.docFreqLocked(id)
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(s.st.liveDocs)/float64(df))
}

func (s *liveSource) DocLen(d corpus.DocID) int { return s.local.DocLen(d) }

func (s *liveSource) AvgDocLen() float64 {
	if s.st.liveDocs == 0 {
		return 0
	}
	return float64(s.st.liveLen) / float64(s.st.liveDocs)
}

// DocNorm implements vsm.NormSource so engine construction never scans
// a live source.
func (s *liveSource) DocNorm(d corpus.DocID) float64 {
	if s.norms != nil {
		if int(d) < len(s.norms) {
			return s.norms[d]
		}
		return 0
	}
	return s.local.(localNorms).DocNorm(d)
}
