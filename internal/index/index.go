// Package index implements the inverted-index substrate of the search
// engine: per-term postings lists of ⟨doc, tf⟩ pairs (the ⟨p_ij, d_j⟩
// pairs of the paper's §II) held block-compressed in memory and on
// disk, tf-idf statistics, a compact on-disk codec, and the size
// accounting the paper uses in its PIR cost argument and in Figure 6.
package index

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// Posting records one document's occurrence count for a term — the
// decoded form of one postings entry. Inside an Index postings live
// block-compressed (see postings.go); Posting is the unit iterators
// decode and builders/mergers assemble.
type Posting struct {
	Doc corpus.DocID
	TF  int32
}

// PostingList is a term's postings, sorted by ascending DocID.
type PostingList []Posting

// Okapi BM25 parameters, shared with the scoring engine so the
// precomputed per-term impact bounds and the query-time scores use the
// same constants.
const (
	BM25K1 = 1.2
	BM25B  = 0.75
)

// BlockSize is the number of postings per compressed block and per
// max-impact block. Block-wise compression is what lets a seek pass
// over a run of postings without decoding it, and per-block bounds are
// what lets a merge carry exact term-level maxima forward without
// rescoring clean blocks. 128 is the standard choice — big enough
// that block metadata is a rounding error next to the postings, small
// enough that a decoded block fits in a kilobyte of iterator buffer.
const BlockSize = 128

// BlockMax is the impact summary of one block of postings: the same
// three bounds the term-level metadata carries (largest term
// frequency, largest lnc cosine partial, largest length-free BM25
// saturation factor), restricted to the block's documents.
type BlockMax struct {
	MaxTF  int32
	MaxCos float64
	MaxBM  float64
}

// BM25TFBound returns an upper bound on the Okapi tf-saturation factor
// tf·(k1+1)/(tf + k1·(1−b+b·dl/avgdl)) that holds for every document
// length and every collection average: the denominator is minimized at
// dl = 0. Being length-free makes the bound safe even when a segment's
// postings are scored against global collection statistics that differ
// from the segment's own.
func BM25TFBound(tf int32) float64 {
	t := float64(tf)
	return t * (BM25K1 + 1) / (t + BM25K1*(1-BM25B))
}

// Index is an immutable inverted index over a corpus. Build it with
// Build; it is then safe for concurrent readers.
type Index struct {
	vocab *textproc.Vocab
	// lists holds each term's block-compressed postings (indexed by
	// TermID). Traversal decodes block-at-a-time through Iter/IterInto;
	// Postings materializes a list only for cold paths and tests.
	lists    []compList
	docLen   []int // analyzed length of each document
	numDocs  int
	totalLen int

	// Per-term max-impact metadata (indexed by TermID), the skipping
	// fuel of MaxScore-style top-k pruning: the largest term frequency
	// in the list, the largest lnc cosine partial (1+ln tf)/‖d‖ any
	// posting contributes, and the largest length-free BM25 saturation
	// factor. Computed by Build/Merge, persisted by the codec.
	maxTF  []int32
	maxCos []float64
	maxBM  []float64
	// blocks holds the same bounds per compressed block of each list
	// (aligned with the list's block structure; nil for empty lists).
	// The term-level maxima above are exactly the maxima over a list's
	// blocks, which is how a block-wise merge folds them without
	// rescoring. Persisted by the codec.
	blocks [][]BlockMax

	// bloom is the per-segment term bloom filter (see bloom.go): read
	// from the file, derived lazily from the dictionary for indexes
	// built or merged in memory. Access through Bloom.
	bloomOnce sync.Once
	bloom     *TermBloom

	// mapped, when non-nil, is the disk mapping whose pages back every
	// list's packed payload (OpenMapped). The index owns it; Close
	// releases it. Nil for built, merged, and stream-read indexes.
	mapped *mapping
	// cache, when non-nil, is the shared decoded-block cache iterators
	// of this index route block decodes through (AttachCache), with
	// cacheOwner namespacing this index's entries. Both are atomic
	// because the segment store detaches retired segments (DropCache)
	// while searches that snapshotted the old stack may still be
	// opening iterators — a stale pair is harmless (owner IDs are
	// never reused, so late inserts just age out), a torn one is not.
	cache      atomic.Pointer[BlockCache]
	cacheOwner atomic.Uint32
}

// Build constructs the index from an analyzed corpus.
func Build(c *corpus.Corpus) (*Index, error) {
	if c == nil || c.Vocab == nil {
		return nil, fmt.Errorf("index: nil corpus")
	}
	idx := &Index{
		vocab:   c.Vocab,
		docLen:  make([]int, c.NumDocs()),
		numDocs: c.NumDocs(),
	}
	raw := make([][]Posting, c.Vocab.Size())
	for d, bag := range c.Bags {
		idx.docLen[d] = len(bag)
		idx.totalLen += len(bag)
		counts := make(map[textproc.TermID]int32, len(bag))
		for _, id := range bag {
			counts[id]++
		}
		for id, tf := range counts {
			raw[id] = append(raw[id], Posting{Doc: corpus.DocID(d), TF: tf})
		}
	}
	// Document order within each list follows map iteration above; sort
	// for deterministic layout and delta-encodable doc IDs.
	for id := range raw {
		pl := raw[id]
		sort.Slice(pl, func(i, j int) bool { return pl[i].Doc < pl[j].Doc })
	}
	idx.computeImpacts(raw)
	idx.compressLists(raw)
	return idx, nil
}

// compressLists encodes the raw sorted lists into the block-compressed
// in-memory form. The raw slices are not retained.
func (x *Index) compressLists(raw [][]Posting) {
	x.lists = make([]compList, len(raw))
	for t, pl := range raw {
		x.lists[t] = encodePostings(pl)
	}
}

// computeImpacts derives the per-term and per-block max-impact
// metadata from the raw (uncompressed, sorted) postings in one pass:
// lnc document norms first (they need the whole index), then each
// list's blocks, then the term-level maxima as the maxima over blocks
// — which makes the two levels consistent by construction
// (bit-for-bit: they maximize over the same float values, and
// BM25TFBound is monotone in tf).
func (x *Index) computeImpacts(raw [][]Posting) {
	norms := make([]float64, x.numDocs)
	for _, pl := range raw {
		for _, p := range pl {
			w := 1 + math.Log(float64(p.TF))
			norms[p.Doc] += w * w
		}
	}
	for d := range norms {
		norms[d] = math.Sqrt(norms[d])
	}
	x.maxTF = make([]int32, len(raw))
	x.maxCos = make([]float64, len(raw))
	x.maxBM = make([]float64, len(raw))
	x.blocks = make([][]BlockMax, len(raw))
	for t, pl := range raw {
		if len(pl) == 0 {
			continue
		}
		bs := make([]BlockMax, (len(pl)+BlockSize-1)/BlockSize)
		for b := range bs {
			start, end := b*BlockSize, (b+1)*BlockSize
			if end > len(pl) {
				end = len(pl)
			}
			bs[b] = blockMaxOf(pl[start:end], norms, nil)
		}
		x.blocks[t] = bs
		x.maxTF[t], x.maxCos[t], x.maxBM[t] = maxOverBlocks(bs)
	}
}

// blockMaxOf computes one block's impact bounds over its postings.
// When remap is non-nil, norms are indexed by remap of the posting's
// doc (the block-wise merge path, where postings already carry merged
// IDs but norms are per-part).
func blockMaxOf(pl []Posting, norms []float64, remap []corpus.DocID) BlockMax {
	var bm BlockMax
	for i, p := range pl {
		if p.TF > bm.MaxTF {
			bm.MaxTF = p.TF
		}
		d := p.Doc
		if remap != nil {
			d = remap[i]
		}
		if c := (1 + math.Log(float64(p.TF))) / norms[d]; c > bm.MaxCos {
			bm.MaxCos = c
		}
	}
	bm.MaxBM = BM25TFBound(bm.MaxTF)
	return bm
}

// maxOverBlocks folds a list's block bounds into its term-level maxima.
func maxOverBlocks(bs []BlockMax) (mtf int32, mcos, mbm float64) {
	for _, bm := range bs {
		if bm.MaxTF > mtf {
			mtf = bm.MaxTF
		}
		if bm.MaxCos > mcos {
			mcos = bm.MaxCos
		}
		if bm.MaxBM > mbm {
			mbm = bm.MaxBM
		}
	}
	return mtf, mcos, mbm
}

// Bloom returns the index's per-segment term bloom filter, deriving
// it from the dictionary on first use when the index was built or
// merged in memory. Safe for concurrent readers.
func (x *Index) Bloom() *TermBloom {
	x.bloomOnce.Do(func() {
		if x.bloom == nil {
			x.bloom = buildVocabBloom(x.vocab)
		}
	})
	return x.bloom
}

// AttachCache routes this index's block decodes through a shared
// decoded-block cache. The owner ID is published before the cache
// pointer, so a concurrent reader that observes the cache always
// reads a valid owner; DropCache/Close detach and purge.
func (x *Index) AttachCache(c *BlockCache) {
	if c == nil {
		return
	}
	x.cacheOwner.Store(c.RegisterOwner())
	x.cache.Store(c)
}

// DropCache detaches the index from its block cache, purging the
// entries it owns. Safe concurrent with traversal: an in-flight
// iterator that captured the cache before the swap keeps using it
// correctly — its owner ID is retired, never reused, so anything it
// still inserts is unreachable and ages out of the CLOCK ring.
func (x *Index) DropCache() {
	if c := x.cache.Swap(nil); c != nil {
		c.DropOwner(x.cacheOwner.Load())
	}
}

// WarmCache pre-fills the attached block cache with this index's
// decoded blocks, longest lists first — the lists a query is most
// likely to touch — and returns the number of blocks inserted. Warming
// claims only free slots (it never evicts what live queries cached) and
// stops at the first full slot-ring, so it is safe to call eagerly:
// compaction uses it to hand the merged segment a warm cache instead of
// starting every post-compaction query from a cold one. No-op without
// an attached cache.
func (x *Index) WarmCache() int {
	c := x.cache.Load()
	if c == nil {
		return 0
	}
	owner := x.cacheOwner.Load()
	order := make([]int32, 0, len(x.lists))
	for id := range x.lists {
		if x.lists[id].n > 0 {
			order = append(order, int32(id))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := x.lists[order[i]].n, x.lists[order[j]].n
		if a != b {
			return a > b
		}
		return order[i] < order[j]
	})
	warmed := 0
	var docs [BlockSize]corpus.DocID
	var tfs [BlockSize]int32
	for _, id := range order {
		cl := &x.lists[id]
		for b := 0; b < cl.numBlocks(); b++ {
			h := cl.decodeBlockDocs(b, &docs)
			cl.decodeBlockTFs(h, &tfs)
			k := cacheKey{owner: owner, term: id, block: int32(b)}
			if !c.warmPut(k, &docs, &tfs, h.count) {
				return warmed
			}
			warmed++
		}
	}
	return warmed
}

// Mapped reports whether the index's postings payloads are views into
// a disk mapping (an OpenMapped index).
func (x *Index) Mapped() bool { return x.mapped != nil }

// Close releases the disk mapping behind an OpenMapped index and
// detaches its block cache. After Close every traversal touching a
// mapped payload is invalid — callers must ensure no readers remain
// (in-memory indexes have no mapping and Close is then cache-drop
// only). Safe on nil-mapping indexes and safe to call twice.
func (x *Index) Close() error {
	x.DropCache()
	m := x.mapped
	x.mapped = nil
	return m.Close()
}

// Vocab returns the shared vocabulary.
func (x *Index) Vocab() *textproc.Vocab { return x.vocab }

// NumDocs returns the number of indexed documents.
func (x *Index) NumDocs() int { return x.numDocs }

// NumTerms returns the dictionary size.
func (x *Index) NumTerms() int { return len(x.lists) }

// Postings decodes and returns the postings list for a term ID. Each
// call materializes a fresh slice — hot paths should traverse through
// Iter/IterInto instead, which decode block-at-a-time without
// allocating.
func (x *Index) Postings(id textproc.TermID) PostingList {
	if id < 0 || int(id) >= len(x.lists) {
		return nil
	}
	cl := &x.lists[id]
	if cl.n == 0 {
		return nil
	}
	out := make(PostingList, 0, cl.n)
	it := newCompIterator(cl)
	for it.Valid() {
		docs, tfs := it.Window()
		for i := range docs {
			out = append(out, Posting{Doc: docs[i], TF: tfs[i]})
		}
		if !it.NextWindow() {
			break
		}
	}
	return out
}

// PostingsByTerm resolves a surface term and returns its postings
// (decoded; see Postings).
func (x *Index) PostingsByTerm(term string) PostingList {
	return x.Postings(x.vocab.ID(term))
}

// DocFreq returns the document frequency of a term.
func (x *Index) DocFreq(id textproc.TermID) int {
	if id < 0 || int(id) >= len(x.lists) {
		return 0
	}
	return int(x.lists[id].n)
}

// Iter returns a decode-on-traversal iterator over id's postings.
// Absent terms yield an exhausted iterator. Query hot paths use IterInto instead, which
// repositions a pooled iterator without copying its buffers.
func (x *Index) Iter(id textproc.TermID) Iterator {
	if id < 0 || int(id) >= len(x.lists) {
		return Iterator{}
	}
	var it Iterator
	it.resetCompCached(&x.lists[id], x.cache.Load(), x.cacheOwner.Load(), int32(id))
	return it
}

// iterUncached returns an iterator over id's postings that bypasses
// any attached block cache. Merge traversal uses it: a compaction
// reads every list of every part exactly once, so routing those
// decodes through the cache would evict the query working set with
// blocks that are about to be retired.
func (x *Index) iterUncached(id textproc.TermID) Iterator {
	if id < 0 || int(id) >= len(x.lists) {
		return Iterator{}
	}
	return newCompIterator(&x.lists[id])
}

// IterInto repositions it over id's postings in place — the vsm
// Source contract. Only the first block's doc IDs are decoded; the
// iterator's kilobyte of buffer is neither cleared nor copied.
func (x *Index) IterInto(id textproc.TermID, it *Iterator) {
	if id < 0 || int(id) >= len(x.lists) {
		it.ResetList(nil)
		return
	}
	it.resetCompCached(&x.lists[id], x.cache.Load(), x.cacheOwner.Load(), int32(id))
}

// MaxTF returns the largest term frequency in id's postings list
// (0 for absent terms).
func (x *Index) MaxTF(id textproc.TermID) int32 {
	if id < 0 || int(id) >= len(x.maxTF) {
		return 0
	}
	return x.maxTF[id]
}

// MaxCosImpact returns the largest lnc cosine partial
// (1+ln tf)/‖d‖ any posting of id contributes — an upper bound on the
// term's per-document share of a normalized cosine score.
func (x *Index) MaxCosImpact(id textproc.TermID) float64 {
	if id < 0 || int(id) >= len(x.maxCos) {
		return 0
	}
	return x.maxCos[id]
}

// MaxBM25Impact returns an upper bound on the BM25 tf-saturation
// factor over id's postings, valid for any document length and any
// collection average (see BM25TFBound).
func (x *Index) MaxBM25Impact(id textproc.TermID) float64 {
	if id < 0 || int(id) >= len(x.maxBM) {
		return 0
	}
	return x.maxBM[id]
}

// BlockMaxes returns the per-block impact bounds of id's postings,
// aligned with the list's compressed-block structure (block b of the
// iterator carries bounds entry b). Nil for absent terms and empty
// lists. The returned slice is shared; callers must not modify it.
func (x *Index) BlockMaxes(id textproc.TermID) []BlockMax {
	if id < 0 || int(id) >= len(x.blocks) {
		return nil
	}
	return x.blocks[id]
}

// IDF returns the smoothed inverse document frequency
// ln(1 + N/df). Terms absent from the dictionary get 0.
func (x *Index) IDF(id textproc.TermID) float64 {
	df := x.DocFreq(id)
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(x.numDocs)/float64(df))
}

// DocLen returns the analyzed token count of document d.
func (x *Index) DocLen(d corpus.DocID) int {
	if d < 0 || int(d) >= len(x.docLen) {
		return 0
	}
	return x.docLen[int(d)]
}

// AvgDocLen returns the mean analyzed document length.
func (x *Index) AvgDocLen() float64 {
	if x.numDocs == 0 {
		return 0
	}
	return float64(x.totalLen) / float64(x.numDocs)
}
