package index

import (
	"encoding/binary"
	"fmt"
	"math"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// DroppedDoc marks a document eliminated by a Merge (a tombstoned doc
// that did not survive into the merged index).
const DroppedDoc corpus.DocID = -1

// Merge combines several indexes into one over their surviving
// documents, working entirely at the postings level — no text is
// re-analyzed. keep[i], when non-nil, reports whether local document d
// of parts[i] survives; a nil predicate (or a nil keep slice) keeps
// every document of that part.
//
// Surviving documents are renumbered densely in part order, then
// ascending local ID within each part. The returned remap has one slice
// per part mapping local ID → merged ID, with DroppedDoc for eliminated
// documents. Vocabularies are unioned in part order; when every part
// shares prefix-compatible vocabularies (the segment store's shared
// dictionary), term IDs are preserved verbatim.
//
// Because parts are concatenated in order, their lists never
// interleave in a merged list, so merging is block-wise: a part with
// no dropped documents contributes its compressed blocks byte-for-byte
// (only the first block's base varint is rewritten to the new document
// offset — delta coding is shift-invariant) together with its block
// impact bounds, decoding nothing. Only parts with tombstoned
// documents are decoded, filtered, and re-encoded. The fast path
// requires every part's term IDs to survive the vocabulary union
// verbatim; otherwise Merge falls back to a full decode-and-rebuild,
// which produces exactly what Build over the surviving documents
// would.
func Merge(parts []*Index, keep []func(corpus.DocID) bool) (*Index, [][]corpus.DocID, error) {
	if len(parts) == 0 {
		return nil, nil, fmt.Errorf("index: merge of zero parts")
	}
	if keep != nil && len(keep) != len(parts) {
		return nil, nil, fmt.Errorf("index: merge: %d parts but %d keep predicates", len(parts), len(keep))
	}

	// Union the vocabularies and record, per part, local → merged term
	// IDs, noting whether every part keeps its IDs (the block-wise
	// precondition: per-part document norms then accumulate term
	// contributions in the same order a merged recomputation would, so
	// copied cosine bounds stay bit-identical).
	vocab := textproc.NewVocab()
	termMap := make([][]textproc.TermID, len(parts))
	identity := true
	for i, part := range parts {
		tm := make([]textproc.TermID, part.NumTerms())
		for t := 0; t < part.NumTerms(); t++ {
			tm[t] = vocab.Add(part.vocab.Term(textproc.TermID(t)))
			if int(tm[t]) != t {
				identity = false
			}
		}
		termMap[i] = tm
	}

	// Renumber surviving documents densely.
	remap := make([][]corpus.DocID, len(parts))
	dirty := make([]bool, len(parts))
	merged := &Index{vocab: vocab}
	for i, part := range parts {
		pred := func(corpus.DocID) bool { return true }
		if keep != nil && keep[i] != nil {
			pred = keep[i]
		}
		dm := make([]corpus.DocID, part.NumDocs())
		for d := 0; d < part.NumDocs(); d++ {
			if !pred(corpus.DocID(d)) {
				dm[d] = DroppedDoc
				dirty[i] = true
				continue
			}
			dm[d] = corpus.DocID(merged.numDocs)
			merged.numDocs++
			dl := part.DocLen(corpus.DocID(d))
			merged.docLen = append(merged.docLen, dl)
			merged.totalLen += dl
		}
		remap[i] = dm
	}

	if identity {
		mergeBlockwise(merged, parts, remap, dirty)
	} else {
		mergeRebuild(merged, parts, termMap, remap)
	}
	return merged, remap, nil
}

// mergeRebuild is the general path: decode every list, concatenate the
// remapped survivors, and recompute all impact metadata — exactly what
// Build over the surviving documents produces.
func mergeRebuild(merged *Index, parts []*Index, termMap [][]textproc.TermID, remap [][]corpus.DocID) {
	raw := make([][]Posting, merged.vocab.Size())
	// Processing parts in order keeps every list sorted: merged IDs of
	// part i all precede part i+1's, and each source list is already
	// ascending.
	for i, part := range parts {
		dm := remap[i]
		for t := 0; t < part.NumTerms(); t++ {
			it := part.iterUncached(textproc.TermID(t))
			if !it.Valid() {
				continue
			}
			mt := termMap[i][t]
			dst := raw[mt]
			for {
				docs, tfs := it.Window()
				for j, d := range docs {
					if nd := dm[d]; nd != DroppedDoc {
						dst = append(dst, Posting{Doc: nd, TF: tfs[j]})
					}
				}
				if !it.NextWindow() {
					break
				}
			}
			raw[mt] = dst
		}
	}
	// Max-impact metadata does not merge by taking maxima: dropped
	// documents may have carried a list's maximum, and block layouts
	// change with the surviving postings. Recompute from the merged
	// lists.
	merged.computeImpacts(raw)
	merged.compressLists(raw)
}

// mergeBlockwise is the identity-vocabulary path: per merged list,
// clean parts contribute their compressed blocks verbatim (first block
// rebased) and their impact bounds unchanged, while dirty parts are
// decoded, filtered, and re-encoded with bounds from that part's own
// document norms. Interior blocks may therefore be shorter than
// BlockSize (one partial block per source run), which the iterator
// supports natively. Term-level maxima are folded from the assembled
// blocks; they equal what a recomputation over the merged postings
// yields, because every copied cosine bound divides by a norm that is
// bit-identical in part and merged index (a surviving document keeps
// all its postings, visited in the same term order).
func mergeBlockwise(merged *Index, parts []*Index, remap [][]corpus.DocID, dirty []bool) {
	nTerms := merged.vocab.Size()
	merged.lists = make([]compList, nTerms)
	merged.blocks = make([][]BlockMax, nTerms)
	merged.maxTF = make([]int32, nTerms)
	merged.maxCos = make([]float64, nTerms)
	merged.maxBM = make([]float64, nTerms)

	// Per-part document norms, needed only where re-encoding happens.
	norms := make([][]float64, len(parts))
	for i, part := range parts {
		if dirty[i] {
			norms[i] = partNorms(part)
		}
	}

	var mb mergedListBuilder
	var decoded []Posting       // dirty-part scratch: filtered postings, merged IDs
	var origDocs []corpus.DocID // parallel original local IDs for norm lookup
	for t := 0; t < nTerms; t++ {
		mb.reset()
		for i, part := range parts {
			if t >= part.NumTerms() {
				continue
			}
			cl := &part.lists[t]
			if cl.n == 0 {
				continue
			}
			if !dirty[i] {
				// dm is a pure shift for a clean part: merged IDs are
				// dense and ascend with local IDs.
				shift := remap[i][0]
				mb.appendClean(cl, part.blocks[t], shift)
				continue
			}
			decoded, origDocs = decoded[:0], origDocs[:0]
			it := newCompIterator(cl)
			dm := remap[i]
			for it.Valid() {
				docs, tfs := it.Window()
				for j, d := range docs {
					if nd := dm[d]; nd != DroppedDoc {
						decoded = append(decoded, Posting{Doc: nd, TF: tfs[j]})
						origDocs = append(origDocs, d)
					}
				}
				if !it.NextWindow() {
					break
				}
			}
			mb.appendReencoded(decoded, origDocs, norms[i])
		}
		merged.lists[t], merged.blocks[t] = mb.finish()
		merged.maxTF[t], merged.maxCos[t], merged.maxBM[t] = maxOverBlocks(merged.blocks[t])
	}
}

// partNorms computes one part's lnc document norms from its own
// postings — identical values to what a merged recomputation assigns
// its surviving documents, since a kept document's postings and their
// term order are unchanged by concatenating parts.
func partNorms(part *Index) []float64 {
	norms := make([]float64, part.NumDocs())
	for t := 0; t < part.NumTerms(); t++ {
		it := part.iterUncached(textproc.TermID(t))
		for it.Valid() {
			docs, tfs := it.Window()
			for j, d := range docs {
				w := 1 + math.Log(float64(tfs[j]))
				norms[d] += w * w
			}
			if !it.NextWindow() {
				break
			}
		}
	}
	for d := range norms {
		norms[d] = math.Sqrt(norms[d])
	}
	return norms
}

// mergedListBuilder assembles one merged compressed list from
// per-part block runs.
type mergedListBuilder struct {
	data     []byte
	offs     []uint32
	starts   []int32
	lasts    []corpus.DocID
	blocks   []BlockMax
	n        int
	prevLast corpus.DocID
}

func (mb *mergedListBuilder) reset() {
	mb.data = mb.data[:0]
	mb.offs = mb.offs[:0]
	mb.starts = mb.starts[:0]
	mb.lasts = mb.lasts[:0]
	mb.blocks = nil // handed to the merged index; never reused
	mb.n = 0
	mb.prevLast = -1
}

// appendClean copies a part's whole compressed list, shifting its
// document space by rewriting only the first block's base varint.
func (mb *mergedListBuilder) appendClean(cl *compList, bms []BlockMax, shift corpus.DocID) {
	// The stored base delta of block 0 is firstDoc − (−1); recover
	// firstDoc, shift it, and re-delta against the merged predecessor.
	b0 := cl.blockData(0)
	baseDelta, k := binary.Uvarint(b0)
	firstDoc := corpus.DocID(baseDelta) - 1 + shift
	mb.beginBlock()
	mb.data = appendUvarint(mb.data, uint64(firstDoc-mb.prevLast))
	mb.data = append(mb.data, b0[k:]...)
	mb.endBlock(cl.blockLast(0)+shift, cl.blockLen(0))
	for b := 1; b < cl.numBlocks(); b++ {
		mb.beginBlock()
		mb.data = append(mb.data, cl.blockData(b)...)
		mb.endBlock(cl.blockLast(b)+shift, cl.blockLen(b))
	}
	mb.blocks = append(mb.blocks, bms...)
}

// appendReencoded compresses filtered postings (already carrying
// merged doc IDs) into fresh BlockSize-aligned blocks, computing their
// impact bounds from the source part's norms via the parallel
// original-ID slice.
func (mb *mergedListBuilder) appendReencoded(pl []Posting, origDocs []corpus.DocID, norms []float64) {
	for start := 0; start < len(pl); start += BlockSize {
		end := start + BlockSize
		if end > len(pl) {
			end = len(pl)
		}
		mb.beginBlock()
		mb.data = appendBlock(mb.data, mb.prevLast, pl[start:end])
		mb.endBlock(pl[end-1].Doc, end-start)
		mb.blocks = append(mb.blocks, blockMaxOf(pl[start:end], norms, origDocs[start:end]))
	}
}

func (mb *mergedListBuilder) beginBlock() {
	mb.offs = append(mb.offs, uint32(len(mb.data)))
	mb.starts = append(mb.starts, int32(mb.n))
}

func (mb *mergedListBuilder) endBlock(last corpus.DocID, count int) {
	mb.lasts = append(mb.lasts, last)
	mb.n += count
	mb.prevLast = last
}

// finish snapshots the assembled list. The data and metadata are
// copied out so the builder's scratch can be reused for the next term;
// single-block lists drop the skip arrays entirely.
func (mb *mergedListBuilder) finish() (compList, []BlockMax) {
	if mb.n == 0 {
		return compList{}, nil
	}
	cl := compList{
		n:       int32(mb.n),
		lastDoc: mb.prevLast,
		data:    append([]byte(nil), mb.data...),
	}
	if nb := len(mb.lasts); nb > 1 {
		cl.offs = append(append([]uint32(nil), mb.offs...), uint32(len(mb.data)))
		cl.starts = append(append([]int32(nil), mb.starts...), int32(mb.n))
		cl.lasts = append([]corpus.DocID(nil), mb.lasts...)
	}
	return cl, mb.blocks
}
