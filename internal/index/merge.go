package index

import (
	"encoding/binary"
	"fmt"

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
// offset — delta coding is shift-invariant), decoding nothing. Only
// parts with tombstoned documents are decoded, filtered, and
// re-encoded. The fast path
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
	// precondition: list t of a part is then list t of the merge).
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
// remapped survivors, and re-encode — exactly what Build over the
// surviving documents produces.
func mergeRebuild(merged *Index, parts []*Index, termMap [][]textproc.TermID, remap [][]corpus.DocID) {
	raw := make([][]Posting, merged.vocab.Size())
	// Processing parts in order keeps every list sorted: merged IDs of
	// part i all precede part i+1's, and each source list is already
	// ascending.
	var it Iterator
	for i, part := range parts {
		dm := remap[i]
		for t := 0; t < part.NumTerms(); t++ {
			mt := termMap[i][t]
			dst := raw[mt]
			for part.IterInto(textproc.TermID(t), &it); it.Valid(); it.NextWindow() {
				docs, tfs := it.Window()
				for j, d := range docs {
					if nd := dm[d]; nd != DroppedDoc {
						dst = append(dst, Posting{Doc: nd, TF: tfs[j]})
					}
				}
			}
			raw[mt] = dst
		}
	}
	merged.compressLists(raw)
}

// mergeBlockwise is the identity-vocabulary path: per merged list,
// clean parts contribute their compressed bytes verbatim (one varint
// rewrite plus a byte copy), while dirty parts are decoded, filtered,
// and re-encoded.
// Interior blocks may therefore be shorter than BlockSize (one partial
// block per source run), which the iterator supports natively.
func mergeBlockwise(merged *Index, parts []*Index, remap [][]corpus.DocID, dirty []bool) {
	nTerms := merged.vocab.Size()
	merged.lists = make([]compList, nTerms)

	var mb mergedListBuilder
	var decoded []Posting // dirty-part scratch: filtered postings, merged IDs
	var it Iterator
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
				mb.appendClean(cl, shift)
				continue
			}
			decoded = decoded[:0]
			dm := remap[i]
			for it.reset(cl); it.Valid(); it.NextWindow() {
				docs, tfs := it.Window()
				for j, d := range docs {
					if nd := dm[d]; nd != DroppedDoc {
						decoded = append(decoded, Posting{Doc: nd, TF: tfs[j]})
					}
				}
			}
			mb.appendReencoded(decoded)
		}
		merged.lists[t] = mb.finish()
	}
}

// mergedListBuilder assembles one merged compressed list from
// per-part block runs.
type mergedListBuilder struct {
	data     []byte
	n        int
	prevLast corpus.DocID
}

func (mb *mergedListBuilder) reset() {
	mb.data = mb.data[:0]
	mb.n = 0
	mb.prevLast = -1
}

// appendClean copies a part's whole compressed list, shifting its
// document space by rewriting only the first block's base varint.
func (mb *mergedListBuilder) appendClean(cl *compList, shift corpus.DocID) {
	// The stored base delta of block 0 is firstDoc − (−1); recover
	// firstDoc, shift it, and re-delta against the merged predecessor.
	baseDelta, k := binary.Uvarint(cl.data)
	firstDoc := corpus.DocID(baseDelta) - 1 + shift
	mb.data = appendUvarint(mb.data, uint64(firstDoc-mb.prevLast))
	mb.data = append(mb.data, cl.data[k:]...)
	mb.n += int(cl.n)
	mb.prevLast = cl.lastDoc + shift
}

// appendReencoded compresses filtered postings (already carrying
// merged doc IDs) into fresh BlockSize-aligned blocks.
func (mb *mergedListBuilder) appendReencoded(pl []Posting) {
	if len(pl) == 0 {
		return
	}
	mb.data = appendBlocks(mb.data, mb.prevLast, pl)
	mb.n += len(pl)
	mb.prevLast = pl[len(pl)-1].Doc
}

// finish snapshots the assembled list. The data is copied out so the
// builder's scratch can be reused for the next term.
func (mb *mergedListBuilder) finish() compList {
	if mb.n == 0 {
		return compList{}
	}
	return compList{n: int32(mb.n), lastDoc: mb.prevLast, data: append([]byte(nil), mb.data...)}
}
