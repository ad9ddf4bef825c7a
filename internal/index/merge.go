package index

import (
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
// documents.
//
// The parts must share one append-only dictionary — the segment
// store's: every part's vocabulary is a prefix of the longest part's,
// so term IDs carry over verbatim, and the merged index holds the
// longest part's vocabulary itself — for a store's segments, a view of
// the store's dictionary — not a copy. Any other input is refused with
// an error.
//
// A merge is Build over the survivors: list t of every part is walked
// in order, its surviving postings are renumbered into one scratch list,
// and that list is encoded exactly as Build encodes it, so the merged
// index is byte for byte what Build over the surviving documents under
// the same dictionary produces. One list is held decoded at a time.
func Merge(parts []*Index, keep []func(corpus.DocID) bool) (*Index, [][]corpus.DocID, error) {
	if len(parts) == 0 {
		return nil, nil, fmt.Errorf("index: merge of zero parts")
	}
	if keep != nil && len(keep) != len(parts) {
		return nil, nil, fmt.Errorf("index: merge: %d parts but %d keep predicates", len(parts), len(keep))
	}

	longest := parts[0]
	for _, part := range parts[1:] {
		if part.NumTerms() > longest.NumTerms() {
			longest = part
		}
	}
	for i, part := range parts {
		if part.vocab == longest.vocab {
			continue
		}
		for t := 0; t < part.NumTerms(); t++ {
			if term, want := part.vocab.Term(textproc.TermID(t)), longest.vocab.Term(textproc.TermID(t)); term != want {
				return nil, nil, fmt.Errorf("index: merge: part %d term %d is %q, %q in the longest part: parts must share one append-only dictionary", i, t, term, want)
			}
		}
	}

	// Renumber surviving documents densely.
	remap := make([][]corpus.DocID, len(parts))
	merged := &Index{vocab: longest.vocab}
	for i, part := range parts {
		pred := func(corpus.DocID) bool { return true }
		if keep != nil && keep[i] != nil {
			pred = keep[i]
		}
		dm := make([]corpus.DocID, part.NumDocs())
		for d := range dm {
			if !pred(corpus.DocID(d)) {
				dm[d] = DroppedDoc
				continue
			}
			dm[d] = corpus.DocID(merged.numDocs)
			merged.numDocs++
			dl := part.docLen[d]
			merged.docLen = append(merged.docLen, dl)
			merged.totalLen += int(dl)
		}
		remap[i] = dm
	}

	// Processing parts in order keeps every list sorted: merged IDs of
	// part i all precede part i+1's, and each source list is ascending.
	// The parts' payloads together are the merged payload's size but for
	// dropped postings and re-cut blocks: its capacity, so the slab seldom
	// grows before its one exact-size copy.
	merged.lists = make([]compList, longest.NumTerms())
	size := 0
	for _, part := range parts {
		for _, cl := range part.lists {
			size += int(cl.end - cl.off)
		}
	}
	var pl []Posting
	slab := make([]byte, 0, size)
	var it Iterator
	for t := range merged.lists {
		pl = pl[:0]
		for i, part := range parts {
			dm := remap[i]
			for part.IterInto(textproc.TermID(t), &it); it.Valid(); it.NextWindow() {
				docs, tfs := it.Window()
				for j, d := range docs {
					if nd := dm[d]; nd != DroppedDoc {
						pl = append(pl, Posting{Doc: nd, TF: tfs[j]})
					}
				}
			}
		}
		var err error
		if merged.lists[t], slab, err = encodePostings(pl, slab); err != nil {
			return nil, nil, err
		}
	}
	merged.data = exactCopy(slab)
	return merged, remap, nil
}
