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

// BlockSize is the number of postings per compressed block. Block-wise
// compression is what lets traversal decode a kilobyte at a time
// instead of materializing a list. 128 is the standard choice — big enough
// that block metadata is a rounding error next to the postings, small
// enough that a decoded block fits in a kilobyte of iterator buffer.
const BlockSize = 128

// Index is an immutable inverted index over a corpus. Build it with
// Build; it is then safe for concurrent readers.
type Index struct {
	vocab *textproc.Vocab
	// lists holds each term's block-compressed postings (indexed by
	// TermID). Traversal decodes block-at-a-time through IterInto;
	// Postings materializes a list only for cold paths and tests.
	lists    []compList
	docLen   []int // analyzed length of each document
	numDocs  int
	totalLen int

	// size is the serialized size, measured on first use (SizeBytes).
	sizeOnce sync.Once
	size     int64

	// mapped, when non-nil, is the disk mapping whose pages back every
	// list's packed payload (OpenMapped). The index owns it; Close
	// releases it. Nil for built, merged, and stream-read indexes.
	mapped *mapping
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
	idx.compressLists(raw)
	return idx, nil
}

// compressLists encodes the raw sorted lists into the block-compressed
// in-memory form through one reused scratch buffer. The raw slices are
// not retained.
func (x *Index) compressLists(raw [][]Posting) {
	x.lists = make([]compList, len(raw))
	var scratch []byte
	for t, pl := range raw {
		x.lists[t], scratch = encodePostings(pl, scratch)
	}
}

// Mapped reports whether the index's postings payloads are views into
// a disk mapping (an OpenMapped index).
func (x *Index) Mapped() bool { return x.mapped != nil }

// Close releases the disk mapping behind an OpenMapped index. After
// Close every traversal touching a mapped payload is invalid — callers
// must ensure no readers remain. Safe on nil-mapping indexes (a no-op)
// and safe to call twice.
func (x *Index) Close() error {
	m := x.mapped
	x.mapped = nil
	return m.Close()
}

// Vocab returns the shared vocabulary.
func (x *Index) Vocab() *textproc.Vocab { return x.vocab }

// ShareVocab swaps x's own dictionary for a frozen view of dict's first
// NumTerms terms, which must be x's terms at the same IDs — dict is the
// growing dictionary x's terms were replayed into. It is how a loaded
// segment stops holding a dictionary of its own. On a mismatch x keeps
// its dictionary and the error names the first differing term.
func (x *Index) ShareVocab(dict *textproc.Vocab) error {
	n := x.NumTerms()
	if dict.Size() < n {
		return fmt.Errorf("index: share dictionary: %d terms, index has %d", dict.Size(), n)
	}
	for t := 0; t < n; t++ {
		if term, want := dict.Term(textproc.TermID(t)), x.vocab.Term(textproc.TermID(t)); term != want {
			return fmt.Errorf("index: share dictionary: term %d is %q, %q in the index", t, term, want)
		}
	}
	x.vocab = dict.Prefix(n)
	return nil
}

// NumDocs returns the number of indexed documents.
func (x *Index) NumDocs() int { return x.numDocs }

// NumTerms returns the dictionary size.
func (x *Index) NumTerms() int { return len(x.lists) }

// Postings decodes and returns the postings list for a term ID. Each
// call materializes a fresh slice — hot paths should traverse through
// IterInto instead, which decodes block-at-a-time without allocating.
func (x *Index) Postings(id textproc.TermID) PostingList {
	if x.DocFreq(id) == 0 {
		return nil
	}
	out := make(PostingList, 0, x.lists[id].n)
	var it Iterator
	for x.IterInto(id, &it); it.Valid(); it.NextWindow() {
		docs, tfs := it.Window()
		for i := range docs {
			out = append(out, Posting{Doc: docs[i], TF: tfs[i]})
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

// IterInto repositions it over id's postings in place — the vsm
// Source contract. Only the first block's doc IDs are decoded; the
// iterator's kilobyte of buffer is neither cleared nor copied.
func (x *Index) IterInto(id textproc.TermID, it *Iterator) {
	if id < 0 || int(id) >= len(x.lists) {
		it.ResetList(nil)
		return
	}
	it.reset(&x.lists[id])
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
