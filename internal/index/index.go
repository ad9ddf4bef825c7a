// Package index implements the inverted-index substrate of the search
// engine: per-term postings lists of ⟨doc, tf⟩ pairs (the ⟨p_ij, d_j⟩
// pairs of the paper's §II) held block-compressed in memory and on
// disk, tf-idf statistics, a compact on-disk codec, and the size
// accounting the paper uses in its PIR cost argument and in Figure 6.
package index

import (
	"fmt"
	"math"
	"slices"
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
	// lists holds each term's entry (indexed by TermID): its count, last
	// document and the span of data holding its block-compressed
	// postings. Traversal decodes block-at-a-time through IterInto;
	// Postings materializes a list only for cold paths and tests.
	lists []compList
	// data is the one allocation holding every list's payload, in term
	// order — for a mapped index, the file image the lists lie in.
	data     []byte
	docLen   []int32 // analyzed length of each document
	numDocs  int
	totalLen int

	// size is the serialized size, measured on first use (SizeBytes).
	sizeOnce sync.Once
	size     int64

	// mapped, when non-nil, is the disk mapping whose pages back data
	// (OpenMapped). The index owns it; Close releases it. Nil for built,
	// merged, and stream-read indexes.
	mapped *mapping
}

// Build constructs the index from an analyzed corpus.
func Build(c *corpus.Corpus) (*Index, error) {
	if c == nil || c.Vocab == nil {
		return nil, fmt.Errorf("index: nil corpus")
	}
	if len(c.Bags) != c.NumDocs() {
		return nil, fmt.Errorf("index: %d documents but %d bags", c.NumDocs(), len(c.Bags))
	}
	n := c.Vocab.Size()
	b := Builder{lists: make([][]Posting, n), count: make([]int32, n)}
	for _, bag := range c.Bags {
		b.Add(bag)
	}
	return b.Index(c.Vocab)
}

// Builder assembles an index one document at a time: the one postings
// builder behind Build and the live store's memtable. A document's terms
// are counted in a dense per-TermID array that is all zero between
// calls, so no map is made, and its postings are appended to
// TermID-indexed lists. Documents arrive in ID order, so every list is
// ascending as built and none is sorted. Until Index hands them over,
// the lists are readable (List, DocLen) by whatever serializes with Add.
// The zero value is an empty builder.
type Builder struct {
	lists    [][]Posting
	docLen   []int32
	totalLen int
	// count is zero everywhere between calls; Add counts into it, and
	// Scratch lends it out.
	count []int32
	terms []textproc.TermID
	tfs   []int32
}

// Add indexes bag, a document's term IDs, as the next document. It
// returns the document's distinct terms in ascending order and their
// term frequencies, in slices the builder reuses on the next Add.
func (b *Builder) Add(bag []textproc.TermID) ([]textproc.TermID, []int32) {
	doc := corpus.DocID(len(b.docLen))
	b.docLen = append(b.docLen, int32(len(bag)))
	b.totalLen += len(bag)
	terms := b.terms[:0]
	for _, id := range bag {
		if int(id) >= len(b.count) {
			b.count = grow(b.count, int(id)+1)
		}
		if b.count[id] == 0 {
			terms = append(terms, id)
		}
		b.count[id]++
	}
	slices.Sort(terms)
	if len(terms) > 0 {
		b.lists = grow(b.lists, int(terms[len(terms)-1])+1)
	}
	tfs := b.tfs[:0]
	for _, id := range terms {
		tf := b.count[id]
		b.count[id] = 0
		b.lists[id] = append(b.lists[id], Posting{Doc: doc, TF: tf})
		tfs = append(tfs, tf)
	}
	b.terms, b.tfs = terms, tfs
	return terms, tfs
}

// grow extends s with zero values to length n, if it is shorter.
func grow[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// NumTerms returns one past the largest term ID added since the last
// Index: List answers nil at and past it.
func (b *Builder) NumTerms() int { return len(b.lists) }

// List returns term id's postings so far, ascending by document.
func (b *Builder) List(id textproc.TermID) []Posting {
	if id < 0 || int(id) >= len(b.lists) {
		return nil
	}
	return b.lists[id]
}

// DocLen returns the analyzed length of document d.
func (b *Builder) DocLen(d corpus.DocID) int {
	if d < 0 || int(d) >= len(b.docLen) {
		return 0
	}
	return int(b.docLen[d])
}

// Scratch lends out the builder's count array, grown to at least n
// entries and all zero, to a caller that needs a dense per-TermID array
// between two Adds. The caller must hand it back all zero.
func (b *Builder) Scratch(n int) []int32 {
	b.count = grow(b.count, n)
	return b.count
}

// Index encodes the documents added so far into an index over vocab,
// which must name every term they hold, and empties the builder for the
// next index; its scratch is kept. The index holds its payloads and its
// document lengths at exact size: the payload slab is sized from the
// lists' frames (blocksLen) and encoded into, allocated once.
func (b *Builder) Index(vocab *textproc.Vocab) (*Index, error) {
	if len(b.lists) > vocab.Size() {
		return nil, fmt.Errorf("index: term %d outside the %d-term dictionary", len(b.lists)-1, vocab.Size())
	}
	size := 0
	for _, pl := range b.lists {
		size += blocksLen(pl)
	}
	if size > math.MaxUint32 {
		return nil, errSlabSize(size)
	}
	x := &Index{
		vocab:    vocab,
		lists:    make([]compList, vocab.Size()),
		data:     make([]byte, 0, size),
		docLen:   exactCopy(b.docLen),
		numDocs:  len(b.docLen),
		totalLen: b.totalLen,
	}
	for t, pl := range b.lists {
		var err error
		if x.lists[t], x.data, err = encodePostings(pl, x.data); err != nil {
			return nil, err
		}
	}
	b.lists, b.docLen, b.totalLen = nil, nil, 0
	return x, nil
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
	out := make(PostingList, 0, x.DocFreq(id))
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
	it.reset(x.data, x.lists[id])
}

// DocLen returns the analyzed token count of document d.
func (x *Index) DocLen(d corpus.DocID) int {
	if d < 0 || int(d) >= len(x.docLen) {
		return 0
	}
	return int(x.docLen[d])
}

// AvgDocLen returns the mean analyzed document length.
func (x *Index) AvgDocLen() float64 {
	if x.numDocs == 0 {
		return 0
	}
	return float64(x.totalLen) / float64(x.numDocs)
}
