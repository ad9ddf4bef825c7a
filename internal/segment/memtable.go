package segment

import (
	"fmt"
	"math"
	"slices"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// memtable is the mutable head of the store: an incremental in-memory
// inverted index over the most recently added documents. It keeps the
// analyzed bags so sealing can build a real index.Index without
// re-analyzing, and maintains per-document lnc norms incrementally so
// the engine reads them off a slice like a sealed segment's. All
// mutation happens under the store's write lock; reads under the read
// lock.
type memtable struct {
	st     *Store
	ids    []corpus.DocID
	docs   []corpus.Document
	bags   [][]textproc.TermID
	docLen []int
	norm   []float64
	dead   []bool
	live   int
	post   map[textproc.TermID][]index.Posting
}

func newMemtable(st *Store) *memtable {
	return &memtable{st: st, post: make(map[textproc.TermID][]index.Posting)}
}

// add analyzes one document into the shared vocabulary and indexes it
// at the next local ID. Returns the document's distinct terms in
// ascending order and its analyzed length, for the store's statistics
// bookkeeping.
func (mt *memtable) add(doc corpus.Document, gid corpus.DocID) (terms []textproc.TermID, length int) {
	bag := corpus.AnalyzeInto(doc, mt.st.an, mt.st.vocab)
	local := corpus.DocID(len(mt.docs))
	doc.ID = gid
	mt.ids = append(mt.ids, gid)
	mt.docs = append(mt.docs, doc)
	mt.bags = append(mt.bags, bag)
	mt.docLen = append(mt.docLen, len(bag))
	mt.dead = append(mt.dead, false)
	mt.live++

	counts := make(map[textproc.TermID]int32, len(bag))
	for _, id := range bag {
		counts[id]++
	}
	// Squares are summed in ascending term order, the order
	// vsm.DocNorms adds them in: a document's norm, and so its cosine
	// score, is the same bits before and after it is sealed, and from
	// one run to the next (map order would make it neither).
	terms = make([]textproc.TermID, 0, len(counts))
	for id := range counts {
		terms = append(terms, id)
	}
	slices.Sort(terms)
	normSq := 0.0
	for _, id := range terms {
		tf := counts[id]
		// Appending per document keeps each list ascending by local ID.
		mt.post[id] = append(mt.post[id], index.Posting{Doc: local, TF: tf})
		w := 1 + math.Log(float64(tf))
		normSq += w * w
	}
	mt.norm = append(mt.norm, math.Sqrt(normSq))
	return terms, len(bag)
}

// IterInto and DocLen make the memtable a vsm.Postings. IterInto hands
// out a plain slice iterator over the term's growing list — the memtable
// keeps its postings uncompressed (they mutate in place); compression
// happens on seal, when index.Build lays the frozen lists out
// block-compressed.
func (mt *memtable) IterInto(id textproc.TermID, it *index.Iterator) {
	it.ResetList(mt.post[id])
}

func (mt *memtable) DocLen(d corpus.DocID) int {
	if d < 0 || int(d) >= len(mt.docLen) {
		return 0
	}
	return mt.docLen[d]
}

// locate binary-searches for a global ID (ids are ascending).
func (mt *memtable) locate(gid corpus.DocID) (corpus.DocID, bool) {
	return locateID(mt.ids, gid)
}

// seal freezes the memtable into a level-0 segment, building a real
// index over the buffered bags (no re-analysis). Returns nil when
// empty. Caller holds the store's write lock.
func (mt *memtable) seal() (*seg, error) {
	if len(mt.docs) == 0 {
		return nil, nil
	}
	// Seal against a clone of the dictionary: the sealed index must be
	// readable by the background compactor without locks, while the
	// shared dictionary keeps growing under the store's write lock.
	c := &corpus.Corpus{Docs: mt.docs, Vocab: mt.st.vocab.Clone(), Bags: mt.bags}
	idx, err := index.Build(c)
	if err != nil {
		return nil, fmt.Errorf("segment: seal: %w", err)
	}
	return &seg{
		level: 0,
		ids:   mt.ids,
		docs:  mt.docs,
		idx:   idx,
		norms: vsm.DocNorms(idx),
		dead:  mt.dead,
		live:  mt.live,
	}, nil
}
