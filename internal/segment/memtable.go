package segment

import (
	"fmt"
	"math"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
)

// memtable is the mutable head of the store: an incremental in-memory
// inverted index over the most recently added documents. Its postings
// lists and document lengths are the store's index.Builder, which a seal
// encodes as they stand; its lnc norms are kept per document as it is
// added, so the engine reads them off a slice like a sealed segment's,
// and the sealed segment keeps them. It keeps no analyzed bags. Its
// DocAnalyzer memoizes the analysis of the surface tokens its documents
// hold, and goes with it at seal. All mutation happens under the store's
// write lock; reads under the read lock.
type memtable struct {
	st   *Store
	b    *index.Builder // the store's; it holds this memtable's lists
	an   *textproc.DocAnalyzer
	bag  []textproc.TermID // scratch: the document being added
	ids  []corpus.DocID
	docs []corpus.Document
	norm []float64
	dead []bool
	live int
}

func newMemtable(st *Store) *memtable {
	return &memtable{st: st, b: &st.build, an: textproc.NewDocAnalyzer(st.an, st.vocab)}
}

// add analyzes one document into the shared vocabulary and indexes it
// at the next local ID. Returns the document's distinct terms in
// ascending order, valid until the next add, and its analyzed length,
// for the store's statistics bookkeeping.
func (mt *memtable) add(doc corpus.Document, gid corpus.DocID) (terms []textproc.TermID, length int) {
	mt.bag = mt.an.AppendIDs(mt.bag[:0], doc.Text)
	terms, tfs := mt.b.Add(mt.bag)
	mt.ids = append(mt.ids, gid)
	// Only what a save writes is kept, so Doc answers the same before a
	// save and after a load.
	mt.docs = append(mt.docs, corpus.Document{ID: gid, Title: doc.Title, Text: doc.Text})
	mt.dead = append(mt.dead, false)
	mt.live++
	// Squares are summed in ascending term order, the order
	// vsm.DocNorms adds them in: a document's norm, and so its cosine
	// score, is the same bits before and after it is sealed or merged.
	normSq := 0.0
	for _, tf := range tfs {
		w := 1 + math.Log(float64(tf))
		normSq += float64(w * w) // rounded first, as vsm.DocNorms: never fused
	}
	mt.norm = append(mt.norm, math.Sqrt(normSq))
	return terms, len(mt.bag)
}

// IterInto and DocLen make the memtable a vsm.Postings. IterInto hands
// out a plain slice iterator over the term's growing list — the memtable
// keeps its postings uncompressed (they grow in place); compression
// happens on seal, when the builder encodes the frozen lists into
// blocks.
func (mt *memtable) IterInto(id textproc.TermID, it *index.Iterator) {
	it.ResetList(mt.b.List(id))
}

func (mt *memtable) DocLen(d corpus.DocID) int { return mt.b.DocLen(d) }

// locate binary-searches for a global ID (ids are ascending).
func (mt *memtable) locate(gid corpus.DocID) (corpus.DocID, bool) {
	return locateID(mt.ids, gid)
}

// seal freezes the memtable into a level-0 segment: the builder encodes
// the memtable's lists as they stand, and the segment keeps its norms.
// Returns nil when empty. Caller holds the store's write lock.
func (mt *memtable) seal() (*seg, error) {
	if len(mt.docs) == 0 {
		return nil, nil
	}
	// Seal against a frozen view of the dictionary: the sealed index must
	// be readable by the background compactor and Save without locks,
	// while the shared dictionary keeps growing under the store's write
	// lock — which only ever appends past the view.
	vocab := mt.st.vocab
	idx, err := mt.b.Index(vocab.Prefix(vocab.Size()))
	if err != nil {
		return nil, fmt.Errorf("segment: seal: %w", err)
	}
	return &seg{
		level: 0,
		ids:   mt.ids,
		docs:  mt.docs,
		idx:   idx,
		norms: append(make([]float64, 0, len(mt.norm)), mt.norm...),
		dead:  mt.dead,
		live:  mt.live,
	}, nil
}
