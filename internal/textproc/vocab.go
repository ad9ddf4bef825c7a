package textproc

import "strings"

// TermID identifies a vocabulary term. IDs are dense, starting at 0, in
// insertion order.
type TermID int32

// InvalidTerm is returned by lookups that miss.
const InvalidTerm TermID = -1

// Vocab is a bidirectional term <-> ID mapping with per-term document
// and collection frequencies. It is the shared dictionary between the
// inverted index and the LDA model, so a term ID means the same thing
// in both (the paper's Pr(w|t) matrix and the postings dictionary are
// keyed identically).
//
// Vocab is not safe for concurrent mutation; build it single-threaded,
// then share it read-only. A Prefix view of it, though, may be read
// while it grows.
type Vocab struct {
	terms []string
	ids   map[string]TermID
	// docFreq[id] counts the documents containing the term at least once.
	docFreq []int
	// collFreq[id] counts total occurrences across the collection.
	collFreq []int
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{ids: make(map[string]TermID)}
}

// Add interns the term, returning its ID. Frequencies are not touched;
// use ObserveDoc for counting. A new term is copied: Analyze's terms
// share memory with the text they came from, and the dictionary must
// not pin whole documents.
func (v *Vocab) Add(term string) TermID {
	if id, ok := v.ids[term]; ok {
		return id
	}
	return v.insert(strings.Clone(term))
}

// AddBytes is Add for a term held in a byte slice: the lookup copies
// nothing, a new term is copied once, and the caller may reuse the
// slice.
func (v *Vocab) AddBytes(term []byte) TermID {
	if id, ok := v.ids[string(term)]; ok {
		return id
	}
	return v.insert(string(term))
}

// insert appends a term the caller has checked is absent and owns.
func (v *Vocab) insert(term string) TermID {
	if v.Frozen() {
		panic("textproc: Add on a frozen dictionary view")
	}
	id := TermID(len(v.terms))
	v.terms = append(v.terms, term)
	v.ids[term] = id
	v.docFreq = append(v.docFreq, 0)
	v.collFreq = append(v.collFreq, 0)
	return id
}

// Prefix returns a frozen view of v's first n terms. The view shares
// v's term storage and holds no term → ID map and no frequencies, so
// taking one copies nothing. It is what an index sealed from a growing
// dictionary holds: v is append-only, so Add only ever writes past n
// and the view may be read without a lock while v grows.
//
// A view answers Term, Size, Terms and ID (which scans); Add panics,
// and ObserveDoc, DocFreq, CollFreq and Prune have no
// frequencies to read.
func (v *Vocab) Prefix(n int) *Vocab {
	return &Vocab{terms: v.terms[:n:n]}
}

// Frozen reports whether v is a Prefix view.
func (v *Vocab) Frozen() bool { return v.ids == nil }

// ID returns the term's ID, or InvalidTerm when absent.
func (v *Vocab) ID(term string) TermID {
	if v.Frozen() {
		for id, t := range v.terms {
			if t == term {
				return TermID(id)
			}
		}
		return InvalidTerm
	}
	if id, ok := v.ids[term]; ok {
		return id
	}
	return InvalidTerm
}

// Term returns the surface form for id. It panics when id is out of
// range, matching slice semantics.
func (v *Vocab) Term(id TermID) string { return v.terms[id] }

// Size returns the number of distinct terms (ω in the paper).
func (v *Vocab) Size() int { return len(v.terms) }

// ObserveDoc records one document's bag of term IDs, updating document
// and collection frequencies. Duplicate IDs in the bag increment the
// collection frequency per occurrence but the document frequency once.
func (v *Vocab) ObserveDoc(bag []TermID) {
	seen := make(map[TermID]struct{}, len(bag))
	for _, id := range bag {
		v.collFreq[id]++
		if _, ok := seen[id]; !ok {
			seen[id] = struct{}{}
			v.docFreq[id]++
		}
	}
}

// DocFreq returns the number of documents containing the term.
func (v *Vocab) DocFreq(id TermID) int { return v.docFreq[id] }

// CollFreq returns the total number of occurrences of the term.
func (v *Vocab) CollFreq(id TermID) int { return v.collFreq[id] }

// Terms returns a copy of all terms in ID order.
func (v *Vocab) Terms() []string {
	out := make([]string, len(v.terms))
	copy(out, v.terms)
	return out
}

// PruneSpec controls vocabulary pruning.
type PruneSpec struct {
	// MinDocFreq drops terms appearing in fewer documents. The paper
	// removes "words that appear only once", i.e. MinDocFreq = 2 on
	// collection frequency 1; we express it on document frequency, which
	// subsumes that case for our synthetic corpus.
	MinDocFreq int
}

// Prune returns a new vocabulary containing only the surviving terms and
// a remap slice: remap[oldID] = newID or InvalidTerm for dropped terms.
func (v *Vocab) Prune(spec PruneSpec) (*Vocab, []TermID) {
	nv := NewVocab()
	remap := make([]TermID, len(v.terms))
	for old, term := range v.terms {
		remap[old] = InvalidTerm
		df := v.docFreq[old]
		if spec.MinDocFreq > 0 && df < spec.MinDocFreq {
			continue
		}
		id := nv.Add(term)
		nv.docFreq[id] = v.docFreq[old]
		nv.collFreq[id] = v.collFreq[old]
		remap[old] = id
	}
	return nv, remap
}
