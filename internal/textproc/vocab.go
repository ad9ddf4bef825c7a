package textproc

import (
	"fmt"
	"sort"
	"strings"
)

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
// then share it read-only.
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
// use Observe for counting. A new term is copied: Analyze's terms share
// memory with the text they came from, and the dictionary must not pin
// whole documents.
func (v *Vocab) Add(term string) TermID {
	if id, ok := v.ids[term]; ok {
		return id
	}
	term = strings.Clone(term)
	id := TermID(len(v.terms))
	v.terms = append(v.terms, term)
	v.ids[term] = id
	v.docFreq = append(v.docFreq, 0)
	v.collFreq = append(v.collFreq, 0)
	return id
}

// Clone returns an independent deep copy: same term → ID mapping and
// frequencies, sharing no mutable state with the original. A live
// index seals segments against a clone so later growth of the shared
// dictionary (which is append-only, so IDs never change meaning) can
// never race with background readers of the sealed segment.
func (v *Vocab) Clone() *Vocab {
	nv := &Vocab{
		terms:    append([]string(nil), v.terms...),
		ids:      make(map[string]TermID, len(v.ids)),
		docFreq:  append([]int(nil), v.docFreq...),
		collFreq: append([]int(nil), v.collFreq...),
	}
	for term, id := range v.ids {
		nv.ids[term] = id
	}
	return nv
}

// ID returns the term's ID, or InvalidTerm when absent.
func (v *Vocab) ID(term string) TermID {
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
	// MaxDocRatio drops terms appearing in more than this fraction of
	// documents (0 disables). Useful as a corpus-specific stopword pass.
	MaxDocRatio float64
	// TotalDocs is the number of documents observed; required when
	// MaxDocRatio > 0.
	TotalDocs int
}

// Prune returns a new vocabulary containing only the surviving terms and
// a remap slice: remap[oldID] = newID or InvalidTerm for dropped terms.
func (v *Vocab) Prune(spec PruneSpec) (*Vocab, []TermID, error) {
	if spec.MaxDocRatio > 0 && spec.TotalDocs <= 0 {
		return nil, nil, fmt.Errorf("textproc: PruneSpec.MaxDocRatio set but TotalDocs = %d", spec.TotalDocs)
	}
	nv := NewVocab()
	remap := make([]TermID, len(v.terms))
	for old, term := range v.terms {
		remap[old] = InvalidTerm
		df := v.docFreq[old]
		if spec.MinDocFreq > 0 && df < spec.MinDocFreq {
			continue
		}
		if spec.MaxDocRatio > 0 &&
			float64(df) > spec.MaxDocRatio*float64(spec.TotalDocs) {
			continue
		}
		id := nv.Add(term)
		nv.docFreq[id] = v.docFreq[old]
		nv.collFreq[id] = v.collFreq[old]
		remap[old] = id
	}
	return nv, remap, nil
}

// TopByCollFreq returns up to n term IDs sorted by descending collection
// frequency (ties broken by ID for determinism).
func (v *Vocab) TopByCollFreq(n int) []TermID {
	ids := make([]TermID, len(v.terms))
	for i := range ids {
		ids[i] = TermID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		fa, fb := v.collFreq[ids[a]], v.collFreq[ids[b]]
		if fa != fb {
			return fa > fb
		}
		return ids[a] < ids[b]
	})
	if n < len(ids) {
		ids = ids[:n]
	}
	return ids
}
