// Package vsm implements the similarity search engine of the paper's
// system model (§III-A): vector-space-model retrieval over the inverted
// index, returning the documents most similar to a bag-of-words query.
// Two scoring functions are provided — tf-idf cosine (the classical VSM
// of Baeza-Yates & Ribeiro-Neto, the paper's reference [7]) and Okapi
// BM25 — selected per Engine.
//
// Query execution has one strategy, the flat scan: a term-at-a-time
// scorer that adds every posting of every query term into a dense
// accumulator and then sweeps the documents it reached into a top-k
// heap. It is one kernel (flatScan) that a cycle's members run together
// — each distinct postings block decoded and weighed once for all of
// them — and a solo query runs as a cycle of one. Inside it, one fixed
// rule (denseRule) picks how a member finds the documents it reached in
// a part: a member whose lists hold as many postings as the document
// range they span — a ghost query of common words — sweeps that range
// in document order, and any other keeps a list of the documents it
// reached. Contributions are accumulated in one canonical term order,
// whichever way, so a query's results —
// documents, ranks, and floating-point scores — are the same alone and
// inside any cycle. README "Why there is one strategy" has the
// measurements behind the choice.
//
// TopPriv deliberately requires no changes to this engine; the privacy
// machinery lives entirely client-side.
package vsm

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
)

// Scoring selects the document-scoring function.
type Scoring int

const (
	// Cosine is lnc.ltc tf-idf cosine similarity (default).
	Cosine Scoring = iota
	// BM25 is Okapi BM25 with k1 = 1.2, b = 0.75.
	BM25
)

// String implements fmt.Stringer.
func (s Scoring) String() string {
	switch s {
	case Cosine:
		return "cosine"
	case BM25:
		return "bm25"
	default:
		return fmt.Sprintf("Scoring(%d)", int(s))
	}
}

// Okapi BM25 parameters.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Result is one retrieved document with its similarity score.
type Result struct {
	Doc   corpus.DocID
	Score float64
}

// Source is what the engine knows of the collection it scores over: the
// dictionary queries resolve against, the statistics they are weighed
// with (N, df, avgdl; idf is derived from them), and the parts that hold
// the postings. An index is a collection of one part (NewEngine). A live
// segmented store is a collection whose parts — sealed segments and a
// memtable — come and go while its statistics span them all and exclude
// tombstoned documents: a query term weighs the same in every part, even
// one that has never seen it, which is what makes scanning part by part
// add up to exactly the single-index result.
type Source interface {
	// Vocab is the dictionary, the same one for the source's life: it
	// may grow, but an ID once given keeps its term (the engine's token
	// memo relies on it).
	Vocab() *textproc.Vocab
	NumDocs() int
	// DocFreq is the number of documents containing the term.
	DocFreq(id textproc.TermID) int
	AvgDocLen() float64
	// AppendParts appends the parts a query starting now scans, in the
	// order it scans them. The engine reads the source and the parts
	// without locking, for the length of one query: whoever runs the
	// query keeps writers out that long (a store holds its read lock).
	AppendParts(dst []Part) []Part
}

// Postings is a part's postings and document lengths, addressed by
// part-local document ID. *index.Index satisfies it with
// decode-on-traversal cursors over block-compressed lists, a memtable
// with plain slice cursors; the scan walks both through the same
// iterator without materializing []Posting. Implementations are
// pointers: the BM25 length cache tells parts apart by comparing them.
type Postings interface {
	// IterInto repositions it over the term's postings, on the first
	// posting (exhausted for absent terms). In-place so pooled
	// iterators — which embed a block-decode buffer — are never
	// cleared or copied on the query path.
	IterInto(id textproc.TermID, it *index.Iterator)
	// DocLen is the analyzed token count of document d. A part whose
	// document set grows must keep the length of a document it has
	// handed out postings for fixed: the BM25 flat scan caches the
	// length normalization it derives from it.
	DocLen(d corpus.DocID) int
}

// Part is one slice of a collection, scanned in turn with the others
// into the same top-k heaps. Everything is indexed by part-local
// document ID.
type Part struct {
	Postings
	// Norms holds the documents' lnc vector norms (DocNorms, or kept up
	// as documents arrive); a document past its end has none. Read under
	// cosine only.
	Norms []float64
	// IDs maps local IDs, in ascending order, to the IDs hits are
	// reported (and the caller's Keep is asked) under; nil means a
	// document's local ID is its ID.
	IDs []corpus.DocID
	// Dead marks documents no query may return; nil means none.
	Dead []bool
}

// whole presents an index as a Source: a collection of the one part,
// whose documents go by their own IDs.
type whole struct {
	*index.Index
	norms []float64
}

func (w whole) AppendParts(dst []Part) []Part {
	return append(dst, Part{Postings: w.Index, Norms: w.norms})
}

// Engine executes similarity queries against a Source. Built over a
// static index it is safe for concurrent use (what it learns, its token
// memo, is guarded by a lock of its own); built over a live source its
// safety follows the source's locking discipline.
type Engine struct {
	src     Source
	idx     *index.Index // non-nil when built over a concrete index
	an      *textproc.Analyzer
	scoring Scoring
	// memo resolves the members that carry Query text against the
	// source's dictionary, analyzing each distinct token once per
	// process.
	memo *textproc.TermMemo
	// states pools per-query scratch (term bags, flat accumulators,
	// heaps) across queries and goroutines.
	states sync.Pool
	// batches pools the flat scan's scratch (the member table, the
	// term-union plan with its iterators, the BM25 length caches) across
	// batches, a solo query's batch of one included.
	batches sync.Pool
	// metrics, when non-nil, carries the pre-resolved telemetry handles
	// every query updates (see EnableMetrics). Set before serving.
	metrics *engineMetrics
	// density is byRule outside tests (export_test.go).
	density density
}

// NewEngine builds a search engine over idx. The analyzer must be the
// one the corpus was built with so query terms normalize identically.
func NewEngine(idx *index.Index, an *textproc.Analyzer, scoring Scoring) (*Engine, error) {
	if idx == nil {
		return nil, fmt.Errorf("vsm: nil index")
	}
	src := whole{Index: idx}
	if scoring == Cosine {
		src.norms = DocNorms(idx)
	}
	e, err := NewEngineOver(src, an, scoring)
	if err != nil {
		return nil, err
	}
	e.idx = idx
	return e, nil
}

// NewEngineOver builds an engine over any Source.
func NewEngineOver(src Source, an *textproc.Analyzer, scoring Scoring) (*Engine, error) {
	if src == nil {
		return nil, fmt.Errorf("vsm: nil source")
	}
	if an == nil {
		an = textproc.NewAnalyzer()
	}
	e := &Engine{src: src, an: an, memo: textproc.NewTermMemo(an, src.Vocab()), scoring: scoring}
	e.states.New = func() interface{} { return &queryState{} }
	e.batches.New = func() interface{} { return newBatchState() }
	return e, nil
}

// DocNorms accumulates, per document, the L2 norm of its lnc weight
// vector: weight = 1 + ln(tf), squares summed in ascending term order.
// Exported so live stores can compute a loaded segment's norms once;
// a store sealing or merging a segment carries norms over instead, which
// are the same bits. One block-at-a-time pass over the postings, no list
// materialized; the result has one norm per document, 0 for a document
// with no term.
func DocNorms(idx *index.Index) []float64 {
	norms := make([]float64, idx.NumDocs())
	var it index.Iterator
	for id := 0; id < idx.NumTerms(); id++ {
		for idx.IterInto(textproc.TermID(id), &it); it.Valid(); it.NextWindow() {
			docs, tfs := it.Window()
			for i, d := range docs {
				w := 1 + math.Log(float64(tfs[i]))
				// Rounded before it is added, so no architecture
				// fuses the two.
				norms[d] += float64(w * w)
			}
		}
	}
	for d := range norms {
		norms[d] = math.Sqrt(norms[d])
	}
	return norms
}

// Index exposes the underlying index when the engine was built over a
// concrete *index.Index (nil for engines over other sources).
func (e *Engine) Index() *index.Index { return e.idx }

// ComputeStats summarizes the underlying index. Engines built over
// non-index sources return zero stats.
func (e *Engine) ComputeStats() index.Stats {
	if e.idx == nil {
		return index.Stats{}
	}
	return e.idx.ComputeStats()
}

// Analyzer exposes the engine's analyzer.
func (e *Engine) Analyzer() *textproc.Analyzer { return e.an }

// SearchRequest executes one structured request — a batch of one: it
// runs the path SearchBatch runs, over a single member. Hits are the
// ranked top K (descending score, ascending DocID on ties; none for an
// empty or fully-stopworded query) and come with the execution
// counters. The context cancels mid-execution between postings blocks.
func (e *Engine) SearchRequest(ctx context.Context, req Request) (Response, error) {
	if err := req.Validate(); err != nil {
		return Response{}, err
	}
	// The response slot lives in this frame: a solo query allocates its
	// hits and nothing else.
	var resp [1]Response
	if err := e.runBatch(ctx, []Request{req}, resp[:]); err != nil {
		return Response{}, err
	}
	return resp[0], nil
}

// resultHeap is a min-heap over scores (ties: larger DocID is "worse"
// so that smaller DocIDs win final ranking). The sift operations are
// hand-rolled rather than container/heap so pushing a Result never
// boxes it into an interface — the hot path stays allocation-free.
type resultHeap []Result

// worseThan reports whether a ranks strictly below b in the final
// ordering (lower score, or equal score with larger DocID).
func worseThan(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

func siftUp(h []Result, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worseThan(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []Result, i int) {
	n := len(h)
	for {
		m := i
		if l := 2*i + 1; l < n && worseThan(h[l], h[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && worseThan(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pushTopK offers one result to a size-k min-heap: below capacity it
// always enters; at capacity it replaces the current worst only when
// strictly better (ties prefer the smaller document ID).
func pushTopK(h *resultHeap, k int, r Result) {
	hs := *h
	if len(hs) < k {
		hs = append(hs, r)
		siftUp(hs, len(hs)-1)
		*h = hs
		return
	}
	if worseThan(hs[0], r) {
		hs[0] = r
		siftDown(hs, 0)
	}
}

// drainTopK copies the heap into a freshly allocated result slice,
// sorted best-first — descending score, ascending DocID on ties, the
// rule every ranked surface in the system shares (the heap itself is
// pooled scratch and must not escape).
func drainTopK(h *resultHeap) []Result {
	out := make([]Result, len(*h))
	copy(out, *h)
	slices.SortFunc(out, func(a, b Result) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
	return out
}
