package vsm

import (
	"math"
	"slices"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// phaseClock times the resolve/fetch/traverse/merge phases of one
// scan. Disabled (the common case without telemetry) it costs one
// predictable branch per mark and no time.Now calls; enabled it is
// ~7 monotonic clock reads per query, well under the instrumentation
// budget the benchmarks gate. It lives in runBatch's frame, so enabling
// tracing allocates nothing.
type phaseClock struct {
	enabled                         bool
	began                           time.Time
	last                            time.Time
	resolve, fetch, traverse, merge int64
}

// start zeroes the phase accumulators and opens the first phase.
func (pc *phaseClock) start() {
	pc.resolve, pc.fetch, pc.traverse, pc.merge = 0, 0, 0, 0
	if pc.enabled {
		pc.began = time.Now()
		pc.last = pc.began
	}
}

// mark closes the current phase into d and opens the next.
func (pc *phaseClock) mark(d *int64) {
	if !pc.enabled {
		return
	}
	now := time.Now()
	*d += now.Sub(pc.last).Nanoseconds()
	pc.last = now
}

// total is the wall time since start; it can slightly exceed the phase
// sum (inter-phase bookkeeping runs off the clock).
func (pc *phaseClock) total() int64 {
	if !pc.enabled {
		return 0
	}
	return time.Since(pc.began).Nanoseconds()
}

// ExecStats counts the work one query performed; returned in every
// Response. All counters are per-call (the engine never retains them).
// The JSON form is what the HTTP server's search responses carry.
type ExecStats struct {
	// DocsScored is the number of documents scored: every matching
	// document the filter kept (its sum is complete whether or not the
	// sweep then had to normalize it).
	DocsScored int `json:"docs_scored"`
	// DocsPruned is always zero: the flat scan abandons no candidate.
	// The field stays because the system benchmark (bench/trace.go,
	// vsm.docs_pruned_per_cycle) reads it and is changed only by
	// benchmark-only PRs; it goes with that row.
	DocsPruned int `json:"docs_pruned,omitempty"`
	// DocsFiltered is the number of matching documents a part's
	// tombstones or the keep predicate rejected, asked once per document
	// a query term occurs in.
	DocsFiltered int `json:"docs_filtered,omitempty"`
	// Postings is the number of postings visited.
	Postings int `json:"postings,omitempty"`
	// BlocksDecoded is how many compressed postings blocks were decoded.
	// 0 over uncompressed postings (a memtable's).
	BlocksDecoded int `json:"blocks_decoded,omitempty"`
}

// Add accumulates other into s.
func (s *ExecStats) Add(other ExecStats) {
	s.DocsScored += other.DocsScored
	s.DocsFiltered += other.DocsFiltered
	s.Postings += other.Postings
	s.BlocksDecoded += other.BlocksDecoded
}

// lnTFTable caches the lnc document weight 1+ln(tf) for small term
// frequencies — the overwhelmingly common case — so the per-posting
// hot path avoids a math.Log call. Entries equal the direct
// computation bit-for-bit (math.Log is deterministic), so cached and
// uncached paths score identically.
var lnTFTable = func() [64]float64 {
	var t [64]float64
	for i := range t {
		t[i] = 1 + math.Log(float64(i))
	}
	return t
}()

// docWeight returns the lnc document weight 1+ln(tf).
func docWeight(tf int32) float64 {
	if uint32(tf) < uint32(len(lnTFTable)) {
		return lnTFTable[tf]
	}
	return 1 + math.Log(float64(tf))
}

// qterm is one resolved query term. Terms are kept sorted by ascending
// TermID — the canonical accumulation order, which is what makes a
// member's floating-point scores the same alone and inside any cycle.
type qterm struct {
	id   textproc.TermID
	wire int32   // index of the term's first occurrence in the request bag
	qtf  int     // query-side term frequency
	w    float64 // query weight: cosine (1+ln qtf)·idf, BM25 idf
}

// queryState is the pooled per-query scratch space: the resolved term
// bag, the flat scan's dense accumulator and the top-k heap. One
// queryState serves one query at a time; engines keep them in a
// sync.Pool. (The scan's iterators belong to its union plan.)
type queryState struct {
	terms []qterm
	// score is the flat scan's accumulator, indexed by local doc ID, and
	// reached lists the documents a sparse member's scan has added to,
	// each once, in the order of their first contributions; a dense
	// member keeps no list (see denseRule). Pool invariant: between
	// queries every score is zero and the list empty. A scan adds into
	// the zeros and its sweep zeroes what it reads — the listed
	// documents one by one, or a dense member's range whole — so no
	// query clears the whole array or versions its entries, and a short
	// query on a large index visits the documents it reached and nothing
	// else.
	score   []float64
	reached []corpus.DocID
	// unswept is set from the moment a flat scan may have written score
	// until its sweep has finished; putState drops a state released in
	// between (a cancelled scan, a panicking keep filter) rather than
	// pooling an accumulator that breaks the invariant.
	unswept bool
	heap    resultHeap
	avgLen  float64 // BM25: collection average length, read once per query
}

// reset prepares the state for a new query. The accumulator needs
// nothing: it is all zero whenever the state is in the pool.
func (qs *queryState) reset() {
	qs.terms = qs.terms[:0]
	qs.heap = qs.heap[:0]
}

// ensureDoc grows the accumulator to cover local doc ID d. Only called
// before a scan writes, when every score is zero, so growing never
// copies.
func (qs *queryState) ensureDoc(d corpus.DocID) {
	if need := int(d) + 1; need > len(qs.score) {
		qs.score = make([]float64, need+need/2)
	}
}

// putState returns a query state to the pool — unless a flat scan left
// its accumulator unswept, in which case the state is dropped and the
// pool allocates a clean one when it next runs short.
func (e *Engine) putState(qs *queryState) {
	if !qs.unswept {
		e.states.Put(qs)
	}
}

// termIDs appends the dictionary ID of each of req's terms to dst, in
// request order, InvalidTerm for a term the dictionary lacks: Terms
// looked up one by one, Query text through the engine's token memo
// (the IDs of Vocab.ID over Analyze(Query), either way).
func (e *Engine) termIDs(dst []textproc.TermID, req *Request) []textproc.TermID {
	if req.Terms == nil {
		return e.memo.AppendIDs(dst, req.Query)
	}
	vocab := e.src.Vocab()
	for _, term := range req.Terms {
		dst = append(dst, vocab.ID(term))
	}
	return dst
}

// resolve builds the deduplicated, TermID-sorted term bag in qs.terms
// from a request's term IDs (termIDs). Returns false when no query term
// is in the dictionary.
func (qs *queryState) resolve(ids []textproc.TermID) bool {
	for i, id := range ids {
		if id == textproc.InvalidTerm {
			continue
		}
		qs.terms = append(qs.terms, qterm{id: id, wire: int32(i), qtf: 1})
	}
	if len(qs.terms) == 0 {
		return false
	}
	// Insertion sort by TermID: queries are a handful of terms, and
	// avoiding sort.Slice keeps the pooled path allocation-free. The
	// sort is stable, so the survivor of each duplicate run below is the
	// term's first occurrence and keeps that occurrence's wire index.
	for i := 1; i < len(qs.terms); i++ {
		for j := i; j > 0 && qs.terms[j].id < qs.terms[j-1].id; j-- {
			qs.terms[j], qs.terms[j-1] = qs.terms[j-1], qs.terms[j]
		}
	}
	// Merge duplicates in place, summing query tf.
	out := qs.terms[:1]
	for _, t := range qs.terms[1:] {
		if last := &out[len(out)-1]; last.id == t.id {
			last.qtf += t.qtf
		} else {
			out = append(out, t)
		}
	}
	qs.terms = out
	return true
}

// weighTerms fills per-term query weights. Returns the cosine query norm
// (1 for BM25). A zero return means the query matches nothing.
func (e *Engine) weighTerms(qs *queryState) float64 {
	switch e.scoring {
	case BM25:
		n := float64(e.src.NumDocs())
		qs.avgLen = e.src.AvgDocLen()
		for i := range qs.terms {
			t := &qs.terms[i]
			df := float64(e.src.DocFreq(t.id))
			if df == 0 {
				t.w = 0
				continue
			}
			t.w = math.Log(1 + (n-df+0.5)/(df+0.5))
		}
		return 1
	default: // Cosine
		n := float64(e.src.NumDocs())
		qnorm := 0.0
		for i := range qs.terms {
			t := &qs.terms[i]
			// Smoothed idf ln(1 + N/df); 0 for a term no live document
			// holds.
			idf := 0.0
			if df := e.src.DocFreq(t.id); df != 0 {
				idf = math.Log(1 + n/float64(df))
			}
			t.w = (1 + math.Log(float64(t.qtf))) * idf
			qnorm += float64(t.w * t.w) // rounded first: never fused
		}
		return math.Sqrt(qnorm)
	}
}

// weighTermsGlobal is weighTerms with the collection statistics (N,
// df, avgdl) replaced by cluster-merged values from a router. Postings
// and norms stay shard-local; only the query-side weights change, so
// every shard of a scatter-gather cycle scores exactly as a single index
// over the whole cluster would. terms is the wire-order request bag that
// g.DF aligns with.
//
// The cosine query norm is computed over the wire-order bag — including
// terms this shard's dictionary lacks but other shards hold — so all
// shards derive the same norm from the same inputs in the same order.
func (e *Engine) weighTermsGlobal(qs *queryState, terms []string, g *GlobalStats) float64 {
	n := float64(g.Docs)
	// A repeated term repeats its df, so each resolved term reads the
	// merged df at its first occurrence in the wire bag (qterm.wire).
	switch e.scoring {
	case BM25:
		if g.Docs == 0 {
			return 0
		}
		qs.avgLen = float64(g.TotalLen) / float64(g.Docs)
		for i := range qs.terms {
			t := &qs.terms[i]
			df := float64(g.DF[t.wire])
			if df == 0 {
				t.w = 0
				continue
			}
			t.w = math.Log(1 + (n-df+0.5)/(df+0.5))
		}
		return 1
	default: // Cosine
		// Wire-order norm: dedup by term string in first-occurrence
		// order, qtf = occurrence count, weight from the merged df. This
		// mirrors what a single engine computes over its resolved bag up
		// to summation order. The bag is a query's worth of terms, so the
		// dedup is a scan of the prefix rather than a map.
		qnorm := 0.0
		for i, term := range terms {
			df := g.DF[i]
			if df == 0 || slices.Contains(terms[:i], term) {
				continue
			}
			qtf := 0
			for _, t2 := range terms[i:] {
				if t2 == term {
					qtf++
				}
			}
			w := (1 + math.Log(float64(qtf))) * math.Log(1+n/float64(df))
			qnorm += float64(w * w) // rounded first: never fused
		}
		qnorm = math.Sqrt(qnorm)
		if qnorm == 0 {
			return 0
		}
		for i := range qs.terms {
			t := &qs.terms[i]
			df := g.DF[t.wire]
			if df == 0 {
				t.w = 0
				continue
			}
			t.w = (1 + math.Log(float64(t.qtf))) * math.Log(1+n/float64(df))
		}
		return qnorm
	}
}

// cancelStride is how many postings are processed between context
// polls — a few blocks' worth of work, so cancellation lands between
// blocks without a channel read in the per-posting hot path.
const cancelStride = 4096

// canceled polls a context's done channel. A nil channel (background
// context) costs one predictable branch.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// finalizeScore applies the per-document normalization (cosine, by the
// part's norms; a document without one is left as it is).
func (e *Engine) finalizeScore(raw float64, d corpus.DocID, norms []float64, qnorm float64) float64 {
	s := raw
	if e.scoring != BM25 && int(d) < len(norms) {
		if n := norms[d]; n > 0 {
			s /= n * qnorm
		}
	}
	return s
}
