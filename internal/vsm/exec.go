package vsm

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
)

// phaseClock times the resolve/fetch/traverse/merge phases of one
// query. Disabled (the common case without telemetry) it costs one
// predictable branch per mark and no time.Now calls; enabled it is
// ~5 monotonic clock reads per query, well under the instrumentation
// budget the benchmarks gate. It lives in the pooled queryState so
// enabling tracing allocates nothing.
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

// ExecMode selects the query-execution strategy. It is an in-process
// selector (Request.Mode): no flag, config field, HTTP field or wire
// field carries it, and deployed processes always run ExecAuto. The two
// explicit modes exist so tests and benchmarks can name the strategy
// they compare against.
type ExecMode int

const (
	// ExecAuto (the default) lets the engine pick (see effectiveMode):
	// the exhaustive scorer when the source carries no max-impact
	// metadata or the retrieval is near-full (4k ≥ N), otherwise
	// MaxScore under BM25 and the exhaustive scorer under cosine. Both
	// strategies return identical results.
	ExecAuto ExecMode = iota
	// ExecMaxScore runs document-at-a-time traversal with MaxScore
	// top-k pruning: postings lists whose maximum possible contribution
	// cannot lift a document over the current k-th best score are
	// consulted only via SeekGE, and candidates are abandoned as soon
	// as their score bound falls under the threshold. Results are
	// identical to ExecExhaustive. Requires an ImpactSource; engines
	// over plain sources quietly fall back to the exhaustive path.
	ExecMaxScore
	// ExecExhaustive scores every matching document with the flat scan
	// (flatScan) — the reference oracle the pruned path is
	// property-tested against, and the right mode when k approaches the
	// collection size.
	ExecExhaustive
)

// String implements fmt.Stringer.
func (m ExecMode) String() string {
	switch m {
	case ExecAuto:
		return "auto"
	case ExecMaxScore:
		return "maxscore"
	case ExecExhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("ExecMode(%d)", int(m))
	}
}

// ImpactSource is the optional Source extension that fuels MaxScore
// pruning: per-term upper bounds on any single document's score
// contribution. *index.Index implements it natively (computed by Build,
// persisted by the codec); live shards maintain it incrementally.
type ImpactSource interface {
	// MaxTF is the largest term frequency in the term's postings.
	MaxTF(id textproc.TermID) int32
	// MaxCosImpact bounds the lnc cosine partial (1+ln tf)/‖d‖.
	MaxCosImpact(id textproc.TermID) float64
	// MaxBM25Impact bounds the BM25 tf-saturation factor for any
	// document length (see index.BM25TFBound).
	MaxBM25Impact(id textproc.TermID) float64
}

// ExecStats counts the work one query performed; returned in every
// Response to measure pruning effectiveness. All counters are per-call
// (the engine never retains them). The JSON form is what the HTTP
// server's search responses carry.
type ExecStats struct {
	// DocsScored is the number of documents scored: under the flat scan
	// every matching document the filter kept (its sum is complete
	// whether or not the sweep then had to normalize it), under MaxScore
	// the candidates that were not abandoned on a bound.
	DocsScored int `json:"docs_scored"`
	// DocsPruned is the number of candidate documents MaxScore
	// abandoned on a bound check before fully scoring them.
	DocsPruned int `json:"docs_pruned,omitempty"`
	// DocsFiltered is the number of matching documents the keep
	// predicate (tombstones) rejected: the flat scan asks once per
	// document a query term occurs in, MaxScore once per candidate.
	DocsFiltered int `json:"docs_filtered,omitempty"`
	// Postings is the number of postings visited by the exhaustive
	// path (0 under MaxScore, which touches lists lazily).
	Postings int `json:"postings,omitempty"`
	// SeekProbes is the total number of document comparisons the
	// query's iterators made under SeekGE — the traversal cost MaxScore
	// pays for skipping instead of scanning.
	SeekProbes int `json:"seek_probes,omitempty"`
	// BlocksDecoded is how many compressed postings blocks were
	// actually decoded; blocks passed over by seeks never decode, so
	// this against Postings/index.BlockSize shows the decode work
	// pruning saved. 0 over uncompressed sources.
	BlocksDecoded int `json:"blocks_decoded,omitempty"`
}

// Add accumulates other into s (used by segmented fan-out).
func (s *ExecStats) Add(other ExecStats) {
	s.DocsScored += other.DocsScored
	s.DocsPruned += other.DocsPruned
	s.DocsFiltered += other.DocsFiltered
	s.Postings += other.Postings
	s.SeekProbes += other.SeekProbes
	s.BlocksDecoded += other.BlocksDecoded
}

// harvestIterStats folds each iterator's cumulative seek-probe and
// block-decode counters into stats, once at the end of an execution
// loop (the counters reset when the pooled iterators are repositioned
// for the next query).
func harvestIterStats(its []index.Iterator, stats *ExecStats) {
	if stats == nil {
		return
	}
	for i := range its {
		stats.SeekProbes += its[i].SeekProbes()
		stats.BlocksDecoded += its[i].BlocksDecoded()
	}
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
// TermID — the canonical accumulation order both execution paths share
// so their floating-point scores agree bit-for-bit.
type qterm struct {
	id   textproc.TermID
	wire int32   // index of the term's first occurrence in the request bag
	qtf  int     // query-side term frequency
	w    float64 // query weight: cosine (1+ln qtf)·idf, BM25 idf
	ub   float64 // max contribution of this term to any final score
}

// queryState is the pooled per-query scratch space: the resolved term
// bag, the flat scan's dense accumulator, the top-k heap, and the
// MaxScore ordering buffers. One queryState serves one query at a time;
// engines keep them in a sync.Pool.
type queryState struct {
	terms []qterm
	// its holds one postings iterator per resolved term for MaxScore,
	// parallel to terms. It lives outside qterm because an iterator
	// carries its own block-decode buffer (~1 KiB): keeping terms small
	// keeps their sort and dedup cheap, while the buffers still come from
	// the pool, not the heap. (The flat scan's iterators belong to its
	// union plan.)
	its []index.Iterator
	// score is the flat scan's accumulator, indexed by local doc ID, and
	// reached lists the documents a scan has added to, each once, in the
	// order of their first contributions. Pool invariant: between
	// queries every score is zero and the list empty. A scan adds into
	// the zeros and its sweep zeroes what it reads, so no query clears
	// the array or versions its entries, and a short query on a large
	// index visits the documents it reached and nothing else.
	score   []float64
	reached []corpus.DocID
	// unswept is set from the moment a flat scan may have written score
	// until its sweep has finished; putState drops a state released in
	// between (a cancelled scan, a panicking keep filter) rather than
	// pooling an accumulator that breaks the invariant.
	unswept bool
	heap    resultHeap
	ord     []int          // MaxScore: term indexes by ascending ub
	prefix  []float64      // MaxScore: prefix sums of ub
	docs    []corpus.DocID // MaxScore: cached current doc per list
	contrib []float64      // per-term raw contribution of the current candidate
	avgLen  float64        // BM25: collection average length, read once per query
	// clock times the query's phases when telemetry or an inline trace
	// is requested; effMode records the execution strategy actually
	// chosen (after ExecAuto resolution) for labeling.
	clock   phaseClock
	effMode ExecMode
}

// iterSlots returns n pooled iterator slots (contents unspecified; the
// caller assigns every slot it uses).
func (qs *queryState) iterSlots(n int) []index.Iterator {
	if cap(qs.its) < n {
		qs.its = make([]index.Iterator, n)
	}
	return qs.its[:n]
}

// reset prepares the state for a new query. The accumulator needs
// nothing: it is all zero whenever the state is in the pool.
func (qs *queryState) reset() {
	qs.terms = qs.terms[:0]
	qs.heap = qs.heap[:0]
	qs.ord = qs.ord[:0]
	qs.prefix = qs.prefix[:0]
	qs.docs = qs.docs[:0]
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

// resolveTerms builds the deduplicated, TermID-sorted term bag in
// qs.terms. Returns false when no query term is in the dictionary.
func (e *Engine) resolveTerms(qs *queryState, terms []string) bool {
	vocab := e.src.Vocab()
	for i, term := range terms {
		id := vocab.ID(term)
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

// weighTerms fills per-term query weights and (when impacts are
// available) contribution upper bounds. Returns the cosine query norm
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
			if e.impacts != nil {
				t.ub = t.w * e.impacts.MaxBM25Impact(t.id)
			}
		}
		return 1
	default: // Cosine
		qnorm := 0.0
		for i := range qs.terms {
			t := &qs.terms[i]
			t.w = (1 + math.Log(float64(t.qtf))) * e.src.IDF(t.id)
			qnorm += t.w * t.w
		}
		qnorm = math.Sqrt(qnorm)
		if qnorm == 0 {
			return 0
		}
		if e.impacts != nil {
			for i := range qs.terms {
				t := &qs.terms[i]
				t.ub = t.w * e.impacts.MaxCosImpact(t.id) / qnorm
			}
		}
		return qnorm
	}
}

// weighTermsGlobal is weighTerms with the collection statistics (N,
// df, avgdl) replaced by cluster-merged values from a router. Postings,
// norms and impact bounds stay shard-local; only the query-side weights
// change, so every shard of a scatter-gather cycle scores exactly as a
// single index over the whole cluster would. terms is the wire-order
// request bag that g.DF aligns with.
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
			if e.impacts != nil {
				t.ub = t.w * e.impacts.MaxBM25Impact(t.id)
			}
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
			qnorm += w * w
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
			if e.impacts != nil {
				t.ub = t.w * e.impacts.MaxCosImpact(t.id) / qnorm
			}
		}
		return qnorm
	}
}

// cancelStride is how many postings (exhaustive) or candidates
// (pruned modes) are processed between context polls — a few blocks'
// worth of work, so cancellation lands between blocks without a
// channel read in the per-posting hot path.
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

// impact is the query-independent factor of one posting's
// contribution: the lnc document weight 1+ln(tf) for cosine, the BM25
// tf-saturation factor for BM25. A posting adds the per-query term
// weight times this to its document's score; every execution path
// accumulates exactly that product in exactly TermID order, which is
// what makes their floating-point results identical. MaxScore calls it
// per candidate posting; the flat scan evaluates the same two
// expressions a block at a time (flatScan), once for every cycle member
// containing the term.
func (e *Engine) impact(avgLen float64, tf int32, d corpus.DocID) float64 {
	if e.scoring == BM25 {
		ftf := float64(tf)
		dl := float64(e.src.DocLen(d))
		denom := ftf + bm25K1*(1-bm25B+bm25B*dl/avgLen)
		return ftf * (bm25K1 + 1) / denom
	}
	return docWeight(tf)
}

// finalizeScore applies the per-document normalization (cosine) and
// the static prior, in the same operation order for both paths.
func (e *Engine) finalizeScore(raw float64, d corpus.DocID, qnorm float64) float64 {
	s := raw
	if e.scoring != BM25 {
		if n := e.norm(d); n > 0 {
			s /= n * qnorm
		}
	}
	if e.prior != nil && int(d) < len(e.prior) {
		s *= e.prior[d]
	}
	return s
}

// searchMaxScore is the document-at-a-time MaxScore loop. Terms are
// ordered by ascending contribution bound; the lists whose prefix sum
// of bounds cannot reach the current k-th best score become
// non-essential and are consulted only by SeekGE for documents the
// essential lists surface. Candidates are abandoned mid-evaluation
// once their partial score plus the remaining bounds drops to or under
// the threshold — safe on ties because traversal is in ascending doc
// order and the ranking prefers smaller IDs at equal scores. The
// context is polled every few hundred candidates.
func (e *Engine) searchMaxScore(ctx context.Context, qs *queryState, k int, qnorm float64, keep func(corpus.DocID) bool, stats *ExecStats) ([]Result, error) {
	done := ctx.Done()
	rounds := 0
	n := len(qs.terms)
	theta := math.Inf(-1)
	its := qs.iterSlots(n)
	// curDocs caches each list's current document (drained sentinel
	// when exhausted) so the per-candidate scans touch one compact
	// array instead of striding across the iterators' decode buffers.
	const drained = corpus.DocID(math.MaxInt32)
	curDocs := qs.docs[:0]
	for i := range qs.terms {
		e.src.IterInto(qs.terms[i].id, &its[i])
		qs.ord = append(qs.ord, i)
		if its[i].Valid() {
			curDocs = append(curDocs, its[i].Doc())
		} else {
			curDocs = append(curDocs, drained)
		}
	}
	qs.docs = curDocs
	if cap(qs.contrib) < n {
		qs.contrib = make([]float64, n)
	} else {
		qs.contrib = qs.contrib[:n]
	}
	ord := qs.ord
	// Insertion sort by ascending bound (ties by TermID): allocation-
	// free, and n is the query's distinct term count.
	ubLess := func(a, b int) bool {
		ta, tb := &qs.terms[a], &qs.terms[b]
		if ta.ub != tb.ub {
			return ta.ub < tb.ub
		}
		return ta.id < tb.id
	}
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && ubLess(ord[j], ord[j-1]); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	sum := 0.0
	for _, i := range ord {
		sum += qs.terms[i].ub
		qs.prefix = append(qs.prefix, sum)
	}
	qs.clock.mark(&qs.clock.fetch)

	first := 0 // ord[first:] are the essential lists
	for first < n {
		if rounds++; rounds&255 == 1 && canceled(done) {
			return nil, ctx.Err()
		}
		// Pick the next candidate: the smallest current doc among the
		// essential iterators.
		cand := drained
		for _, i := range ord[first:] {
			if curDocs[i] < cand {
				cand = curDocs[i]
			}
		}
		if cand == drained {
			break
		}
		if keep != nil && !keep(cand) {
			if stats != nil {
				stats.DocsFiltered++
			}
			for _, i := range ord[first:] {
				if curDocs[i] == cand {
					if its[i].Next() {
						curDocs[i] = its[i].Doc()
					} else {
						curDocs[i] = drained
					}
				}
			}
			continue
		}
		// Score the essential lists at the candidate. Contributions are
		// kept per term in raw units for the canonical final sum; bound
		// checks stay in raw units too, scaling the threshold by the
		// candidate's normalization denominator instead of dividing
		// every partial — a multiplication per check, not a division
		// per candidate.
		for i := 0; i < n; i++ {
			qs.contrib[i] = 0
		}
		den := 1.0
		if e.scoring != BM25 {
			if nd := e.norm(cand); nd > 0 {
				den = nd * qnorm
			}
		}
		partial := 0.0
		for _, i := range ord[first:] {
			if curDocs[i] == cand {
				it := &its[i]
				raw := qs.terms[i].w * e.impact(qs.avgLen, it.TF(), cand)
				qs.contrib[i] = raw
				partial += raw
				if it.Next() {
					curDocs[i] = it.Doc()
				} else {
					curDocs[i] = drained
				}
			}
		}
		// Non-essential lists, strongest bound first: stop as soon as
		// the candidate can no longer reach the threshold. In raw
		// units: partial/den + prefix[j] <= θ  ⟺  partial <= (θ −
		// prefix[j])·den (den > 0).
		pruned := false
		for j := first - 1; j >= 0; j-- {
			if partial <= (theta-qs.prefix[j])*den {
				pruned = true
				break
			}
			it := &its[ord[j]]
			if it.SeekGE(cand) {
				curDocs[ord[j]] = it.Doc()
				if it.Doc() == cand {
					raw := qs.terms[ord[j]].w * e.impact(qs.avgLen, it.TF(), cand)
					qs.contrib[ord[j]] = raw
					partial += raw
				}
			} else {
				curDocs[ord[j]] = drained
			}
		}
		if pruned {
			if stats != nil {
				stats.DocsPruned++
			}
			continue
		}
		if stats != nil {
			stats.DocsScored++
		}
		// Canonical final score: sum the raw contributions in TermID
		// order (absent terms add +0.0, which is exact), then normalize
		// — bit-identical to the exhaustive accumulator.
		raw := 0.0
		for i := 0; i < n; i++ {
			raw += qs.contrib[i]
		}
		s := e.finalizeScore(raw, cand, qnorm)
		pushTopK(&qs.heap, k, Result{Doc: cand, Score: s})
		if len(qs.heap) == k {
			if nt := qs.heap[0].Score; nt > theta {
				theta = nt
				for first < n && qs.prefix[first] <= theta {
					first++
				}
			}
		}
	}
	harvestIterStats(its, stats)
	qs.clock.mark(&qs.clock.traverse)
	res := drainTopK(&qs.heap)
	qs.clock.mark(&qs.clock.merge)
	return res, nil
}
