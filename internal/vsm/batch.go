// The flat scan: the engine's one term-at-a-time kernel. A cycle of υ
// queries and a query on its own run the same two loops — flatScan
// accumulates, sweep finalizes — the solo query as a one-member cycle.
// SearchBatch and runBatch, the one query path that feeds the kernel,
// are here too.

package vsm

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/telemetry"
	"toppriv/internal/textproc"
)

// batchMember is one request's resolved execution state inside a
// batch.
type batchMember struct {
	qs    *queryState
	qnorm float64
	k     int
	keep  func(corpus.DocID) bool
	// stats is the flat scan's work on this member's behalf; the caller
	// copies it out.
	stats ExecStats
	// live is false when the member resolved to nothing (no indexable
	// terms, or zero query norm) and owns no pooled state.
	live bool
}

// batchRef fans one distinct term out to a member containing it, with
// the member's query-side weight for that term.
type batchRef struct {
	id     textproc.TermID
	member int
	w      float64
}

// unionTerm is one distinct term across the batch with the slice of
// members containing it and its postings iterator, repositioned over
// each part in turn — each distinct list of each part is decoded exactly
// one time for the whole batch.
type unionTerm struct {
	id       textproc.TermID
	it       index.Iterator
	from, to int // refs[from:to]
}

// lengthCache holds one part's BM25 length normalizations
// k1·(1−b+b·dl/avgdl) by local document ID, computed under avgLen —
// documents recur in a cycle's term lists and from one scan to the next,
// and the factor is query-independent. Zero means "not computed yet"
// (the real factor is always positive). Valid for one part and one avgdl
// only — two parts hold different documents under the same local IDs —
// which is why BM25 members share by avgdl group.
type lengthCache struct {
	of     Postings
	avgLen float64
	denoms []float64
}

// batchState is the pooled per-scan scratch: the member table, the
// parts, the TermID-sorted union plan, the flattened member references,
// and the per-block impact buffer the flat scan fills once per distinct
// block.
type batchState struct {
	members []batchMember
	// pending lists the live members no scan has served yet, shared the
	// members the current flat scan serves.
	pending []int
	shared  []int
	parts   []Part
	union   []unionTerm
	refs    []batchRef
	impacts [index.BlockSize]float64
	// lengths has a cache per part, by its position among the parts: a
	// static index keeps its one, and a store's segments keep their
	// places from one query to the next until the stack is restructured.
	lengths []lengthCache
}

func newBatchState() *batchState { return &batchState{} }

// denomsFor readies the length-normalization cache of the part at
// position pi for a scan that scores with avgLen over its documents
// below n. Entries computed for another part or under another avgdl are
// dropped; the rest stay, since a document's length never changes
// (Postings.DocLen) — an engine over a static index ends up computing
// each document's factor once per pooled state, not once per scan.
func (bs *batchState) denomsFor(pi int, of Postings, avgLen float64, n int) []float64 {
	lc := &bs.lengths[pi]
	if lc.of != of || lc.avgLen != avgLen {
		clear(lc.denoms)
		lc.of, lc.avgLen = of, avgLen
	}
	if n > len(lc.denoms) {
		lc.denoms = append(lc.denoms, make([]float64, n-len(lc.denoms))...)
	}
	return lc.denoms
}

// takeParts snapshots the source's parts and lines the length caches up
// with them. Caches past the last part go: they would hold on to parts
// the source has retired.
func (bs *batchState) takeParts(src Source) {
	bs.parts = src.AppendParts(bs.parts[:0])
	n := len(bs.parts)
	if n < len(bs.lengths) {
		clear(bs.lengths[n:])
		bs.lengths = bs.lengths[:n]
	}
	for len(bs.lengths) < n {
		bs.lengths = append(bs.lengths, lengthCache{})
	}
}

// putBatch returns scan scratch to the pool, dropping its references to
// the members' states, filters and requests and to the source's parts.
func (e *Engine) putBatch(bs *batchState) {
	clear(bs.members)
	clear(bs.parts)
	e.batches.Put(bs)
}

// reset empties the member table; each scan of the batch empties its own
// plan (shared, union, refs) before it builds it.
func (bs *batchState) reset() {
	bs.members = bs.members[:0]
	bs.pending = bs.pending[:0]
}

// SearchBatch executes a batch of requests — typically the υ queries
// of one obfuscation cycle, submitted together as the paper's system
// model does (§III, Fig. 1). Terms are resolved in one pass, and the
// members are evaluated in a single cycle-at-a-time flat scan that
// decodes each distinct postings list once, computes every posting's
// query-independent impact once, and fans it out to the members
// containing the term — over each of the source's parts in turn, into
// one top-k heap per member. Members carrying a router's Global
// statistics join it like any other — a routed cycle shares on every
// shard segment exactly as it does on a single node. Under BM25 the
// members of one scan must score with one avgdl (a length cache is valid
// for one), so members that agree on avgdl scan together: one scan for a
// local batch or a routed cycle, one per avgdl for a mixed Global/local
// batch. Either way each member's hits are bit-identical to what
// SearchRequest would return for it alone; the property tests assert it.
//
// Responses align with reqs by index. The context cancels
// mid-execution between postings blocks; on cancellation the whole
// batch fails.
func (e *Engine) SearchBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return nil, fmt.Errorf("vsm: batch member %d: %w", i, err)
		}
	}
	resps := make([]Response, len(reqs))
	if err := e.runBatch(ctx, reqs, resps); err != nil {
		return nil, err
	}
	return resps, nil
}

// runBatch is the engine's one query path: resolve every member, scan
// the live ones over every part, drain their heaps, close out the
// telemetry. It answers reqs, already validated, into resps, which the
// caller hands over zeroed and of the same length. Members that resolve
// to nothing (no indexable term, zero query norm) keep nil hits and zero
// stats.
func (e *Engine) runBatch(ctx context.Context, reqs []Request, resps []Response) error {
	// pc times each scan's phases: the resolution pass (charged to the
	// first scan), the union plan and each part's fetch, the traversals
	// and the drains. Every member of a scan gets that scan's trace.
	var pc phaseClock
	pc.enabled = e.metrics != nil
	for i := range reqs {
		if reqs[i].Trace {
			pc.enabled = true
			resps[i].Trace = &telemetry.PhaseTrace{}
		}
	}
	pc.start()
	bs := e.batches.Get().(*batchState)
	bs.reset()
	defer func() {
		for i := range bs.members {
			if bs.members[i].live {
				e.putState(bs.members[i].qs)
			}
		}
		e.putBatch(bs)
	}()

	// One term-resolution pass across the batch.
	for i := range reqs {
		req := &reqs[i]
		m := batchMember{k: req.K, keep: req.Keep}
		terms := req.Terms
		if terms == nil {
			terms = e.an.Analyze(req.Query)
		}
		if len(terms) > 0 {
			qs := e.states.Get().(*queryState)
			qs.reset()
			if e.resolveTerms(qs, terms) {
				qnorm := 0.0
				if req.Global != nil {
					qnorm = e.weighTermsGlobal(qs, terms, req.Global)
				} else {
					qnorm = e.weighTerms(qs)
				}
				if qnorm != 0 {
					m.qs, m.qnorm, m.live = qs, qnorm, true
					bs.pending = append(bs.pending, i)
				}
			}
			if !m.live {
				e.states.Put(qs)
			}
		}
		bs.members = append(bs.members, m)
	}
	bs.takeParts(e.src)
	pc.mark(&pc.resolve)

	// Members that agree on avgdl (compared by bit pattern) scan
	// together; cosine has no avgdl, so all of its members do. Members of
	// one routed cycle, or of one local batch, all agree, so this
	// normally runs once.
	for pending := bs.pending; len(pending) > 0; {
		bs.shared, bs.union, bs.refs = bs.shared[:0], bs.union[:0], bs.refs[:0]
		avgLen := math.Float64bits(bs.members[pending[0]].qs.avgLen)
		rest := pending[:0]
		for _, i := range pending {
			if e.scoring != BM25 || math.Float64bits(bs.members[i].qs.avgLen) == avgLen {
				bs.shared = append(bs.shared, i)
			} else {
				rest = append(rest, i)
			}
		}
		pending = rest
		bs.buildUnion()
		for pi := range bs.parts {
			for ui := range bs.union {
				ut := &bs.union[ui]
				bs.parts[pi].IterInto(ut.id, &ut.it)
			}
			pc.mark(&pc.fetch)
			if err := e.flatScan(ctx, bs, pi); err != nil {
				return err
			}
			pc.mark(&pc.traverse)
		}
		for _, i := range bs.shared {
			resps[i].Hits = drainTopK(&bs.members[i].qs.heap)
			resps[i].Stats = bs.members[i].stats
		}
		pc.mark(&pc.merge)
		e.finishScan(&pc, bs, resps)
		// Resolution was shared and is on the scan just closed out; a
		// further scan's clock carries fetch, traverse and merge only.
		pc.start()
	}
	return nil
}

// buildUnion assembles the TermID-sorted union plan over bs.shared: one
// entry per distinct term, whose iterator the scan of each part
// repositions. Terms that carry no weight for a member are left out of
// it.
func (bs *batchState) buildUnion() {
	for _, i := range bs.shared {
		for _, t := range bs.members[i].qs.terms {
			if t.w != 0 {
				bs.refs = append(bs.refs, batchRef{id: t.id, member: i, w: t.w})
			}
		}
	}
	slices.SortFunc(bs.refs, func(a, b batchRef) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.member, b.member)
	})
	for ri := range bs.refs {
		n := len(bs.union)
		if id := bs.refs[ri].id; n == 0 || bs.union[n-1].id != id {
			// Reuse the pooled slot: its iterator (a kilobyte of decode
			// buffer) is repositioned in place, never cleared or copied.
			if n < cap(bs.union) {
				bs.union = bs.union[:n+1]
			} else {
				bs.union = append(bs.union, unionTerm{})
			}
			n++
			bs.union[n-1].id, bs.union[n-1].from = id, ri
		}
		bs.union[n-1].to = ri + 1
	}
}

// flatScan scores every posting part pi holds of every term in bs.union
// — the iterators are on that part's lists — for the members in
// bs.shared and offers the documents it reached to each member's heap;
// the caller drains the heaps after the last part.
//
// One pass over each distinct list, in ascending TermID order, a
// decoded block at a time. Per block, once: the query-independent
// impact of every posting (blockImpacts) with the scorer chosen outside
// the loop. Per member containing the term: score[d] += w·impact over
// the block (add) and nothing else — no per-document bookkeeping to
// load, no branch, no filter. The accumulators are all zero when a scan
// starts (queryState; the sweep that ends a part's scan leaves them so
// for the next), so a member's first contribution to a document
// is 0 + x and the rest follow in term order: the sequence of additions
// each score sees is the one a textbook term-at-a-time scorer makes,
// whoever else is in the cycle, which is what keeps every member's
// scores bit-identical to running alone and to the reference scorer.
// Every weight and impact is finite and positive (Request.Validate
// vouches for injected statistics), which is what lets add recognize a
// first contribution by the zero it lands on.
//
// The context is polled every cancelStride postings, between blocks. A
// scan that stops early leaves its members' accumulators unswept;
// putState keeps such a state out of the pool.
func (e *Engine) flatScan(ctx context.Context, bs *batchState, pi int) error {
	part := &bs.parts[pi]
	done := ctx.Done()
	// Size each member's accumulator off its own lists' final entries
	// (block metadata — no decoding).
	maxDoc := corpus.DocID(-1)
	for ui := range bs.union {
		ut := &bs.union[ui]
		if !ut.it.Valid() {
			continue
		}
		last := ut.it.LastDoc()
		maxDoc = max(maxDoc, last)
		for _, rf := range bs.refs[ut.from:ut.to] {
			bs.members[rf.member].qs.ensureDoc(last)
		}
	}
	for _, i := range bs.shared {
		bs.members[i].qs.unswept = true
	}
	var avgLen float64
	var denoms []float64
	if e.scoring == BM25 {
		// The sharing group's one avgdl: the source's own, or the
		// cluster-merged value a router injected.
		avgLen = bs.members[bs.shared[0]].qs.avgLen
		denoms = bs.denomsFor(pi, part.Postings, avgLen, int(maxDoc)+1)
	}
	for ui := range bs.union {
		ut := &bs.union[ui]
		refs := bs.refs[ut.from:ut.to]
		if !ut.it.Valid() {
			continue
		}
		if canceled(done) {
			return ctx.Err()
		}
		sinceCancel := 0
		for {
			docs, tfs := ut.it.Window()
			if sinceCancel += len(docs); sinceCancel >= cancelStride {
				sinceCancel = 0
				if canceled(done) {
					return ctx.Err()
				}
			}
			impacts := bs.impacts[:len(docs)]
			e.blockImpacts(impacts, docs, tfs, part.Postings, avgLen, denoms)
			for _, rf := range refs {
				bs.members[rf.member].qs.add(docs, impacts, rf.w)
			}
			if !ut.it.NextWindow() {
				break
			}
		}
		for _, rf := range refs {
			st := &bs.members[rf.member].stats
			st.Postings += ut.it.Len()
			st.BlocksDecoded += ut.it.BlocksDecoded()
		}
	}
	for _, i := range bs.shared {
		e.sweep(&bs.members[i], part)
	}
	return nil
}

// blockImpacts fills impacts with the query-independent factor of every
// posting of one decoded block — the lnc document weight 1+ln(tf) for
// cosine, the BM25 tf-saturation factor for BM25 — with the scorer
// chosen once per block instead of once per posting, and BM25's length
// normalization read from (or entered into) the denoms cache, so a
// document's DocLen is fetched once however many of the union's lists
// it is on.
func (e *Engine) blockImpacts(impacts []float64, docs []corpus.DocID, tfs []int32, part Postings, avgLen float64, denoms []float64) {
	if e.scoring != BM25 {
		for i, tf := range tfs {
			impacts[i] = docWeight(tf)
		}
		return
	}
	for i, d := range docs {
		dn := denoms[d]
		if dn == 0 {
			dn = bm25K1 * (1 - bm25B + bm25B*float64(part.DocLen(d))/avgLen)
			denoms[d] = dn
		}
		ftf := float64(tfs[i])
		impacts[i] = ftf * (bm25K1 + 1) / (ftf + dn)
	}
}

// add is the flat scan's inner loop: one block of one term into one
// member's accumulator. A document's first contribution is the one
// that finds its score zero — contributions are positive — and that is
// how the document gets on the reached list, without a branch: every
// posting writes its document at the list's end, and the end moves on
// only for a first contribution. A function of its own so that its
// handful of values stay in registers whatever flatScan is juggling
// around the call.
func (qs *queryState) add(docs []corpus.DocID, impacts []float64, w float64) {
	score, n := qs.score, len(qs.reached)
	reached := slices.Grow(qs.reached, len(docs))[:n+len(docs)]
	impacts = impacts[:len(docs)]
	for i, d := range docs {
		s := score[d]
		reached[n] = d
		// 1 for +0, whose bits are all clear; 0 for any positive score.
		n += int((math.Float64bits(s) - 1) >> 63)
		// The conversion rounds the product on its own, so no platform
		// fuses it into the addition.
		score[d] = s + float64(w*impacts[i])
	}
	qs.reached = reached[:n]
}

// gateSlack shrinks the cosine skip limit by more than the rounding of
// the two multiplications that form it, and of the division it stands
// in for, can add up to (a few parts in 2⁵³): a document under the
// limit finalizes strictly below the heap's root, never level with it.
const gateSlack = 1 - 1.0/(1<<40)

// next takes the next reached document, from position *at of the list,
// out of the accumulator — its score is zeroed, which is what restores
// the pooled state's all-zero invariant — and returns it with its raw
// score; ok is false when none is left. Documents whose raw score is
// below limit are taken out but not returned, only counted in skipped:
// the limit is bound itself when norms is nil, norms[d]·bound
// otherwise, so a bound of 0 returns every document. The loop makes no
// calls, so it runs out of registers; that is the reason it is a
// function of its own.
func (qs *queryState) next(at *int, norms []float64, bound float64) (d corpus.DocID, raw float64, skipped int, ok bool) {
	score, reached := qs.score, qs.reached
	for i := *at; i < len(reached); i++ {
		d := reached[i]
		raw := score[d]
		if raw == 0 {
			// Already taken out: listed twice, which only a contribution
			// that was not positive (a corrupt tf) can bring about.
			continue
		}
		score[d] = 0
		limit := bound
		if norms != nil {
			limit = 0
			if int(d) < len(norms) {
				limit = norms[d] * bound
			}
		}
		if raw < limit {
			skipped++
			continue
		}
		*at = i + 1
		return d, raw, skipped, true
	}
	*at = len(reached)
	return 0, 0, skipped, false
}

// sweep finalizes one member over one part after flatScan: it takes the
// reached documents out of the accumulator, consults the part's
// tombstones and then the keep filter (under the document's reported ID)
// once per document, and offers the survivors to the member's top-k
// heap, each finalized by finalizeScore. Once the heap is full — filled
// by this part or by the ones before it — most documents cannot enter
// it, and where the final score is raw/(norm·qnorm) or raw itself with
// nothing else to consult — no tombstone, no filter, no prior — next
// turns those away with one multiplication and a comparison, before the
// division and the heap call: final < root ⟸ raw <
// root·norm·qnorm·gateSlack under cosine, raw < root (exactly) under
// BM25. A document with no norm has limit 0 and always takes the exact
// path. The heap ends up holding the k best whatever order documents
// are offered in, so nothing depends on the list's (first-contribution)
// order, or on the parts'.
func (e *Engine) sweep(m *batchMember, part *Part) {
	qs, k, keep, qnorm := m.qs, m.k, m.keep, m.qnorm
	ids, dead := part.IDs, part.Dead
	gated := keep == nil && dead == nil && e.prior == nil
	norms, scale := part.Norms, qnorm*gateSlack
	if e.scoring == BM25 {
		norms, scale = nil, 1
	}
	bound, at := 0.0, 0
	if gated && len(qs.heap) == k {
		bound = qs.heap[0].Score * scale
	}
	for {
		d, raw, skipped, ok := qs.next(&at, norms, bound)
		m.stats.DocsScored += skipped
		if !ok {
			break
		}
		id := d
		if ids != nil {
			id = ids[d]
		}
		if (dead != nil && dead[d]) || (keep != nil && !keep(id)) {
			m.stats.DocsFiltered++
			continue
		}
		m.stats.DocsScored++
		pushTopK(&qs.heap, k, Result{Doc: id, Score: e.finalizeScore(raw, d, part.Norms, qnorm)})
		if gated && len(qs.heap) == k {
			bound = qs.heap[0].Score * scale
		}
	}
	qs.reached = qs.reached[:0]
	qs.unswept = false
}
