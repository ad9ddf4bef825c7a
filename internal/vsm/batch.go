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

// batchShareNum/batchShareDen gate the cycle-at-a-time shared
// traversal: auto-mode members join it only when the distinct postings
// across the batch are at most batchShareNum/batchShareDen of the
// per-member sum — i.e. the cycle's term overlap repays the shared
// scan with at least a 20% postings saving. Below that the batch runs
// member-at-a-time under the single-query rule (effectiveMode). The
// exact boundary is a calibration candidate (see the ROADMAP engine
// item).
const (
	batchShareNum = 4
	batchShareDen = 5
)

// batchMember is one request's resolved execution state inside a
// batch.
type batchMember struct {
	qs    *queryState
	qnorm float64
	req   *Request
	stats *ExecStats
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

// unionTerm is one distinct term across the batch with its postings
// iterator (created once — each distinct list is decoded exactly one
// time for the whole batch) and the slice of members containing it.
type unionTerm struct {
	id       textproc.TermID
	it       index.Iterator
	from, to int // refs[from:to]
}

// batchState is the pooled per-batch scratch: the member table, the
// TermID-sorted union plan, the flattened member references, and the
// per-term impact buffer the shared traversal fills once per distinct
// list.
type batchState struct {
	members []batchMember
	// shared lists the members the cycle-at-a-time traversal serves.
	shared  []int
	union   []unionTerm
	refs    []batchRef
	impacts []float64
	// denoms caches each document's BM25 length normalization
	// k1·(1−b+b·dl/avgdl) across the whole union — documents recur in
	// a cycle's term lists, and the factor is query-independent. Zero
	// means "not computed yet" (the real factor is always positive).
	// Valid for one avgdl only, which is why BM25 members share by
	// avgdl group.
	denoms []float64
}

func newBatchState() *batchState { return &batchState{} }

func (bs *batchState) reset() {
	bs.members = bs.members[:0]
	bs.shared = bs.shared[:0]
	bs.union = bs.union[:0]
	bs.refs = bs.refs[:0]
}

// SearchBatch executes a batch of requests — typically the υ queries
// of one obfuscation cycle, submitted together as the paper's system
// model does (§III, Fig. 1). Terms are resolved in one pass and each
// distinct term's postings are fetched once for the whole batch; when
// the members' term overlap makes it profitable, all auto-mode members
// are evaluated in a single cycle-at-a-time traversal that walks each
// distinct postings list once and fans every posting's shared impact
// factor out to the members containing the term. Members carrying a
// router's Global statistics join it like any other — a routed cycle
// shares on every shard segment exactly as it does on a single node;
// under BM25 the members that share must score with one avgdl, so the
// largest same-avgdl group shares and any stragglers (a mixed
// Global/local batch, a cycle whose members saw different statistics)
// do not. Stragglers and members with an explicit execution mode run
// member-at-a-time with the shared resolution. Either way each
// member's hits are bit-identical to what SearchRequest would return
// for it alone; the property tests assert it.
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
	m := e.metrics
	// bc times the batch-level phases: the shared resolution pass, the
	// union fetch, the cycle-at-a-time traversal and the drains. Members
	// the shared traversal serves get this cycle-level trace; members
	// running member-at-a-time get their own per-member clocks.
	var bc phaseClock
	bc.enabled = m != nil
	for i := range reqs {
		if reqs[i].Trace {
			bc.enabled = true
			resps[i].Trace = &telemetry.PhaseTrace{}
		}
	}
	bc.start()
	bs := e.batches.Get().(*batchState)
	bs.reset()
	defer func() {
		for i := range bs.members {
			if bs.members[i].live {
				e.states.Put(bs.members[i].qs)
			}
			bs.members[i] = batchMember{}
		}
		e.batches.Put(bs)
	}()

	// One term-resolution pass across the batch.
	for i := range reqs {
		req := &reqs[i]
		m := batchMember{req: req, stats: &resps[i].Stats}
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
				}
			}
			if !m.live {
				e.states.Put(qs)
			}
		}
		bs.members = append(bs.members, m)
	}
	bc.mark(&bc.resolve)

	// Plan: auto-mode members may join the shared traversal;
	// explicit-mode members keep their member-at-a-time path.
	for i := range bs.members {
		if m := &bs.members[i]; m.live && m.req.Mode == ExecAuto {
			bs.shared = append(bs.shared, i)
		}
	}
	if e.scoring == BM25 {
		bs.shared = largestAvgLenGroup(bs.members, bs.shared)
	}
	if shared := bs.shared; len(shared) >= 2 {
		distinct, totalPostings := e.buildUnion(bs)
		bc.mark(&bc.fetch)
		if distinct*batchShareDen <= totalPostings*batchShareNum {
			if err := e.batchExhaustive(ctx, bs); err != nil {
				return nil, err
			}
			bc.mark(&bc.traverse)
			for _, i := range shared {
				resps[i].Hits = drainTopK(&bs.members[i].qs.heap)
			}
			bc.mark(&bc.merge)
			e.finishBatch(&bc, bs, resps)
		}
	}

	// Member-at-a-time for everyone left: explicit modes, avgdl
	// stragglers and unprofitable sharing. Members the
	// shared traversal served have non-nil (possibly empty) hit
	// slices; dead members keep nil hits and zero stats. Resolution was
	// shared, so per-member clocks carry fetch/traverse/merge only.
	for i := range bs.members {
		bm := &bs.members[i]
		if !bm.live || resps[i].Hits != nil {
			continue
		}
		bm.qs.clock.enabled = m != nil || resps[i].Trace != nil
		bm.qs.clock.start()
		hits, err := e.execResolved(ctx, bm.qs, bm.req.K, bm.qnorm, bm.req.Keep, bm.req.Mode, bm.stats)
		if err != nil {
			return nil, err
		}
		resps[i].Hits = hits
		e.finishQuery(bm.qs, len(bm.qs.terms), bm.req.K, bm.stats, resps[i].Trace)
	}
	return resps, nil
}

// finishBatch closes out one shared traversal: the cycle-level trace
// aggregates the served members' work counters, is recorded once in
// the ring and observed once in the latency histogram (mode "batch"),
// and is copied to every served member that asked for an inline trace.
func (e *Engine) finishBatch(bc *phaseClock, bs *batchState, resps []Response) {
	if !bc.enabled {
		return
	}
	shared := bs.shared
	t := telemetry.PhaseTrace{
		Scorer:     e.scoring.String(),
		Mode:       "batch",
		Terms:      len(bs.union),
		Batch:      len(shared),
		ResolveNS:  bc.resolve,
		FetchNS:    bc.fetch,
		TraverseNS: bc.traverse,
		MergeNS:    bc.merge,
		TotalNS:    bc.total(),
	}
	for _, i := range shared {
		st := &resps[i].Stats
		t.DocsScored += st.DocsScored
		t.Postings += st.Postings
		t.BlocksDecoded += st.BlocksDecoded
	}
	if m := e.metrics; m != nil {
		m.batchLat.ObserveSeconds(t.TotalNS)
		m.batchQ.Add(uint64(len(shared)))
		for _, i := range shared {
			st := resps[i].Stats
			m.addStats(&st)
		}
		if m.ring != nil {
			t.Seq = m.ring.Record(t)
		}
	}
	for _, i := range shared {
		if resps[i].Trace != nil {
			*resps[i].Trace = t
		}
	}
}

// largestAvgLenGroup narrows the BM25 sharing candidates to the largest
// set scoring with one avgdl (compared by bit pattern; the earliest
// group wins a tie), filtering cand in place. Members of one routed
// cycle, or of one local batch, all agree, so this normally returns
// cand untouched.
func largestAvgLenGroup(members []batchMember, cand []int) []int {
	bits := func(i int) uint64 { return math.Float64bits(members[i].qs.avgLen) }
	var best uint64
	bestN := 0
	for _, i := range cand {
		n := 0
		for _, j := range cand {
			if bits(j) == bits(i) {
				n++
			}
		}
		if n == len(cand) {
			return cand
		}
		if n > bestN {
			best, bestN = bits(i), n
		}
	}
	group := cand[:0]
	for _, i := range cand {
		if bits(i) == best {
			group = append(group, i)
		}
	}
	return group
}

// buildUnion assembles the TermID-sorted union plan over bs.shared,
// fetching each distinct term's postings exactly once. Returns the
// number of distinct postings across the union and the per-member sum
// the sharing gate compares it with.
func (e *Engine) buildUnion(bs *batchState) (distinct, total int) {
	for _, i := range bs.shared {
		m := &bs.members[i]
		for j := range m.qs.terms {
			t := &m.qs.terms[j]
			total += e.src.DocFreq(t.id)
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
			ut := &bs.union[n-1]
			ut.id, ut.from = id, ri
			e.src.IterInto(id, &ut.it)
			distinct += ut.it.Len()
		}
		bs.union[n-1].to = ri + 1
	}
	return distinct, total
}

// batchExhaustive is the cycle-at-a-time traversal: one pass over each
// distinct term's postings (ascending TermID), fanning the shared
// impact factor of every posting out to the members containing the
// term. Per member, the sequence of accumulator updates — terms in
// ascending TermID order, postings in ascending document order, the
// identical weight-times-impact product — matches searchExhaustive
// exactly, so scores, ranks and stats are bit-identical to
// member-at-a-time execution. Top-k heaps are filled here; the caller
// drains them.
func (e *Engine) batchExhaustive(ctx context.Context, bs *batchState) error {
	done := ctx.Done()
	// Size each member's accumulator off its own lists' final entries
	// (block metadata — no decoding), as the single-query path does.
	maxDoc := corpus.DocID(-1)
	for ui := range bs.union {
		ut := &bs.union[ui]
		if !ut.it.Valid() {
			continue
		}
		last := ut.it.LastDoc()
		if last > maxDoc {
			maxDoc = last
		}
		for _, rf := range bs.refs[ut.from:ut.to] {
			bs.members[rf.member].qs.ensureDoc(last)
		}
	}
	var avgLen float64
	var denoms []float64
	if e.scoring == BM25 {
		// The sharing group's one avgdl: the source's own, or the
		// cluster-merged value a router injected.
		avgLen = bs.members[bs.shared[0]].qs.avgLen
		if need := int(maxDoc) + 1; cap(bs.denoms) < need {
			bs.denoms = make([]float64, need)
		} else {
			bs.denoms = bs.denoms[:need]
			clear(bs.denoms)
		}
		denoms = bs.denoms
	}
	if cap(bs.impacts) < index.BlockSize {
		bs.impacts = make([]float64, index.BlockSize)
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
			// Pass 1, once per distinct term and block: the
			// query-independent impact factor of every posting — the
			// arithmetic every member containing the term would
			// otherwise redo. The BM25 branch mirrors sharedImpact
			// exactly, with the per-document length factor cached
			// across the union's lists.
			if e.scoring == BM25 {
				for i, d := range docs {
					dn := denoms[d]
					if dn == 0 {
						dn = bm25K1 * (1 - bm25B + bm25B*float64(e.src.DocLen(d))/avgLen)
						denoms[d] = dn
					}
					ftf := float64(tfs[i])
					impacts[i] = ftf * (bm25K1 + 1) / (ftf + dn)
				}
			} else {
				for i := range docs {
					impacts[i] = docWeight(tfs[i])
				}
			}
			// Pass 2, per member: a tight accumulate loop over this
			// member's own arrays, the same update sequence as the
			// single-query exhaustive scan.
			for _, rf := range refs {
				m := &bs.members[rf.member]
				qs := m.qs
				genAlive, genDead := qs.gen, qs.gen+1
				w, keep := rf.w, m.req.Keep
				stamp, score, touched := qs.stamp, qs.score, qs.touched
				if keep == nil {
					// Without a filter a stamp is either genAlive or
					// stale (genDead only ever marks filtered docs), so
					// first touch can write the contribution directly:
					// contributions are positive, making x and 0+x the
					// same float64.
					for i, d := range docs {
						if stamp[d] == genAlive {
							score[d] += w * impacts[i]
							continue
						}
						stamp[d] = genAlive
						score[d] = w * impacts[i]
						touched = append(touched, d)
					}
					qs.touched = touched
					continue
				}
				for i, d := range docs {
					st := stamp[d]
					if st == genDead {
						continue
					}
					if st != genAlive {
						if !keep(d) {
							stamp[d] = genDead
							m.stats.DocsFiltered++
							continue
						}
						stamp[d] = genAlive
						score[d] = 0
						touched = append(touched, d)
					}
					score[d] += w * impacts[i]
				}
				qs.touched = touched
			}
			if !ut.it.NextWindow() {
				break
			}
		}
		for _, rf := range refs {
			st := bs.members[rf.member].stats
			st.Postings += ut.it.Len()
			st.BlocksDecoded += ut.it.BlocksDecoded()
		}
	}
	// Finalize per member: same normalization, same heap discipline as
	// the single-query exhaustive tail.
	for _, i := range bs.shared {
		m := &bs.members[i]
		qs := m.qs
		m.stats.DocsScored += len(qs.touched)
		for _, d := range qs.touched {
			s := e.finalizeScore(qs.score[d], d, m.qnorm)
			pushTopK(&qs.heap, m.req.K, Result{Doc: d, Score: s})
		}
	}
	return nil
}
