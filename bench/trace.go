package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"toppriv/internal/belief"
	"toppriv/internal/core"
	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/search"
	"toppriv/internal/segment"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// span is one timed call at a layer boundary. Spans of one cycle share
// Cycle; Parent is the span that caused this one (-1 for a cycle's
// root). A replay span re-runs, directly and after the fact, the call
// its parent made behind an HTTP hop the benchmark cannot see into, so
// it follows its parent in time instead of nesting inside it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Cycle   int    `json:"cycle"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Replay  bool   `json:"replay,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, cycle int, replay bool) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cycle: cycle, Name: name, Replay: replay})
	t.spans[id].StartNs = time.Since(t.t0).Nanoseconds()
	return id
}

// end closes span id and returns its length in microseconds.
func (t *tracer) end(id int) float64 {
	sp := &t.spans[id]
	sp.EndNs = time.Since(t.t0).Nanoseconds()
	return float64(sp.EndNs-sp.StartNs) / 1e3
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingTransport counts the body bytes of every exchange.
type countingTransport struct {
	base      http.RoundTripper
	req, resp atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		c.req.Add(r.ContentLength)
	}
	resp, err := c.base.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, &c.resp}
	}
	return resp, err
}

// layerRig is what the traced pass calls into directly, one handle per
// layer. On a single-node workload the cluster is a side rig over the
// same documents, off the cycle's path; on a clustered workload the
// engine is.
type layerRig struct {
	eng    *vsm.Engine // single index over all the workload's documents
	rig    *clusterRig
	stores []*segment.Store
	// shard0 is a single index over exactly shard 0's documents: what
	// segment.Store.SearchBatch is compared with.
	shard0 *vsm.Engine
	// Per-store statistics for the router's view of a query.
	docs     int
	totalLen int64
	df       []map[string]int
}

func (l *layerRig) global(terms []string) *vsm.GlobalStats {
	g := &vsm.GlobalStats{Docs: l.docs, TotalLen: l.totalLen, DF: make([]int, len(terms))}
	for i, t := range terms {
		for _, df := range l.df {
			g.DF[i] += df[t]
		}
	}
	return g
}

func newLayerRig(st *stack, in *inputs, sz sizes, cl *closer) (*layerRig, error) {
	l := &layerRig{eng: st.engine, rig: st.rig}
	if l.eng == nil {
		c, err := subCorpus(in, len(st.docs))
		if err != nil {
			return nil, err
		}
		if l.eng, err = buildEngine(c, in.an, st.w.Scoring); err != nil {
			return nil, err
		}
	}
	if l.rig == nil {
		rig, err := newClusterRig("side", st.w.Scoring, in.an, st.net, "", plainDocs(st.docs), sz.PreloadBatch)
		if err != nil {
			return nil, fmt.Errorf("side cluster: %w", err)
		}
		cl.add(func() { rig.Close() })
		l.rig = rig
	}
	for _, sh := range l.rig.shards {
		store := sh.Store()
		docs, totalLen, df := store.LocalStats()
		l.stores = append(l.stores, store)
		l.docs += docs
		l.totalLen += totalLen
		l.df = append(l.df, df)
	}
	var shardDocs []corpus.Document
	for id := corpus.DocID(0); ; id++ {
		d, ok := l.stores[0].Doc(id)
		if !ok {
			break
		}
		shardDocs = append(shardDocs, corpus.Document{Title: d.Title, Text: d.Text})
	}
	c, err := corpus.Build(shardDocs, in.an, textproc.PruneSpec{})
	if err != nil {
		return nil, err
	}
	l.shard0, err = buildEngine(c, in.an, st.w.Scoring)
	return l, err
}

// cycleTimes are the span lengths of one traced cycle, in
// microseconds, and the counts read at the same boundaries.
type cycleTimes struct {
	analyze, obfuscate, recheck, http float64
	engBatch, engSingle               float64
	router                            float64
	shard                             [numShards]float64
	shard0Eng                         float64
	walkNs                            float64
	postings                          int
	stats                             vsm.ExecStats
	bloomSkips                        uint64
	cycleLen, rejected, posteriors    int
	ghostTerms                        int
	exposure                          float64
	total                             float64
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runTraced is the traced pass: one client replays the first
// TraceCycles cycles of the workload's order through direct calls at
// each layer boundary.
func runTraced(cfg runConfig, in *inputs, cl *closer) (*result, error) {
	sz, w := cfg.Sizes, cfg.Workload
	res := &result{Workload: w.Name, Seed: cfg.Seed, Trace: true, Metrics: map[string]value{}, Diagnostics: map[string]value{}}
	obf, st, err := setup(cfg, in)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	cl.add(func() { st.Close() })
	rig, err := newLayerRig(st, in, sz, cl)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	order := in.clientOrder(0, 1)
	n := sz.TraceCycles
	clientSeed := cfg.Seed*7919 + 1
	counter := &countingTransport{base: st.net.Client.Transport}
	newClient := func() (*search.Client, error) {
		c, err := search.NewClient(st.front.URL, &http.Client{Transport: counter}, obf, in.an, rand.New(rand.NewSource(clientSeed)))
		if err == nil {
			c.K = sz.K
		}
		return c, err
	}

	// Untraced reference: the same cycles through Client.SearchCycle.
	plainClient, err := newClient()
	if err != nil {
		return nil, err
	}
	warm := closedLoop(0, min(n, sz.WarmCycles), 1, func(_, i int) error {
		_, err := plainClient.SearchCycle(ctx, order[(n+i)%len(order)])
		return err
	})
	res.failPhase("warm-up cycles", warm)
	if plainClient, err = newClient(); err != nil {
		return nil, err
	}
	untraced := closedLoop(0, n, 1, func(_, i int) error {
		_, err := plainClient.SearchCycle(ctx, order[i%len(order)])
		return err
	})
	res.failPhase("untraced cycles", untraced)

	client, err := newClient()
	if err != nil {
		return nil, err
	}
	counter.req.Store(0)
	counter.resp.Store(0)
	tr := &tracer{t0: time.Now()}
	pass := &tracePass{
		tr: tr, an: in.an, obf: obf, client: client, rig: rig, k: sz.K,
		// Seeded like the untraced client's RNG, so both passes
		// generate the same cycles.
		obfRng:     rand.New(rand.NewSource(clientSeed)),
		recheckRng: rand.New(rand.NewSource(clientSeed ^ 0x1234)),
	}
	times := make([]cycleTimes, 0, n)
	for i := 0; i < n; i++ {
		ct, err := pass.cycle(ctx, i, order[i%len(order)])
		res.Attempted++
		if err != nil {
			res.fail(1, "traced cycle %d: %v", i, err)
			continue
		}
		times = append(times, ct)
	}
	if len(times) < 2*minBeyond {
		return nil, fmt.Errorf("only %d of %d traced cycles completed", len(times), n)
	}
	deg := int(rig.rig.router.ClusterHealth().Degraded)
	res.fail(deg, "%d router cycles were answered without every shard", deg)

	layerMetrics(res, times, untraced, counter, st, rig)
	if err := writeProbes(res, cfg, in, st, rig, cl); err != nil {
		return nil, fmt.Errorf("write-path probes: %w", err)
	}
	if cfg.OutDir != "" {
		path := filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	res.diag("trace.spans", "count", float64(len(tr.spans)), 0)
	res.Correct = res.Failed == 0
	return res, nil
}

// tracePass is what every cycle of the traced pass uses.
type tracePass struct {
	tr                 *tracer
	an                 *textproc.Analyzer
	obf                *core.Obfuscator
	obfRng, recheckRng *rand.Rand
	client             *search.Client
	rig                *layerRig
	k                  int
	it                 index.Iterator // reused by the list walk
}

// cycle runs cycle i of the traced pass: the cycle itself (analyze,
// obfuscate, one batch POST), then the replays that attribute the POST
// to the layers behind it.
func (p *tracePass) cycle(ctx context.Context, i int, query string) (cycleTimes, error) {
	tr, an, obf, rig, k := p.tr, p.an, p.obf, p.rig, p.k
	var ct cycleTimes
	root := tr.begin("cycle", -1, i, false)
	id := tr.begin("textproc.analyze", root, i, false)
	terms := an.Analyze(query)
	ct.analyze = tr.end(id)
	id = tr.begin("core.obfuscate", root, i, false)
	cycle, err := obf.Obfuscate(terms, p.obfRng)
	ct.obfuscate = tr.end(id)
	if err != nil {
		tr.end(root)
		return ct, fmt.Errorf("obfuscate: %w", err)
	}
	httpID := tr.begin("search.http_batch", root, i, false)
	resps, err := p.client.SubmitBatch(ctx, cycle.Queries)
	ct.http = tr.end(httpID)
	ct.total = tr.end(root)
	if err != nil {
		return ct, fmt.Errorf("submit: %w", err)
	}
	if !cycle.Satisfied {
		return ct, errUnsatisfied
	}
	if resps[cycle.UserIndex].Degraded {
		return ct, errors.New("degraded answer")
	}
	ct.cycleLen = cycle.Len()
	ct.rejected = len(cycle.RejectedTopics)
	ct.posteriors = 1 + len(cycle.MaskingTopics) + len(cycle.RejectedTopics)
	for qi, q := range cycle.Queries {
		if qi != cycle.UserIndex {
			ct.ghostTerms += len(q)
		}
	}

	// belief/lda: the cycle's exposure recomputed with an independent
	// RNG costs exactly one posterior per member.
	id = tr.begin("belief.recheck", root, i, true)
	boost := obf.Engine().CycleBoost(cycle.Queries, p.recheckRng)
	ct.recheck = tr.end(id)
	ct.exposure = belief.Exposure(boost, cycle.Intention)

	// reqs are the requests as search.Server hands them to its backend,
	// shardReqs as the router hands them to a shard.
	reqs := make([]vsm.Request, len(cycle.Queries))
	shardReqs := make([]vsm.Request, len(cycle.Queries))
	for qi, q := range cycle.Queries {
		text := canonical(q)
		reqs[qi] = vsm.Request{Query: text, K: k}
		qterms := an.Analyze(text)
		shardReqs[qi] = vsm.Request{Terms: qterms, K: k, Global: rig.global(qterms)}
	}
	id = tr.begin("vsm.batch", httpID, i, true)
	engResps, err := rig.eng.SearchBatch(ctx, reqs)
	ct.engBatch = tr.end(id)
	if err != nil {
		return ct, fmt.Errorf("engine batch: %w", err)
	}
	for _, r := range engResps {
		ct.stats.Add(r.Stats)
	}
	id = tr.begin("vsm.single", httpID, i, true)
	_, err = rig.eng.SearchRequest(ctx, reqs[cycle.UserIndex])
	ct.engSingle = tr.end(id)
	if err != nil {
		return ct, fmt.Errorf("engine single: %w", err)
	}

	// index: a full walk of every list the cycle touches.
	idx := rig.eng.Index()
	seen := map[textproc.TermID]bool{}
	id = tr.begin("index.walk", httpID, i, true)
	for _, r := range shardReqs {
		for _, t := range r.Terms {
			tid := idx.Vocab().ID(t)
			if tid == textproc.InvalidTerm || seen[tid] {
				continue
			}
			seen[tid] = true
			for idx.IterInto(tid, &p.it); p.it.Valid(); p.it.Next() {
				walkSink += int(p.it.Doc()) + int(p.it.TF())
				ct.postings++
			}
		}
	}
	ct.walkNs = tr.end(id) * 1e3

	routerID := tr.begin("cluster.router_batch", httpID, i, true)
	_, err = rig.rig.router.SearchBatch(ctx, reqs)
	ct.router = tr.end(routerID)
	if err != nil {
		return ct, fmt.Errorf("router batch: %w", err)
	}
	var shard0ID int
	for s, store := range rig.stores {
		before := store.BloomSkips()
		id = tr.begin("segment.batch", routerID, i, true)
		_, err = store.SearchBatch(ctx, shardReqs)
		ct.shard[s] = tr.end(id)
		if err != nil {
			return ct, fmt.Errorf("shard %d store batch: %w", s, err)
		}
		ct.bloomSkips += store.BloomSkips() - before
		if s == 0 {
			shard0ID = id
		}
	}
	id = tr.begin("vsm.batch_shard0", shard0ID, i, true)
	_, err = rig.shard0.SearchBatch(ctx, shardReqs)
	ct.shard0Eng = tr.end(id)
	if err != nil {
		return ct, fmt.Errorf("shard-0 engine batch: %w", err)
	}
	return ct, nil
}

// walkSink keeps the iterator walk from being optimised away.
var walkSink int

// layerMetrics turns the traced cycles into the per-layer metrics.
// Times are means over the traced cycles: a mean adds up across
// layers, a median does not.
func layerMetrics(res *result, times []cycleTimes, untraced samples, counter *countingTransport, st *stack, rig *layerRig) {
	n := float64(len(times))
	col := func(f func(*cycleTimes) float64) float64 {
		sum := 0.0
		for i := range times {
			sum += f(&times[i])
		}
		return sum / n
	}
	set := func(name string, v float64) { res.set(name, v, len(times)) }

	analyze := col(func(c *cycleTimes) float64 { return c.analyze })
	obfuscate := col(func(c *cycleTimes) float64 { return c.obfuscate })
	httpBatch := col(func(c *cycleTimes) float64 { return c.http })
	cycleLen := col(func(c *cycleTimes) float64 { return float64(c.cycleLen) })
	posteriors := col(func(c *cycleTimes) float64 { return float64(c.posteriors) })
	posterior := col(func(c *cycleTimes) float64 { return c.recheck }) / cycleLen
	set("textproc.analyze_us", analyze)
	set("lda.posterior_us", posterior)
	set("core.obfuscate_us", obfuscate)
	lda := posteriors * posterior
	coreSelf := obfuscate - lda
	set("core.self_us", coreSelf)
	set("core.posteriors_per_cycle", posteriors)
	set("core.rejected_per_cycle", col(func(c *cycleTimes) float64 { return float64(c.rejected) }))
	set("core.ghost_terms_per_cycle", col(func(c *cycleTimes) float64 { return float64(c.ghostTerms) }))
	set("core.cycle_len", cycleLen)
	exposures := make([]float64, len(times))
	for i := range times {
		exposures[i] = times[i].exposure
	}
	sort.Float64s(exposures)
	set("belief.recheck_exposure_p95", exposures[int(0.95*float64(len(exposures)-1))])

	engBatch := col(func(c *cycleTimes) float64 { return c.engBatch })
	set("vsm.batch_us", engBatch)
	set("vsm.single_us", col(func(c *cycleTimes) float64 { return c.engSingle }))
	set("vsm.docs_scored_per_cycle", col(func(c *cycleTimes) float64 { return float64(c.stats.DocsScored) }))
	set("vsm.docs_pruned_per_cycle", col(func(c *cycleTimes) float64 { return float64(c.stats.DocsPruned) }))
	set("index.blocks_decoded_per_cycle", col(func(c *cycleTimes) float64 { return float64(c.stats.BlocksDecoded) }))
	postings := col(func(c *cycleTimes) float64 { return float64(c.postings) })
	set("index.decode_ns_per_posting", col(func(c *cycleTimes) float64 { return c.walkNs })/postings)
	set("index.bytes_per_doc", rig.eng.ComputeStats().BytesPerDoc)

	router := col(func(c *cycleTimes) float64 { return c.router })
	shardMax := col(func(c *cycleTimes) float64 { return max(c.shard[0], c.shard[1], c.shard[2]) })
	shardMean := col(func(c *cycleTimes) float64 { return (c.shard[0] + c.shard[1] + c.shard[2]) / numShards })
	shard0 := col(func(c *cycleTimes) float64 { return c.shard[0] })
	shard0Eng := col(func(c *cycleTimes) float64 { return c.shard0Eng })
	backend := engBatch
	if st.rig != nil {
		backend = router
	}
	set("search.http_batch_us", httpBatch)
	set("search.self_us", httpBatch-backend)
	set("search.req_bytes", float64(counter.req.Load())/float64(len(times)))
	set("search.resp_bytes", float64(counter.resp.Load())/float64(len(times)))

	set("segment.batch_us", shard0)
	set("segment.self_us", shard0-shard0Eng)
	segs, resident, docs := 0, int64(0), 0
	for _, store := range rig.stores {
		segs += store.NumSegments()
		cs := store.ComputeStats()
		resident += cs.ResidentBytes
		docs += cs.NumDocs
	}
	set("segment.segments", float64(segs)/numShards)
	set("segment.bloom_skips_per_cycle", col(func(c *cycleTimes) float64 { return float64(c.bloomSkips) }))
	set("segment.resident_bytes_per_doc", float64(resident)/float64(docs))

	set("cluster.router_batch_us", router)
	set("cluster.shard_max_us", shardMax)
	set("cluster.shard_mean_us", shardMean)
	set("cluster.router_self_us", router-shardMax)
	set("cluster.preload_docs_per_s", rig.rig.preloadDocsPerSec)

	// The layers on this workload's cycle path, by self time; the
	// backend is the engine, or the router's self time plus its slowest
	// shard.
	attributed := analyze + coreSelf + lda + (httpBatch - backend) + backend
	total := col(func(c *cycleTimes) float64 { return c.total })
	set("trace.unattributed_pct", 100*(total-attributed)/total)

	tracedLat := make([]time.Duration, len(times))
	for i := range times {
		tracedLat[i] = time.Duration(times[i].total * float64(time.Microsecond))
	}
	tracedP50, _ := percentile(tracedLat, 0.5)
	untracedP50, err := percentile(untraced.lat, 0.5)
	if err != nil {
		untracedP50 = tracedP50
	}
	set("trace.overhead_pct", 100*(tracedP50-untracedP50)/untracedP50)
	res.diag("trace.cycle_mean_us", "us", total, len(times))
	res.diag("trace.untraced_p50_ms", "ms", untracedP50, len(untraced.lat))
}

// writeProbes measures the write path the same way on every workload:
// the first WriteRigDocs documents of the corpus go, in WriteBatch
// batches, into a fresh durable cluster (persistent shards,
// journalled router) through the admin client, half as many again
// through Router.Add directly, and the first lot into a fresh store.
// The durable cluster is then closed, reopened from disk at the same
// addresses, and held to a rebuild over what it acknowledged.
func writeProbes(res *result, cfg runConfig, in *inputs, st *stack, rig *layerRig, cl *closer) error {
	sz := cfg.Sizes
	docs := plainDocs(in.corpus.Docs[:min(in.corpus.NumDocs(), sz.WriteRigDocs)])
	batches := len(docs) / sz.WriteBatch
	if batches < p50Samples {
		return fmt.Errorf("%d documents make %d batches, need %d", len(docs), batches, p50Samples)
	}
	batch := func(i int) []corpus.Document {
		i %= batches
		return docs[i*sz.WriteBatch : (i+1)*sz.WriteBatch]
	}
	net := newFabric()
	defer net.Client.CloseIdleConnections()
	dir, err := os.MkdirTemp(cfg.TmpRoot, "write-rig-")
	if err != nil {
		return err
	}
	wrig, err := newClusterRig("write", st.w.Scoring, in.an, net, dir, nil, sz.PreloadBatch)
	if err != nil {
		return err
	}
	cl.add(func() { wrig.Close() })
	srv, err := search.NewServer(wrig.router, nil)
	if err != nil {
		return err
	}
	front, err := net.startNode("write-front.bench", srv)
	if err != nil {
		return err
	}
	cl.add(front.Close)
	admin := search.NewAdminClient(front.URL, net.Client)
	survivors := map[corpus.DocID]corpus.Document{}
	keep := func(ids []corpus.DocID, sent []corpus.Document) error {
		if len(ids) != len(sent) {
			return errShortAck
		}
		for j, id := range ids {
			survivors[id] = sent[j]
		}
		return nil
	}

	acks := closedLoop(0, batches, 1, func(_, i int) error {
		ids, err := admin.AddDocuments(batch(i))
		if err != nil {
			return err
		}
		return keep(ids, batch(i))
	})
	res.failPhase("probe ingest batches", acks)
	p50, err := percentile(acks.lat, 0.5)
	if err != nil {
		return err
	}
	res.set("cluster.add_ack_p50_ms", p50, len(acks.lat))
	journalled := wrig.router.ClusterHealth().JournalBytes
	res.set("cluster.journal_bytes_per_doc", float64(journalled)/float64(len(survivors)), 0)

	direct := closedLoop(0, batches/2, 1, func(_, i int) error {
		ids, err := wrig.router.Add(batch(i)...)
		if err != nil {
			return err
		}
		return keep(ids, batch(i))
	})
	res.failPhase("direct Router.Add calls", direct)
	res.set("cluster.add_us_per_doc", us(direct.elapsed)/float64(len(direct.lat)*sz.WriteBatch), len(direct.lat))

	// One delete per ingest batch, so the reopened cluster has holes to
	// get right.
	dels := closedLoop(0, batches, 1, func(_, i int) error {
		gid := corpus.DocID(i * sz.WriteBatch)
		if err := admin.DeleteDocument(gid); err != nil {
			return err
		}
		delete(survivors, gid)
		return nil
	})
	res.failPhase("probe deletes", dels)
	if err := wrig.stop(); err != nil {
		return fmt.Errorf("close durable rig: %w", err)
	}
	if err := wrig.reopen(); err != nil {
		return fmt.Errorf("reopen durable rig: %w", err)
	}
	if err := checkSurvivors(wrig, survivors, in, sz, cfg.Seed, res); err != nil {
		return fmt.Errorf("reopen check: %w", err)
	}

	store, err := segment.Open(rig.rig.storeConfig())
	if err != nil {
		return err
	}
	defer store.Close()
	adds := closedLoop(0, batches, 1, func(_, i int) error {
		_, err := store.Add(batch(i)...)
		return err
	})
	res.failPhase("Store.Add calls", adds)
	res.set("segment.add_us_per_doc", us(adds.elapsed)/float64(len(adds.lat)*sz.WriteBatch), len(adds.lat))
	return nil
}
