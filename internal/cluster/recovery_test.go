package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/search"
	"toppriv/internal/segment"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// pShard is a persistent shard a test can crash and restart while its
// HTTP address stays stable: the httptest server delegates to whatever
// Shard currently backs it, so a "process restart" is a handler swap
// plus a fresh OpenShard over the same directory.
type pShard struct {
	t       testing.TB
	dir     string
	scoring vsm.Scoring

	mu      sync.Mutex
	shard   *Shard
	handler http.Handler
	down    bool

	ts *httptest.Server
}

func newPShard(t testing.TB, scoring vsm.Scoring) *pShard {
	t.Helper()
	p := &pShard{t: t, dir: t.TempDir(), scoring: scoring}
	p.start()
	p.ts = httptest.NewServer(p)
	t.Cleanup(func() {
		p.ts.Close()
		p.mu.Lock()
		sh := p.shard
		p.mu.Unlock()
		if sh != nil {
			crashShard(sh)
		}
	})
	return p
}

func (p *pShard) storeCfg() segment.Config {
	return segment.Config{
		Scoring:           p.scoring,
		Analyzer:          textproc.NewAnalyzer(),
		SealThreshold:     6,
		DisableCompaction: true,
	}
}

// start opens (or recovers) the shard from p.dir. The background saver
// is effectively disabled so tests control durability points exactly.
func (p *pShard) start() {
	sh, err := OpenShard(p.storeCfg(), ShardConfig{
		Dir:          p.dir,
		SaveEvery:    1 << 30,
		SaveInterval: time.Hour,
	})
	if err != nil {
		p.t.Fatalf("open shard in %s: %v", p.dir, err)
	}
	srv, err := search.NewServer(sh.Store(), nil)
	if err != nil {
		p.t.Fatal(err)
	}
	sh.Mount(srv)
	p.mu.Lock()
	p.shard = sh
	p.handler = srv
	p.down = false
	p.mu.Unlock()
}

func (p *pShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	h, down := p.handler, p.down
	p.mu.Unlock()
	if down || h == nil {
		http.Error(w, "shard down", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// crashShard abandons a shard kill -9 style: the saver goroutine stops
// but nothing is flushed — whatever the last Save captured is all that
// survives.
func crashShard(s *Shard) {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closeCh)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// crash kills the shard process without saving and marks it down.
func (p *pShard) crash() {
	p.mu.Lock()
	sh := p.shard
	p.shard = nil
	p.handler = nil
	p.down = true
	p.mu.Unlock()
	if sh != nil {
		crashShard(sh)
	}
}

// save takes an explicit durability point.
func (p *pShard) save() {
	p.mu.Lock()
	sh := p.shard
	p.mu.Unlock()
	if sh == nil {
		p.t.Fatal("save on crashed shard")
	}
	if err := sh.Save(); err != nil {
		p.t.Fatalf("shard save: %v", err)
	}
}

func (p *pShard) isDown() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// pCluster is the crashable cluster: persistent shards plus a
// journaled router the test can also crash and rebuild from disk.
type pCluster struct {
	t          testing.TB
	shards     []*pShard
	journalDir string
	cfg        Config
	router     *Router
}

func newPCluster(t testing.TB, scoring vsm.Scoring, n int, cfg Config) *pCluster {
	t.Helper()
	pc := &pCluster{t: t, journalDir: t.TempDir()}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		p := newPShard(t, scoring)
		pc.shards = append(pc.shards, p)
		urls[i] = p.ts.URL
	}
	cfg.Shards = urls
	cfg.JournalDir = pc.journalDir
	cfg.DisableHealthLoop = true
	if cfg.Analyzer == nil {
		cfg.Analyzer = textproc.NewAnalyzer()
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 5 * time.Second
	}
	cfg.Logf = t.Logf
	pc.cfg = cfg
	pc.router = pc.openRouter()
	t.Cleanup(func() { pc.router.Close() })
	return pc
}

func (pc *pCluster) openRouter() *Router {
	r, err := New(pc.cfg)
	if err != nil {
		pc.t.Fatalf("open router: %v", err)
	}
	return r
}

// crashRouter abandons the router kill -9 style and rebuilds a fresh
// one from the journal directory.
func (pc *pCluster) crashRouter() {
	pc.router.journal.Close() // release the fd; contents are as the crash left them
	pc.router = pc.openRouter()
}

// settle restarts anything down and drives catch-up until no shard
// lags the journal.
func (pc *pCluster) settle() {
	for _, p := range pc.shards {
		if p.isDown() {
			p.start()
		}
	}
	r := pc.router
	for i := 0; i < 50; i++ {
		r.Probe()
		r.ingestMu.Lock()
		lag := false
		for _, c := range r.shards {
			if r.shardLagsLocked(c) {
				lag = true
			}
		}
		r.ingestMu.Unlock()
		if !lag {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	pc.t.Fatal("cluster did not settle: shards still lag the journal")
}

// TestClusterCrashAnywhereProperty is the PR's acceptance anchor: a
// randomized schedule of journaled ingests and deletes interleaved
// with shard kill -9s (with and without prior saves), shard downtime
// windows, router crashes, injected journal crash points, and a seeded
// fault transport (resets, delays, cut acknowledgements, blackholes).
// After recovery the cluster must hold every acknowledged document
// under its exact gid with its exact content, hold nothing it
// acknowledged deleting, and score every query within 1e-9 of a
// never-crashed single-index rebuild over the survivors.
func TestClusterCrashAnywhereProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial crash-recovery property test")
	}
	for _, scoring := range []vsm.Scoring{vsm.Cosine, vsm.BM25} {
		scoring := scoring
		t.Run(scoring.String(), func(t *testing.T) {
			for trial := int64(0); trial < 2; trial++ {
				runCrashTrial(t, scoring, trial)
			}
		})
	}
}

func runCrashTrial(t *testing.T, scoring vsm.Scoring, trial int64) {
	t.Helper()
	ft := NewFaultTransport(nil, FaultPlan{
		Seed:     7100 + trial,
		Reset:    0.04,
		Delay:    0.03,
		Partial:  0.03,
		DelayFor: 5 * time.Millisecond,
	})
	pc := newPCluster(t, scoring, 3, Config{
		Deadline:         2 * time.Second,
		MutationDeadline: 2 * time.Second,
		HTTPClient:       &http.Client{Transport: ft},
	})
	rng := rand.New(rand.NewSource(4200 + trial))
	docs := synthDocs(t, 70, 500+trial)

	acked := make(map[corpus.DocID]corpus.Document)
	deleted := make(map[corpus.DocID]bool)
	var order []corpus.DocID

	crashes, routerCrashes := 0, 0
	i := 0
	for i < len(docs) {
		n := 1 + rng.Intn(3)
		if i+n > len(docs) {
			n = len(docs) - i
		}
		gids, err := pc.router.Add(docs[i : i+n]...)
		if err != nil {
			// Journal append failed (an injected crash point): the batch
			// was never acknowledged. The router process is dead — rebuild
			// it from disk and move on; the batch may be retried later by
			// virtue of the loop not advancing i.
			t.Logf("trial %d: add not acked (%v); rebuilding router", trial, err)
			pc.crashRouter()
			routerCrashes++
			continue
		}
		for j, gid := range gids {
			acked[gid] = docs[i+j]
			order = append(order, gid)
		}
		i += n

		if rng.Float64() < 0.2 && len(order) > 1 {
			gid := order[rng.Intn(len(order))]
			if !deleted[gid] {
				if err := pc.router.Delete(gid); err != nil {
					t.Logf("trial %d: delete %d not acked (%v); rebuilding router", trial, gid, err)
					pc.crashRouter()
					routerCrashes++
				} else {
					deleted[gid] = true
				}
			}
		}

		switch ev := rng.Float64(); {
		case ev < 0.10:
			// Durability point on a random live shard.
			p := pc.shards[rng.Intn(len(pc.shards))]
			if !p.isDown() {
				p.save()
			}
		case ev < 0.18:
			// kill -9 a shard; sometimes it saved recently, sometimes not.
			p := pc.shards[rng.Intn(len(pc.shards))]
			if !p.isDown() {
				if rng.Intn(2) == 0 {
					p.save()
				}
				p.crash()
				crashes++
				if rng.Intn(2) == 0 {
					p.start() // immediate restart; else a downtime window
				}
			}
		case ev < 0.23:
			// kill -9 the router between mutations.
			pc.crashRouter()
			routerCrashes++
		case ev < 0.27:
			// Arm a journal crash point a few bytes into a future append.
			pc.router.journal.CrashAfter(pc.router.journal.Size() + int64(3+rng.Intn(40)))
		}

		if rng.Float64() < 0.3 {
			for _, p := range pc.shards {
				if p.isDown() && rng.Intn(2) == 0 {
					p.start()
				}
			}
			pc.router.Probe()
		}
	}

	// Final recovery: faults off, one more router restart from disk,
	// everything restarted, full catch-up. (The harness stays armed only
	// for the chaos phase — verification must read the real state.)
	ft.Disarm()
	pc.crashRouter()
	routerCrashes++
	pc.settle()
	r := pc.router

	// Survivor bookkeeping.
	type entry struct {
		gid corpus.DocID
		doc corpus.Document
	}
	var alive []entry
	for _, gid := range order {
		if !deleted[gid] {
			alive = append(alive, entry{gid: gid, doc: acked[gid]})
		}
	}
	sort.Slice(alive, func(a, b int) bool { return alive[a].gid < alive[b].gid })
	if len(alive) < 10 {
		t.Fatalf("trial %d: only %d survivors", trial, len(alive))
	}
	t.Logf("trial %d: %d acked, %d deleted, %d shard crashes, %d router rebuilds",
		trial, len(acked), len(deleted), crashes, routerCrashes)

	// No acked document lost, none aliased: every surviving gid resolves
	// to exactly the content acknowledged under it.
	for _, e := range alive {
		got, ok := r.Doc(e.gid)
		if !ok {
			t.Fatalf("trial %d: acked doc %d lost after recovery", trial, e.gid)
		}
		if got.Text != e.doc.Text || got.Title != e.doc.Title {
			t.Fatalf("trial %d: gid %d aliased: got title %q, acked %q", trial, e.gid, got.Title, e.doc.Title)
		}
	}
	for gid := range deleted {
		if _, ok := r.Doc(gid); ok {
			t.Fatalf("trial %d: gid %d still resolves after acked delete", trial, gid)
		}
	}

	// Score equality with a never-crashed rebuild over the survivors.
	an := textproc.NewAnalyzer()
	refDocs := make([]corpus.Document, len(alive))
	gidToRef := make(map[corpus.DocID]corpus.DocID, len(alive))
	for j, e := range alive {
		refDocs[j] = corpus.Document{Title: e.doc.Title, Text: e.doc.Text}
		gidToRef[e.gid] = corpus.DocID(j)
	}
	refCorpus, err := corpus.Build(refDocs, an, textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	refIdx, err := index.Build(refCorpus)
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := vsm.NewEngine(refIdx, an, scoring)
	if err != nil {
		t.Fatal(err)
	}
	cycle := make([][]string, 0, 8)
	for q := 0; q < 8; q++ {
		terms := an.Analyze(queryFrom(docs[rng.Intn(len(docs))], rng.Intn(25), 3+rng.Intn(4)))
		cycle = append(cycle, terms)
		for _, k := range []int{5, len(alive) + 5} {
			resp, err := r.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: k})
			if err != nil {
				t.Fatalf("trial %d: search: %v", trial, err)
			}
			if resp.Degraded {
				t.Fatalf("trial %d: degraded search after full recovery: %+v", trial, resp.Shards)
			}
			compareWithRebuild(t, fmt.Sprintf("trial %d k=%d", trial, k), resp.Hits, mustSearch(t, refEng, vsm.Request{Terms: terms, K: k}), k > len(alive), gidToRef)
		}
	}
	checkCycleAgainstRebuild(t, fmt.Sprintf("trial %d", trial), r, refEng, gidToRef, len(alive), cycle)

	h := r.ClusterHealth()
	if !h.Journaled {
		t.Fatalf("trial %d: health does not report journaling", trial)
	}
	if crashes > 0 {
		total := uint64(0)
		for _, sh := range h.Shards {
			total += sh.Restarts
		}
		// The final router rebuild resets per-process counters, so only
		// restarts observed by the *current* router process are counted
		// here — crashes during its lifetime may be zero. The stats
		// surface itself must still be wired.
		t.Logf("trial %d: current router observed %d shard restarts, %d recoveries, journal %d bytes",
			trial, total, h.Recoveries, h.JournalBytes)
	}
}

// TestShardPersistRestartEquivalence pins the persistent-shard half in
// isolation: save, kill -9, reopen — the recovered shard must answer
// stats, fetches, and searches exactly like its never-crashed self.
func TestShardPersistRestartEquivalence(t *testing.T) {
	pc := newPCluster(t, vsm.BM25, 3, Config{})
	r := pc.router
	docs := synthDocs(t, 40, 911)
	gids, err := r.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(gids[5]); err != nil {
		t.Fatal(err)
	}

	terms := textproc.NewAnalyzer().Analyze(queryFrom(docs[3], 2, 4))
	before, err := r.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	beforeStats := r.ComputeStats()

	// Save everything, kill every shard, restart from disk.
	for _, p := range pc.shards {
		p.save()
		p.crash()
		p.start()
	}
	pc.settle()

	after, err := r.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Hits) != len(before.Hits) {
		t.Fatalf("hits changed across restart: %d -> %d", len(before.Hits), len(after.Hits))
	}
	for i := range after.Hits {
		if after.Hits[i].Doc != before.Hits[i].Doc || math.Abs(after.Hits[i].Score-before.Hits[i].Score) > 1e-12 {
			t.Fatalf("rank %d changed across restart: %+v -> %+v", i, before.Hits[i], after.Hits[i])
		}
	}
	afterStats := r.ComputeStats()
	if afterStats.NumDocs != beforeStats.NumDocs {
		t.Fatalf("doc count changed across restart: %d -> %d", beforeStats.NumDocs, afterStats.NumDocs)
	}
	for i, gid := range gids {
		if gid == gids[5] {
			continue
		}
		got, ok := r.Doc(gid)
		if !ok || got.Text != docs[i].Text {
			t.Fatalf("doc %d wrong after restart (ok=%v)", gid, ok)
		}
	}
	if _, ok := r.Doc(gids[5]); ok {
		t.Fatal("deleted doc resurrected by restart")
	}
}

// TestShardMetaLagRecovery reproduces the one crash window the shard
// save order leaves open: the store saved but the SHARD.json write was
// lost, so the applied sequence on disk lags the store. The router must
// re-drive the mutations past it, and the shard must take the ones its
// store already holds as replays: every document resolves under its gid
// with its own text, and none is counted twice.
func TestShardMetaLagRecovery(t *testing.T) {
	pc := newPCluster(t, vsm.Cosine, 1, Config{})
	r := pc.router
	p := pc.shards[0]
	docs := synthDocs(t, 12, 77)

	if _, err := r.Add(docs[:6]...); err != nil {
		t.Fatal(err)
	}
	p.save()
	stale, err := os.ReadFile(filepath.Join(p.dir, shardMetaName))
	if err != nil {
		t.Fatal(err)
	}
	gids2, err := r.Add(docs[6:]...)
	if err != nil {
		t.Fatal(err)
	}
	p.save()
	// Rewind the meta one save: the store now runs ahead of the mapping.
	if err := os.WriteFile(filepath.Join(p.dir, shardMetaName), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	p.crash()
	p.start()
	pc.settle()

	for i, gid := range gids2 {
		got, ok := r.Doc(gid)
		if !ok {
			t.Fatalf("doc %d lost to the meta-lag crash window", gid)
		}
		if got.Text != docs[6+i].Text {
			t.Fatalf("doc %d aliased after meta-lag recovery", gid)
		}
	}
	st := r.ComputeStats()
	if st.NumDocs != len(docs) {
		t.Fatalf("cluster reports %d docs, want %d", st.NumDocs, len(docs))
	}
}

// TestRouterTitleCacheBounded pins the satellite: the gid → title
// cache evicts past its cap and evicted titles still resolve through
// the owning shard.
func TestRouterTitleCacheBounded(t *testing.T) {
	pc := newPCluster(t, vsm.Cosine, 2, Config{TitleCacheSize: 8})
	r := pc.router
	docs := synthDocs(t, 30, 55)
	gids, err := r.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	r.titleMu.RLock()
	size := len(r.titles)
	_, oldestCached := r.titles[gids[0]]
	r.titleMu.RUnlock()
	if size > 8 {
		t.Fatalf("title cache holds %d entries, cap 8", size)
	}
	if oldestCached {
		t.Fatal("lowest gid survived eviction")
	}
	// Evicted titles resolve via the shard fetch fallback — and Doc()
	// always resolves regardless of the cache.
	title, ok := r.Title(gids[0])
	if !ok || title != docs[0].Title {
		t.Fatalf("evicted title: got %q ok=%v, want %q", title, ok, docs[0].Title)
	}
	if _, ok := r.Doc(gids[0]); !ok {
		t.Fatal("Doc() failed for evicted gid")
	}
}

// TestRouterTitleEvictionCost: past its cap, caching a title evicts
// the lowest cached gid without allocating, however large the cache,
// and a title fetched for an evicted gid resolves without entering the
// cache again, so the cache stays at its cap.
func TestRouterTitleEvictionCost(t *testing.T) {
	const capacity = 1 << 14
	r := &Router{titles: make(map[corpus.DocID]string), titleCap: capacity}
	one := []corpus.Document{{Title: "t"}}
	gid := []corpus.DocID{0}
	for ; gid[0] < capacity; gid[0]++ {
		r.cacheTitles(one, gid)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.cacheTitles(one, gid)
		gid[0]++
	})
	if allocs > 0.1 {
		t.Fatalf("caching a title past the cap allocates %.1f times", allocs)
	}
	if _, ok := r.titles[gid[0]-capacity-1]; ok || len(r.titles) != capacity {
		t.Fatalf("cache holds %d titles, cap %d, lowest evicted: %v", len(r.titles), capacity, !ok)
	}

	tc := newTestCluster(t, vsm.BM25, 2, Config{TitleCacheSize: 4})
	docs := synthDocs(t, 16, 5)
	gids, err := tc.router.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, gid := range gids[:12] {
		if title, ok := tc.router.Title(gid); !ok || title != docs[i].Title {
			t.Fatalf("evicted title %d: got %q ok=%v, want %q", gid, title, ok, docs[i].Title)
		}
	}
	tc.router.titleMu.RLock()
	defer tc.router.titleMu.RUnlock()
	for _, gid := range gids[12:] {
		if _, ok := tc.router.titles[gid]; !ok || len(tc.router.titles) != 4 {
			t.Fatalf("cache lost gid %d or holds %d titles, cap 4", gid, len(tc.router.titles))
		}
	}
}

// TestRouterStartsWithShardDown: with a journal, a down shard at
// startup is tolerated; mutations to it are journaled and applied when
// it rejoins, counting a recovery.
func TestRouterStartsWithShardDown(t *testing.T) {
	pc := newPCluster(t, vsm.BM25, 2, Config{})
	docs := synthDocs(t, 16, 33)
	if _, err := pc.router.Add(docs[:8]...); err != nil {
		t.Fatal(err)
	}
	pc.shards[1].crash() // down, unsaved: everything must come back from the journal
	pc.crashRouter()     // router restart with a shard down must succeed

	gids, err := pc.router.Add(docs[8:]...)
	if err != nil {
		t.Fatalf("journaled add with a shard down: %v", err)
	}
	pc.settle()
	for i, gid := range gids {
		got, ok := pc.router.Doc(gid)
		if !ok || got.Text != docs[8+i].Text {
			t.Fatalf("doc %d not recovered on rejoined shard (ok=%v)", gid, ok)
		}
	}
	st := pc.router.ComputeStats()
	if st.NumDocs != len(docs) {
		t.Fatalf("cluster reports %d docs, want %d", st.NumDocs, len(docs))
	}
	h := pc.router.ClusterHealth()
	if h.Recoveries == 0 {
		t.Fatal("no recovery counted after shard rejoin")
	}
	if h.PendingRecords == 0 {
		// In-memory durability never confirms for unsaved shards, but
		// these shards are persistent: after a save the records prune.
		for _, p := range pc.shards {
			p.save()
		}
		pc.router.Probe()
	}
}
