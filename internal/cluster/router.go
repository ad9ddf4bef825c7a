package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/search"
	"toppriv/internal/telemetry"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// Config parameterizes a Router.
type Config struct {
	// Shards are the shard base URLs ("http://host:port"). Order is
	// irrelevant to placement (the ring hashes names, not indices) but
	// fixed for the life of the router.
	Shards []string
	// Deadline bounds one shard's share of one query cycle, retries
	// included. A shard that misses it is reported down for that cycle
	// and the survivors' merged results return with Degraded set.
	// Defaults to 2s.
	Deadline time.Duration
	// MutationDeadline bounds one shard's ingest or delete exchange,
	// retries included. Mutations serialize under the router's ingest
	// lock, so without a deadline one hung shard would stall every
	// subsequent mutation forever. Defaults to 5× Deadline — mutations
	// tolerate more latency than a query cycle, but not infinity.
	MutationDeadline time.Duration
	// Retry is the per-shard transport retry budget. The zero value
	// retries nothing; a Max of 1–2 rides out a shard restart's
	// connection resets without inflating tail latency.
	Retry search.RetryPolicy
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Analyzer processes raw query text exactly once, at the router;
	// shards only ever see analyzed terms. It must match the analyzer
	// the documents were indexed with. Defaults to textproc.NewAnalyzer.
	Analyzer *textproc.Analyzer
	// JournalDir enables the placement journal: mutations are
	// acknowledged once fsynced to the journal, shards that miss them
	// are caught up by the health loop, and a restarted router replays
	// its placement state from disk. Empty disables journaling and
	// restores the PR 9 memory-only semantics (mutation failures are
	// caller errors, restarts lose placement state).
	JournalDir string
	// SnapshotBytes triggers journal compaction once the WAL grows past
	// this many bytes. Defaults to 4 MiB.
	SnapshotBytes int64
	// ProbeInterval is the health loop's probe period. The loop probes
	// every shard's /cluster/stats, detects restarts, re-drives pending
	// mutations, and compacts the journal. Defaults to 1s. The loop
	// only runs when journaling is enabled.
	ProbeInterval time.Duration
	// DisableHealthLoop suppresses the background health loop (tests
	// drive recovery deterministically via Probe). Startup replay and
	// synchronous catch-up still run.
	DisableHealthLoop bool
	// TitleCacheSize bounds the in-memory gid → title cache; the lowest
	// (oldest) gids are evicted past the cap. Evicted titles still
	// resolve through the owning shard (and the journal snapshot
	// carries the cache across restarts). 0 means 65536; negative means
	// unbounded.
	TitleCacheSize int
	// Logf receives recovery-path diagnostics (nil = silent).
	Logf func(format string, args ...interface{})
}

// Router is the scatter-gather front of the distributed tier. It
// implements the same surfaces segment.Store offers search.NewServer —
// vsm.RequestSearcher, search.LiveIndex, stats, titles —
// so a router process serves the standard API unchanged while fanning
// every obfuscation cycle out to the shards.
//
// Correctness contract: every query carries the cluster-merged
// collection statistics (N, total length, per-term df summed across
// the shards' last-reported tables), so each shard weighs query terms
// exactly as a single index over the whole corpus would, and the
// merged top-k is score-identical to a single-node rebuild. The tables
// update synchronously on every mutation, never on the query path: a
// shard acks a mutation with the df entries it changed, and the router
// fetches a shard's whole table only when an ack cannot be applied to
// the one it holds (see mutate). A down shard's last-known table keeps
// contributing, so the survivors' scores during degradation equal their
// non-degraded values.
//
// A mutation is delivered to all its shards concurrently; each shard
// still receives its own documents in ascending gid order, because
// mutations serialize under ingestMu.
type Router struct {
	shards      []*shardConn
	byName      map[string]*shardConn
	ring        *ring
	an          *textproc.Analyzer
	deadline    time.Duration
	mutDeadline time.Duration
	logf        func(format string, args ...interface{})

	// scoringMu guards scoring, which is learned lazily when journaling
	// lets the router start with every shard down.
	scoringMu sync.Mutex
	scoring   string

	// ingestMu serializes mutations: gid assignment must be sequential
	// and each shard must receive its documents in ascending gid order.
	// It also guards pending — the journaled mutations not yet durable
	// on every target shard, in ascending Seq order.
	ingestMu sync.Mutex
	nextGid  corpus.DocID
	pending  []journalRecord

	// journal, when non-nil, is the durability point: Add/Delete return
	// success once their record is fsynced, and delivery failures leave
	// the record pending for the health loop to re-drive.
	journal   *journal
	snapBytes int64

	// titles caches gid → title at ingest time so result rendering
	// needs no per-hit shard round-trip, bounded to titleCap entries
	// (lowest gids evicted first). Misses — eviction, or a router
	// restart — fall back to fetching the document from its shard.
	titleMu  sync.RWMutex
	titles   map[corpus.DocID]string
	titleCap int

	probeEvery time.Duration
	stopCh     chan struct{}
	stopOnce   sync.Once
	loopWG     sync.WaitGroup

	degraded   atomic.Uint64
	recoveries atomic.Uint64
	replayed   atomic.Uint64
	// refreshes counts the whole-table fetches mutations forced.
	refreshes atomic.Uint64

	mDegraded   *telemetry.Counter
	mRecoveries *telemetry.Counter
	mReplayed   *telemetry.Counter
	// Frame bytes over /cluster/batch, summed over shards.
	mBatchSent     *telemetry.Counter
	mBatchReceived *telemetry.Counter
	// Mutation bytes, summed over shards: request bodies sent, ack
	// frames received.
	mMutationSent     *telemetry.Counter
	mMutationReceived *telemetry.Counter
}

// latRingSize bounds the per-shard latency sample window the p99
// health figure is computed over.
const latRingSize = 256

// shardConn is the router's view of one shard: transport, last-known
// statistics, and health counters.
type shardConn struct {
	name  string
	httpc *http.Client
	retry search.RetryPolicy

	mu      sync.Mutex
	up      bool
	lastErr string
	// stats is the last-known table. Its DF map is copied on write,
	// never mutated in place: cycle snapshots read it without the lock.
	// A change of stats.Instance means the shard restarted, bumping
	// restarts and flagging the shard for catch-up.
	stats shardStats
	lat   [latRingSize]float64
	latN  int // total samples ever; ring index = latN % latRingSize
	reqs  uint64
	errs  uint64
	// lastSeen is the wall time of the last successful exchange.
	lastSeen      time.Time
	restarts      uint64
	needsRecovery bool

	// Metric handles, nil until EnableMetrics.
	mReqs     *telemetry.Counter
	mErrs     *telemetry.Counter
	mUp       *telemetry.Gauge
	mLat      *telemetry.Histogram
	mRestarts *telemetry.Counter
}

// observe records one exchange's outcome under c.mu.
func (c *shardConn) observe(seconds float64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqs++
	if c.mReqs != nil {
		c.mReqs.Inc()
	}
	if err != nil {
		c.errs++
		c.up = false
		c.lastErr = err.Error()
		if c.mErrs != nil {
			c.mErrs.Inc()
		}
		if c.mUp != nil {
			c.mUp.Set(0)
		}
		return
	}
	c.up = true
	c.lastErr = ""
	c.lastSeen = time.Now()
	c.lat[c.latN%latRingSize] = seconds
	c.latN++
	if c.mUp != nil {
		c.mUp.Set(1)
	}
	if c.mLat != nil {
		c.mLat.Observe(seconds)
	}
}

// p99Locked computes the 99th-percentile latency (milliseconds) over
// the sample window. Caller holds c.mu.
func (c *shardConn) p99Locked() float64 {
	n := c.latN
	if n > latRingSize {
		n = latRingSize
	}
	if n == 0 {
		return 0
	}
	samples := append([]float64(nil), c.lat[:n]...)
	sort.Float64s(samples)
	idx := (99*n + 99) / 100 // ceil(0.99 n)
	if idx > 0 {
		idx--
	}
	return samples[idx] * 1000
}

// exchange POSTs (or GETs, body nil) one JSON control-plane call and
// decodes the reply into out (nil: discarded).
func (c *shardConn) exchange(ctx context.Context, method, path string, body []byte, out interface{}) error {
	return c.roundTrip(ctx, method, path, "application/json", body, func(reply io.Reader) error {
		if out == nil {
			io.Copy(io.Discard, reply)
			return nil
		}
		return json.NewDecoder(reply).Decode(out)
	})
}

// exchangeBatch POSTs one cycle's request frame to /cluster/batch and
// decodes the reply frame, reporting the reply's size in bytes. The
// reply is read through a pooled buffer and bounded by maxBatchReply
// whatever the shard sends; a frame that does not decode fails this
// shard's exchange like any other error.
func (c *shardConn) exchangeBatch(ctx context.Context, frame []byte) (resps []vsm.Response, received int, err error) {
	err = c.roundTrip(ctx, http.MethodPost, "/cluster/batch", batchContentType, frame, func(reply io.Reader) (err error) {
		bp := wireBufs.Get().(*[]byte)
		defer wireBufs.Put(bp)
		// One byte past the largest frame: a longer reply fails to decode
		// instead of being cut to something that might.
		if *bp, err = readBody(io.LimitReader(reply, frameHeader+maxBatchReply+1), *bp); err != nil {
			return err
		}
		received = len(*bp)
		resps, err = decodeBatchReply(*bp)
		return err
	})
	return resps, received, err
}

// roundTrip sends one wire call and hands a 200 reply's body to read,
// recording health and latency (read's time and error included).
// Non-2xx replies become errors carrying the shard's message.
func (c *shardConn) roundTrip(ctx context.Context, method, path, contentType string, body []byte, read func(io.Reader) error) error {
	start := time.Now()
	err := c.roundTripRaw(ctx, method, path, contentType, body, read)
	c.observe(time.Since(start).Seconds(), err)
	return err
}

func (c *shardConn) roundTripRaw(ctx context.Context, method, path, contentType string, body []byte, read func(io.Reader) error) error {
	build := func() (*http.Request, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.name+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", contentType)
		}
		return req, nil
	}
	resp, err := c.retry.Do(c.httpc, build)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &statusError{code: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
	}
	return read(resp.Body)
}

// statusError is a non-2xx shard reply. It is not transient: the shard
// is up and answered; retrying the identical request cannot help.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("shard returned %d: %s", e.code, e.msg)
}

// exchangeMutation sends one mutation and decodes the ack frame it is
// answered with, reporting the ack's size in bytes. Like a batch reply
// the ack is read through a pooled buffer, bounded whatever the shard
// sends.
func (c *shardConn) exchangeMutation(ctx context.Context, method, path string, body []byte) (ack mutationAck, received int, err error) {
	err = c.roundTrip(ctx, method, path, "application/json", body, func(reply io.Reader) (err error) {
		bp := wireBufs.Get().(*[]byte)
		defer wireBufs.Put(bp)
		if *bp, err = readBody(io.LimitReader(reply, frameHeader+maxMutationAck+1), *bp); err != nil {
			return err
		}
		received = len(*bp)
		ack, err = decodeMutationAck(*bp)
		return err
	})
	return ack, received, err
}

// setStats installs a whole table fetched from GET /cluster/stats,
// watching the shard's instance nonce: a change means the shard process
// restarted, so it is counted and the shard flagged for catch-up. A
// table older than the one held — the same instance at a lower version,
// a fetch an ack overtook — is not installed. Returns whether a restart
// was detected.
func (c *shardConn) setStats(st shardStats) (restarted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stats.Instance != 0 && st.Instance != c.stats.Instance {
		restarted = true
		c.restarts++
		c.needsRecovery = true
		if c.mRestarts != nil {
			c.mRestarts.Inc()
		}
	} else if st.Version < c.stats.Version {
		return false
	}
	c.stats = st
	return restarted
}

// applyAck folds a mutation's ack into the held table when it is the
// table's next version: the changed df entries go into a copy of the
// held map, df 0 deleting the term, and every other field is replaced.
// An ack the held table already covers (a whole-table fetch overtook
// it) changes nothing. Returns false for an ack it cannot apply — from
// another instance, or past a version gap — which leaves the table to a
// whole-table fetch.
func (c *shardConn) applyAck(ack *mutationAck) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	held := &c.stats
	switch {
	case held.Instance == 0 || ack.stats.Instance != held.Instance:
		return false
	case ack.stats.Version <= held.Version:
		return true
	case ack.stats.Version > held.Version+1:
		return false
	}
	df := maps.Clone(held.DF)
	if df == nil {
		df = make(map[string]int, len(ack.changed))
	}
	for _, e := range ack.changed {
		if e.DF == 0 {
			delete(df, e.Term)
		} else {
			df[e.Term] = e.DF
		}
	}
	c.stats = ack.stats
	c.stats.DF = df
	return true
}

// snapStats returns the last-known snapshot. The DF map inside is safe
// to read after the lock drops because updates copy it, never write it.
func (c *shardConn) snapStats() shardStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// New connects to every shard, verifies the cluster is coherent (all
// on one scoring function), seeds the statistics tables, and resumes
// global-ID assignment above the cluster-wide high-water mark. Without
// a journal every shard must be reachable; with one, down shards are
// tolerated — the replayed journal knows the gid high-water and the
// health loop re-admits them when they return.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	seen := make(map[string]bool, len(cfg.Shards))
	for _, s := range cfg.Shards {
		if seen[s] {
			return nil, fmt.Errorf("cluster: duplicate shard %q", s)
		}
		seen[s] = true
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 2 * time.Second
	}
	if cfg.MutationDeadline <= 0 {
		cfg.MutationDeadline = 5 * cfg.Deadline
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.Analyzer == nil {
		cfg.Analyzer = textproc.NewAnalyzer()
	}
	if cfg.SnapshotBytes <= 0 {
		cfg.SnapshotBytes = 4 << 20
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	titleCap := cfg.TitleCacheSize
	switch {
	case titleCap == 0:
		titleCap = 65536
	case titleCap < 0:
		titleCap = 0 // unbounded
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	r := &Router{
		byName:      make(map[string]*shardConn, len(cfg.Shards)),
		ring:        newRing(cfg.Shards),
		an:          cfg.Analyzer,
		deadline:    cfg.Deadline,
		mutDeadline: cfg.MutationDeadline,
		logf:        logf,
		titles:      make(map[corpus.DocID]string),
		titleCap:    titleCap,
		snapBytes:   cfg.SnapshotBytes,
		probeEvery:  cfg.ProbeInterval,
		stopCh:      make(chan struct{}),
	}
	for _, name := range cfg.Shards {
		c := &shardConn{
			name:  name,
			httpc: cfg.HTTPClient,
			retry: cfg.Retry,
		}
		r.shards = append(r.shards, c)
		r.byName[name] = c
	}

	journaledGid := corpus.DocID(-1)
	if cfg.JournalDir != "" {
		j, jst, err := openJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		r.journal = j
		r.pending = jst.Pending
		r.replayed.Add(uint64(jst.Replayed))
		if jst.NextGid > 0 {
			journaledGid = jst.NextGid - 1
		}
		if jst.TornBytes > 0 {
			logf("cluster: journal had a torn tail (%d bytes truncated); the cut record was never acknowledged", jst.TornBytes)
		}
		if len(jst.Pending) > 0 {
			logf("cluster: journal replayed %d record(s), %d still pending shard durability", jst.Replayed, len(jst.Pending))
		}
		r.titleMu.Lock()
		for gid, title := range jst.Titles {
			r.titles[gid] = title
		}
		r.boundTitlesLocked()
		r.titleMu.Unlock()
	}

	maxGid := journaledGid
	for _, c := range r.shards {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
		var st shardStats
		err := c.exchange(ctx, http.MethodGet, "/cluster/stats", nil, &st)
		cancel()
		if err != nil {
			if r.journal == nil {
				return nil, fmt.Errorf("cluster: shard %s unreachable: %w", c.name, err)
			}
			logf("cluster: shard %s unreachable at startup (%v); health loop will re-admit it", c.name, err)
			continue
		}
		if err := r.noteScoring(c.name, st.Scoring); err != nil {
			r.closeJournal()
			return nil, err
		}
		c.setStats(st)
		if st.MaxGid > maxGid {
			maxGid = st.MaxGid
		}
	}
	r.nextGid = maxGid + 1

	if r.journal != nil {
		// Startup catch-up: re-drive whatever the journal says the shards
		// may have missed, then keep doing so in the background.
		r.ingestMu.Lock()
		for _, c := range r.shards {
			if r.shardLagsLocked(c) {
				c.mu.Lock()
				c.needsRecovery = true
				c.mu.Unlock()
				if err := r.driveShardLocked(c, 0); err != nil {
					logf("cluster: startup catch-up for %s: %v (health loop will retry)", c.name, err)
				}
			}
		}
		r.pruneLocked()
		r.ingestMu.Unlock()
		if !cfg.DisableHealthLoop {
			r.loopWG.Add(1)
			go r.healthLoop()
		}
	}
	return r, nil
}

// noteScoring records or checks the cluster scoring function; shards
// are checked lazily because a journaled router may start before any
// shard is reachable.
func (r *Router) noteScoring(shard, scoring string) error {
	if scoring == "" {
		return nil
	}
	r.scoringMu.Lock()
	defer r.scoringMu.Unlock()
	if r.scoring == "" {
		r.scoring = scoring
		return nil
	}
	if scoring != r.scoring {
		return fmt.Errorf("cluster: shard %s scores with %s, cluster uses %s", shard, scoring, r.scoring)
	}
	return nil
}

// Scoring reports the cluster's scoring function name ("" until any
// shard has been reached on a journaled router that started all-down).
func (r *Router) Scoring() string {
	r.scoringMu.Lock()
	defer r.scoringMu.Unlock()
	return r.scoring
}

// closeJournal releases the journal during failed construction.
func (r *Router) closeJournal() {
	if r.journal != nil {
		r.journal.Close()
	}
}

// Close stops the health loop and, when journaling, compacts what it
// can into the snapshot and closes the WAL — the graceful-drain path.
// A closed router must not be used for further mutations.
func (r *Router) Close() error {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.loopWG.Wait()
	if r.journal == nil {
		return nil
	}
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	r.pruneLocked()
	if err := r.compactLocked(); err != nil && err != errJournalCrash {
		r.logf("cluster: final journal compaction: %v", err)
	}
	return r.journal.Close()
}

// healthLoop probes every shard on a fixed period, re-drives pending
// mutations to shards that lag the journal, and compacts the WAL.
func (r *Router) healthLoop() {
	defer r.loopWG.Done()
	t := time.NewTicker(r.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-t.C:
			r.Probe()
		}
	}
}

// Probe runs one health-loop iteration synchronously: probe every
// shard's stats, catch up lagging shards, prune shard-durable records,
// and compact the journal past the size threshold. Tests that disable
// the background loop call it directly.
func (r *Router) Probe() {
	for _, c := range r.shards {
		ctx, cancel := context.WithTimeout(context.Background(), r.deadline)
		var st shardStats
		err := c.exchange(ctx, http.MethodGet, "/cluster/stats", nil, &st)
		cancel()
		if err != nil {
			continue
		}
		if err := r.noteScoring(c.name, st.Scoring); err != nil {
			r.logf("%v", err)
			continue
		}
		if c.setStats(st) {
			r.logf("cluster: shard %s restarted (instance %x)", c.name, st.Instance)
		}
	}
	if r.journal == nil {
		return
	}
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	for _, c := range r.shards {
		c.mu.Lock()
		needs := c.needsRecovery
		c.mu.Unlock()
		if !needs && !r.shardLagsLocked(c) {
			continue
		}
		if err := r.driveShardLocked(c, 0); err != nil {
			r.logf("cluster: catch-up for %s: %v", c.name, err)
		}
	}
	r.pruneLocked()
	if r.journal.Size() > r.snapBytes {
		if err := r.compactLocked(); err != nil {
			r.logf("cluster: journal compaction: %v", err)
		}
	}
}

// shardLagsLocked reports whether any pending record targets c beyond
// its last-reported applied sequence. Caller holds ingestMu.
func (r *Router) shardLagsLocked(c *shardConn) bool {
	st := c.snapStats()
	for i := range r.pending {
		rec := &r.pending[i]
		if rec.rejected {
			continue
		}
		if rec.Seq > st.AppliedSeq && rec.targets(c.name) {
			return true
		}
	}
	return false
}

// driveShardLocked delivers, in sequence order, every pending record
// targeting c that its current instance has not yet applied. Delivery
// is conditional on the shard's instance nonce: a shard that restarted
// in between rejects with 412, and the drive refreshes its view and
// starts over from the new instance's durable baseline — which is what
// makes a stale cached applied-sequence harmless (over-delivery is
// idempotent; under-delivery can only follow a restart, and the nonce
// check catches every restart). freshSeq, when nonzero, marks the
// record whose first delivery this is; everything else delivered here
// counts as a replayed entry. Caller holds ingestMu; drives of distinct
// shards may run concurrently under it.
func (r *Router) driveShardLocked(c *shardConn, freshSeq uint64) error {
	for attempt := 0; ; attempt++ {
		if c.snapStats().Instance == 0 {
			if err := r.refresh(c); err != nil {
				return err
			}
		}
		err := r.sendPendingLocked(c, c.snapStats(), freshSeq)
		if err == nil {
			c.mu.Lock()
			recovered := c.needsRecovery
			c.needsRecovery = false
			c.mu.Unlock()
			if recovered {
				r.recoveries.Add(1)
				if r.mRecoveries != nil {
					r.mRecoveries.Inc()
				}
				r.logf("cluster: shard %s caught up with the journal", c.name)
			}
			return nil
		}
		var se *statusError
		if errors.As(err, &se) && se.code == http.StatusPreconditionFailed && attempt < 3 {
			// The shard restarted mid-drive and the failed exchange
			// refetched its table: start over from the new instance's
			// durable baseline.
			continue
		}
		return err
	}
}

// sendPendingLocked walks the pending records in sequence order and
// delivers c's share of each one the shard has not applied. Caller
// holds ingestMu.
func (r *Router) sendPendingLocked(c *shardConn, st shardStats, freshSeq uint64) error {
	for i := range r.pending {
		rec := &r.pending[i]
		// targets first: a delete's rejected flag belongs to the drive of
		// the shard it targets, which may run beside this one.
		if !rec.targets(c.name) || rec.rejected || rec.Seq <= st.AppliedSeq {
			continue
		}
		if del := rec.Delete; del != nil {
			err := r.mutate(c, http.MethodDelete,
				fmt.Sprintf("/cluster/doc/%d?seq=%d&instance=%d", del.Gid, rec.Seq, st.Instance), nil)
			if err != nil {
				var se *statusError
				if errors.As(err, &se) && se.code == http.StatusNotFound {
					// The document does not exist on the current, in-sync
					// instance: the delete can never succeed. Retire it.
					rec.rejected = true
					continue
				}
				return err
			}
		} else {
			var docs []ingestDoc
			for _, p := range rec.Places {
				if p.Shard == c.name {
					docs = p.Docs
					break
				}
			}
			if len(docs) == 0 {
				continue
			}
			body, err := json.Marshal(ingestRequest{Docs: docs, Seq: rec.Seq, IfInstance: st.Instance})
			if err != nil {
				return err
			}
			if err := r.mutate(c, http.MethodPost, "/cluster/index", body); err != nil {
				return err
			}
		}
		if rec.Seq != freshSeq {
			r.replayed.Add(1)
			if r.mReplayed != nil {
				r.mReplayed.Inc()
			}
		}
	}
	return nil
}

// mutate sends one mutation to c and applies the ack it is answered
// with. The router fetches the shard's whole table instead on three
// events: the ack came from another instance, the ack skipped a
// version, or the exchange failed — after which the shard may have
// applied the mutation all the same. A 404 is the one failure that
// changed nothing.
func (r *Router) mutate(c *shardConn, method, path string, body []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.mutDeadline)
	ack, received, err := c.exchangeMutation(ctx, method, path, body)
	cancel()
	if r.mMutationSent != nil {
		r.mMutationSent.Add(uint64(len(body)))
		r.mMutationReceived.Add(uint64(received))
	}
	if err != nil {
		var se *statusError
		if !errors.As(err, &se) || se.code != http.StatusNotFound {
			// Best effort: the caller reports the mutation's own failure,
			// and a shard that cannot answer this is refreshed by the next
			// exchange that reaches it.
			_ = r.refresh(c)
		}
		return err
	}
	if !c.applyAck(&ack) {
		if err := r.refresh(c); err != nil {
			// The mutation is in; the table catches up at the next ack or
			// probe.
			r.logf("cluster: stats refresh for %s: %v", c.name, err)
		}
	}
	return nil
}

// refresh fetches and installs the shard's whole table from GET
// /cluster/stats, counted in toppriv_cluster_stats_refreshes_total.
func (r *Router) refresh(c *shardConn) error {
	r.refreshes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), r.deadline)
	defer cancel()
	var st shardStats
	if err := c.exchange(ctx, http.MethodGet, "/cluster/stats", nil, &st); err != nil {
		return err
	}
	if err := r.noteScoring(c.name, st.Scoring); err != nil {
		return err
	}
	if c.setStats(st) {
		r.logf("cluster: shard %s restarted (instance %x)", c.name, st.Instance)
	}
	return nil
}

// pruneLocked drops pending records every target shard has made
// durable (and retired records). In-memory shards report durable
// sequence 0 forever, so their records — by design — never prune: the
// journal is the only durable copy. Caller holds ingestMu.
func (r *Router) pruneLocked() {
	keep := r.pending[:0]
	for i := range r.pending {
		rec := &r.pending[i]
		if rec.rejected {
			continue
		}
		durable := true
		for _, name := range rec.shardNames() {
			c := r.byName[name]
			if c == nil || c.snapStats().DurableSeq < rec.Seq {
				durable = false
				break
			}
		}
		if !durable {
			keep = append(keep, *rec)
		}
	}
	tail := r.pending[len(keep):]
	for i := range tail {
		tail[i] = journalRecord{}
	}
	r.pending = keep
}

// compactLocked snapshots the journal: next gid, pending records, and
// the title cache, then resets the WAL. Caller holds ingestMu.
func (r *Router) compactLocked() error {
	r.titleMu.RLock()
	titles := make(map[corpus.DocID]string, len(r.titles))
	for gid, t := range r.titles {
		titles[gid] = t
	}
	r.titleMu.RUnlock()
	pending := make([]journalRecord, 0, len(r.pending))
	for i := range r.pending {
		if !r.pending[i].rejected {
			pending = append(pending, r.pending[i])
		}
	}
	return r.journal.Compact(r.nextGid, pending, titles)
}

// SearchRequest executes one request through the full scatter-gather
// path (it is a one-member batch; the shards treat it identically).
func (r *Router) SearchRequest(ctx context.Context, req vsm.Request) (vsm.Response, error) {
	resps, err := r.SearchBatch(ctx, []vsm.Request{req})
	if err != nil {
		return vsm.Response{}, err
	}
	return resps[0], nil
}

// SearchBatch fans one cycle out to every shard in a single per-shard
// round-trip, merges each member's per-shard top-k lists, and reports
// per-shard outcomes. Shard failure degrades the response — merged
// survivor results plus Degraded and ShardStatus — and is never a
// whole-query error; only a dead parent context or a malformed request
// returns one.
func (r *Router) SearchBatch(ctx context.Context, reqs []vsm.Request) ([]vsm.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	// One statistics snapshot per cycle: every member scores against the
	// same collection even while ingest acks land, and the shards' BM25
	// members agree on avgdl, so the whole cycle shares one traversal.
	snap := make([]shardStats, len(r.shards))
	for i, c := range r.shards {
		snap[i] = c.snapStats()
	}
	members := make([]vsm.Request, len(reqs))
	for i, req := range reqs {
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: batch member %d: %w", i, err)
		}
		if req.Keep != nil {
			return nil, fmt.Errorf("cluster: batch member %d: keep predicates cannot cross the wire", i)
		}
		if req.Global != nil {
			return nil, fmt.Errorf("cluster: batch member %d: global stats are router-assigned", i)
		}
		terms := req.Terms
		if terms == nil {
			terms = r.an.Analyze(req.Query)
		}
		members[i] = vsm.Request{Terms: terms, K: req.K}
	}
	docs, totalLen := 0, int64(0)
	for i := range snap {
		docs += snap[i].Docs
		totalLen += snap[i].TotalLen
	}
	frame := appendBatchRequest(nil, docs, totalLen, members, func(term string) int {
		df := 0
		for i := range snap {
			df += snap[i].DF[term]
		}
		return df
	})

	type shardOut struct {
		resps    []vsm.Response
		received int
		err      error
	}
	outs := make([]shardOut, len(r.shards))
	var wg sync.WaitGroup
	for i, c := range r.shards {
		wg.Add(1)
		go func(i int, c *shardConn) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, r.deadline)
			defer cancel()
			resps, received, err := c.exchangeBatch(sctx, frame)
			if err == nil && len(resps) != len(reqs) {
				err = fmt.Errorf("shard answered %d members for %d queries", len(resps), len(reqs))
			}
			outs[i] = shardOut{resps, received, err}
		}(i, c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The caller's context died; the partial results are not a
		// degradation signal, they are an abandoned query.
		return nil, err
	}

	degraded := false
	status := make([]vsm.ShardStatus, len(r.shards))
	for i, c := range r.shards {
		status[i] = vsm.ShardStatus{Shard: c.name, OK: outs[i].err == nil}
		if outs[i].err != nil {
			status[i].Err = outs[i].err.Error()
			degraded = true
		}
		if r.mBatchSent != nil {
			r.mBatchSent.Add(uint64(len(frame)))
			r.mBatchReceived.Add(uint64(outs[i].received))
		}
	}
	if degraded {
		r.degraded.Add(1)
		if r.mDegraded != nil {
			r.mDegraded.Inc()
		}
	}

	resps := make([]vsm.Response, len(reqs))
	lists := make([][]vsm.Result, 0, len(r.shards))
	for j := range reqs {
		lists = lists[:0]
		for i := range outs {
			if outs[i].err != nil {
				continue
			}
			lists = append(lists, outs[i].resps[j].Hits)
			resps[j].Stats.Add(outs[i].resps[j].Stats)
		}
		resps[j].Hits = vsm.MergeTopK(lists, members[j].K)
		resps[j].Degraded = degraded
		resps[j].Shards = status
	}
	return resps, nil
}

// Add ingests documents: sequential global IDs, ring placement, one
// POST per involved shard with its documents in ascending gid order,
// the shards served concurrently. Unlike queries, mutations never
// degrade — the call waits for every shard, and a failed shard fails
// it. The gid range is committed before any shard is contacted: a
// shard that accepts maps its gids immediately, so after a partial
// failure the range is spent either way, and reusing it would bind the
// same gid to different documents (the accepting shard's idempotency
// check would silently drop the replacements). On error the documents
// already applied to other shards stay applied under their unreturned
// gids; retrying via a fresh Add assigns fresh IDs and at worst
// duplicates content, never corrupts placement.
// With a journal the contract strengthens: the record — gid burn and
// full placements — is fsynced before anything is delivered, success
// means journal-durable (not necessarily shard-delivered), and a
// delivery that fails leaves the record pending for the health loop to
// re-drive through the same idempotent path. No acknowledged document
// can be lost while the journal directory survives.
func (r *Router) Add(docs ...corpus.Document) ([]corpus.DocID, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()

	gids := make([]corpus.DocID, len(docs))
	perShard := make([][]ingestDoc, len(r.shards))
	for i, d := range docs {
		gid := r.nextGid + corpus.DocID(i)
		gids[i] = gid
		owner := r.ring.place(gid)
		d.ID = gid
		perShard[owner] = append(perShard[owner], ingestDoc{Gid: gid, Doc: d})
	}

	if r.journal != nil {
		rec := journalRecord{Base: r.nextGid, Burn: len(docs)}
		for i, batch := range perShard {
			if len(batch) > 0 {
				rec.Places = append(rec.Places, placeEntry{Shard: r.shards[i].name, Docs: batch})
			}
		}
		if err := r.journal.Append(&rec); err != nil {
			// Nothing durable, nothing delivered: the mutation never
			// happened and the gid range is not burned.
			return nil, fmt.Errorf("cluster: journal: %w", err)
		}
		r.nextGid += corpus.DocID(len(docs))
		r.pending = append(r.pending, rec)
		r.cacheTitles(docs, gids)
		errs := r.deliver(perShard, func(c *shardConn, _ []ingestDoc) error {
			return r.driveShardLocked(c, rec.Seq)
		})
		for i, err := range errs {
			if err != nil {
				r.logf("cluster: ingest to %s deferred: %v (journaled, will re-drive)", r.shards[i].name, err)
			}
		}
		r.pruneLocked()
		if r.journal.Size() > r.snapBytes {
			if err := r.compactLocked(); err != nil {
				r.logf("cluster: journal compaction: %v", err)
			}
		}
		return gids, nil
	}

	// Burn the range up front — see the contract above.
	r.nextGid += corpus.DocID(len(docs))
	errs := r.deliver(perShard, func(c *shardConn, batch []ingestDoc) error {
		body, err := json.Marshal(ingestRequest{Docs: batch})
		if err != nil {
			return err
		}
		return r.mutate(c, http.MethodPost, "/cluster/index", body)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: ingest to %s: %w", r.shards[i].name, err)
		}
	}
	r.cacheTitles(docs, gids)
	return gids, nil
}

// deliver runs send for every shard with documents in perShard, each on
// its own goroutine, and returns once all have: the errors by shard
// index.
func (r *Router) deliver(perShard [][]ingestDoc, send func(c *shardConn, docs []ingestDoc) error) []error {
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, docs := range perShard {
		if len(docs) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = send(r.shards[i], docs)
		}()
	}
	wg.Wait()
	return errs
}

// cacheTitles inserts the batch's titles into the bounded cache.
func (r *Router) cacheTitles(docs []corpus.Document, gids []corpus.DocID) {
	r.titleMu.Lock()
	for i, d := range docs {
		if d.Title != "" {
			r.titles[gids[i]] = d.Title
		}
	}
	r.boundTitlesLocked()
	r.titleMu.Unlock()
}

// boundTitlesLocked evicts the lowest (oldest) gids down to the cap.
// Evicted titles still resolve: Title falls back to a shard fetch, and
// the journal snapshot carries the surviving cache across restarts.
// Caller holds titleMu.
func (r *Router) boundTitlesLocked() {
	if r.titleCap <= 0 || len(r.titles) <= r.titleCap {
		return
	}
	gids := make([]corpus.DocID, 0, len(r.titles))
	for gid := range r.titles {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids[:len(gids)-r.titleCap] {
		delete(r.titles, gid)
	}
}

// Delete tombstones one document on its owning shard. With a journal
// the delete is durable once journaled: if the shard is down the call
// succeeds and the health loop applies it on rejoin; only a reachable,
// in-sync shard answering "no such document" fails the call.
func (r *Router) Delete(id corpus.DocID) error {
	if id < 0 {
		return fmt.Errorf("cluster: no document %d", id)
	}
	c := r.shards[r.ring.place(id)]
	if r.journal != nil {
		r.ingestMu.Lock()
		defer r.ingestMu.Unlock()
		if id >= r.nextGid {
			return fmt.Errorf("cluster: no document %d", id)
		}
		rec := journalRecord{Delete: &deleteEntry{Shard: c.name, Gid: id}}
		if err := r.journal.Append(&rec); err != nil {
			return fmt.Errorf("cluster: journal: %w", err)
		}
		r.pending = append(r.pending, rec)
		if err := r.driveShardLocked(c, rec.Seq); err != nil {
			r.logf("cluster: delete %d on %s deferred: %v (journaled, will re-drive)", id, c.name, err)
		}
		// The drive retires a delete the shard rejected as unknown; that
		// is the one case the caller must hear about.
		rejected := false
		for i := range r.pending {
			if r.pending[i].Seq == rec.Seq {
				rejected = r.pending[i].rejected
				break
			}
		}
		r.pruneLocked()
		r.titleMu.Lock()
		delete(r.titles, id)
		r.titleMu.Unlock()
		if rejected {
			return fmt.Errorf("cluster: no document %d", id)
		}
		return nil
	}
	if err := r.mutate(c, http.MethodDelete, fmt.Sprintf("/cluster/doc/%d", id), nil); err != nil {
		var se *statusError
		if errors.As(err, &se) && se.code == http.StatusNotFound {
			return fmt.Errorf("cluster: no document %d", id)
		}
		return fmt.Errorf("cluster: delete on %s: %w", c.name, err)
	}
	r.titleMu.Lock()
	delete(r.titles, id)
	r.titleMu.Unlock()
	return nil
}

// Doc fetches one document from its owning shard.
func (r *Router) Doc(id corpus.DocID) (corpus.Document, bool) {
	if id < 0 {
		return corpus.Document{}, false
	}
	c := r.shards[r.ring.place(id)]
	ctx, cancel := context.WithTimeout(context.Background(), r.deadline)
	defer cancel()
	var doc corpus.Document
	if err := c.exchange(ctx, http.MethodGet, fmt.Sprintf("/cluster/doc/%d", id), nil, &doc); err != nil {
		return corpus.Document{}, false
	}
	return doc, true
}

// Title resolves a document title from the ingest-time cache, falling
// back to a shard fetch (and re-caching) on miss — e.g. for documents
// ingested before this router process started.
func (r *Router) Title(id corpus.DocID) (string, bool) {
	r.titleMu.RLock()
	t, ok := r.titles[id]
	r.titleMu.RUnlock()
	if ok {
		return t, true
	}
	doc, ok := r.Doc(id)
	if !ok {
		return "", false
	}
	if doc.Title != "" {
		r.titleMu.Lock()
		r.titles[id] = doc.Title
		r.boundTitlesLocked()
		r.titleMu.Unlock()
	}
	return doc.Title, doc.Title != ""
}

// ComputeStats aggregates the shards' last-reported index shapes.
// Additive fields sum; NumTerms is the size of the union of the
// shards' live vocabularies (shards index independent term sets, so
// summing would overcount shared terms); derived ratios recompute.
func (r *Router) ComputeStats() index.Stats {
	var out index.Stats
	terms := make(map[string]struct{})
	for _, c := range r.shards {
		st := c.snapStats()
		out.NumDocs += st.Docs
		out.NumPostings += st.Index.NumPostings
		if st.Index.MaxListLen > out.MaxListLen {
			out.MaxListLen = st.Index.MaxListLen
		}
		out.SizeBytes += st.Index.SizeBytes
		out.PostingsBytes += st.Index.PostingsBytes
		out.ResidentBytes += st.Index.ResidentBytes
		out.PaddedPIRBytes += st.Index.PaddedPIRBytes
		for t := range st.DF {
			terms[t] = struct{}{}
		}
	}
	out.NumTerms = len(terms)
	if out.NumTerms > 0 {
		out.MeanListLen = float64(out.NumPostings) / float64(out.NumTerms)
	}
	if out.NumDocs > 0 {
		out.BytesPerDoc = float64(out.PostingsBytes) / float64(out.NumDocs)
		out.ResidentPerDoc = float64(out.ResidentBytes) / float64(out.NumDocs)
	}
	return out
}

// ClusterHealth snapshots per-shard health for GET /stats.
func (r *Router) ClusterHealth() search.ClusterHealth {
	h := search.ClusterHealth{
		Shards:   make([]search.ShardHealth, len(r.shards)),
		Degraded: r.degraded.Load(),
	}
	for i, c := range r.shards {
		c.mu.Lock()
		h.Shards[i] = search.ShardHealth{
			Shard:     c.name,
			Up:        c.up,
			Docs:      c.stats.Docs,
			LastError: c.lastErr,
			Requests:  c.reqs,
			Errors:    c.errs,
			P99Millis: c.p99Locked(),
			Restarts:  c.restarts,
		}
		if !c.lastSeen.IsZero() {
			h.Shards[i].LastSeenUnix = c.lastSeen.Unix()
		}
		c.mu.Unlock()
	}
	h.Recoveries = r.recoveries.Load()
	h.ReplayedEntries = r.replayed.Load()
	if r.journal != nil {
		h.Journaled = true
		h.JournalBytes = r.journal.Size()
		r.ingestMu.Lock()
		h.PendingRecords = len(r.pending)
		r.ingestMu.Unlock()
	}
	return h
}

// EnableMetrics registers the router's cluster metrics: per-shard
// request/error counters, an up/down gauge, a shard-exchange latency
// histogram, and the degraded-query counter. Implements
// search.MetricsBackend, so search.NewServer wires it automatically.
func (r *Router) EnableMetrics(reg *telemetry.Registry, _ *telemetry.TraceRing) {
	reqs := reg.CounterVec("toppriv_cluster_shard_requests_total",
		"Wire exchanges attempted per shard (queries and mutations).", "shard")
	errs := reg.CounterVec("toppriv_cluster_shard_errors_total",
		"Failed wire exchanges per shard (transport failure, deadline, or non-2xx).", "shard")
	up := reg.GaugeVec("toppriv_cluster_shard_up",
		"Whether the shard's most recent exchange succeeded (1) or failed (0).", "shard")
	lat := reg.HistogramVec("toppriv_cluster_shard_seconds",
		"Latency of successful shard exchanges.", telemetry.DefaultLatencyBuckets, "shard")
	restarts := reg.CounterVec("toppriv_cluster_shard_restarts_total",
		"Shard process restarts observed (instance nonce changes between stats reports).", "shard")
	for _, c := range r.shards {
		c.mu.Lock()
		c.mReqs = reqs.With(c.name)
		c.mErrs = errs.With(c.name)
		c.mUp = up.With(c.name)
		c.mLat = lat.With(c.name)
		c.mRestarts = restarts.With(c.name)
		c.mRestarts.Add(c.restarts)
		if c.up {
			c.mUp.Set(1)
		}
		c.mu.Unlock()
	}
	batchBytes := reg.CounterVec("toppriv_cluster_batch_bytes_total",
		"Frame bytes exchanged over /cluster/batch, summed over shards: request frames sent, reply frames received.", "dir")
	r.mBatchSent = batchBytes.With("sent")
	r.mBatchReceived = batchBytes.With("received")
	mutationBytes := reg.CounterVec("toppriv_cluster_mutation_bytes_total",
		"Mutation bytes exchanged over /cluster/index and /cluster/doc, summed over shards: request bodies sent, ack frames received.", "dir")
	r.mMutationSent = mutationBytes.With("sent")
	r.mMutationReceived = mutationBytes.With("received")
	reg.CounterFunc("toppriv_cluster_stats_refreshes_total",
		"Whole-table GET /cluster/stats fetches a mutation forced: an ack from another shard instance or past a version gap, or a failed mutation exchange. 0 in steady state.",
		func() float64 { return float64(r.refreshes.Load()) })
	r.mDegraded = reg.Counter("toppriv_cluster_degraded_queries_total",
		"Query cycles answered without every shard (merged survivor results).")
	r.mRecoveries = reg.Counter("toppriv_cluster_recoveries_total",
		"Completed shard catch-ups: restarted or rejoined shards reconciled with the placement journal.")
	r.mRecoveries.Add(r.recoveries.Load())
	r.mReplayed = reg.Counter("toppriv_cluster_replayed_entries_total",
		"Journal records replayed at startup plus records re-driven to shards during catch-up.")
	r.mReplayed.Add(r.replayed.Load())
	if r.journal != nil {
		reg.GaugeFunc("toppriv_cluster_journal_bytes",
			"Placement journal WAL size in bytes (resets at snapshot compaction).", func() float64 {
				return float64(r.journal.Size())
			})
	}
	reg.GaugeFunc("toppriv_cluster_shards",
		"Number of shards this router scatters to.", func() float64 {
			return float64(len(r.shards))
		})
}
