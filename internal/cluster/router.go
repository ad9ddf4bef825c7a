package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/frame"
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
	// Defaults to 2s. A mutation exchange gets 5× Deadline: mutations
	// serialize under the router's ingest lock, so one hung shard must
	// not stall every later mutation, but they tolerate more latency
	// than a query cycle.
	Deadline time.Duration
	// Retry is the per-shard retry budget of a stream dial, sent again
	// after a refused or reset connection; a frame exchange is never
	// retried. The zero value retries nothing; a Max of 1–2 rides out a
	// shard restart's connection resets without inflating tail latency.
	Retry search.RetryPolicy
	// HTTPClient overrides the transport (nil = http.DefaultClient). The
	// router only dials through it: it opens a stream with one upgrade
	// request, and the frames that stream carries — cycles, mutations,
	// stats and documents — never pass through it, so its idle-connection
	// settings do not apply to them. Its Transport must hand over upgraded
	// connections, as *http.Transport does, and its Timeout must be zero.
	HTTPClient *http.Client
	// Analyzer processes raw query text exactly once, at the router;
	// shards only ever see analyzed terms. It must match the analyzer
	// the documents were indexed with. Defaults to textproc.NewAnalyzer.
	Analyzer *textproc.Analyzer
	// JournalDir makes the router's mutation log durable. Every Add and
	// Delete is a sequenced record in that log, delivered the same way
	// either way. With a journal a mutation is acknowledged once its
	// record is fsynced, the health loop catches up shards that miss it,
	// a record is dropped once every target shard saved it, and a
	// restarted router replays the log. Without one a mutation is
	// acknowledged once every target shard applied it, a record is
	// dropped once its delivery has run (a delivery failure is the
	// caller's error, and nothing of it is sent again), and a restart
	// keeps only what the shards hold.
	JournalDir string
	// ProbeInterval is the health loop's probe period. The loop fetches
	// every shard's stats table on its control stream, detects restarts,
	// re-drives pending mutations, and compacts the journal. Defaults to
	// 1s. The loop only runs when journaling is enabled.
	ProbeInterval time.Duration
	// Logf receives recovery-path diagnostics (nil = silent).
	Logf func(format string, args ...interface{})

	// Hooks for this package's tests: a mutation deadline other than
	// 5× Deadline, a title-cache cap other than titleCacheSize, and no
	// background health loop (the tests drive Probe themselves).
	mutationDeadline time.Duration
	titleCap         int
	noHealthLoop     bool
}

const (
	// snapshotBytes is the WAL size past which the journal is compacted.
	snapshotBytes = 4 << 20
	// titleCacheSize bounds the gid → title cache; the lowest (oldest)
	// gids are evicted past it. Evicted titles still resolve through the
	// owning shard, and the journal snapshot carries the cache across
	// restarts.
	titleCacheSize = 65536
	// maxIdleStreams bounds the streams of one kind kept open to one
	// shard between exchanges: one per cycle the router runs at once, up
	// to this many, and one for mutations, which a shard receives one at
	// a time. A stream returned to a full pool is closed.
	maxIdleStreams = 16
)

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
	// It also guards the mutation log: pending — the records not yet
	// settled on every target shard, in ascending Seq order — and
	// nextSeq, the next record's sequence when no journal assigns it.
	ingestMu sync.Mutex
	nextGid  corpus.DocID
	nextSeq  uint64
	pending  []journalRecord
	// firstSeq is the log's next sequence when New returned, above every
	// sequence the shards reached then had applied. A shard first reached
	// later that has applied firstSeq or more was driven by another log.
	firstSeq uint64

	// journal, when non-nil, makes the log durable: Add/Delete return
	// success once their record is fsynced, and delivery failures leave
	// the record pending for the health loop to re-drive.
	journal *journal

	// titles caches gid → title at ingest time so result rendering
	// needs no per-hit shard round-trip, bounded to titleCap entries
	// (lowest gids evicted first). Misses — eviction, or a router
	// restart — fall back to fetching the document from its shard.
	titleMu  sync.RWMutex
	titles   map[corpus.DocID]string
	titleCap int
	// titleLow is the eviction low-water mark: every cached gid is at or
	// above it, and nothing below it is cached again.
	titleLow corpus.DocID

	probeEvery time.Duration
	stopCh     chan struct{}
	stopOnce   sync.Once
	loopWG     sync.WaitGroup

	degraded   atomic.Uint64
	recoveries atomic.Uint64
	replayed   atomic.Uint64
	// refreshes counts the whole-table fetches mutations forced.
	refreshes atomic.Uint64
	// dials counts the streams opened, of every kind; redials the pooled
	// streams found closed and replaced in the middle of an exchange.
	dials   atomic.Uint64
	redials atomic.Uint64

	// Cycle frame bytes over the shards' streams, summed over shards.
	mBatchSent     *telemetry.Counter
	mBatchReceived *telemetry.Counter
	// Mutation bytes, summed over shards: mutation frames sent, ack
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
	// foreign, while set, is why the shard gets no mutations: it was
	// first reached having applied sequences this router's log never
	// assigned, and has not since restarted without them (checkLog).
	foreign error

	// streamMu guards idle, the streams open between exchanges by kind
	// (most recently used last), and streamsClosed, set once the router
	// closed them for good.
	streamMu      sync.Mutex
	idle          map[*streamKind][]*stream
	streamsClosed bool

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

// statusError is a non-2xx shard reply. It is not transient: the shard
// is up and answered; retrying the identical request cannot help.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("shard returned %d: %s", e.code, e.msg)
}

// stream is one open stream to a shard's GET /cluster/stream (wire.go),
// carrying one exchange of its kind at a time.
type stream struct {
	kind *streamKind
	rwc  io.ReadWriteCloser
	br   *bufio.Reader
}

// dialStream opens a stream of kind to c: one GET /cluster/stream
// upgraded to kind's token, through c's client and retry budget. Any
// answer but 101 is the shard's error.
func (c *shardConn) dialStream(ctx context.Context, kind *streamKind) (*stream, error) {
	resp, err := c.retry.Do(c.httpc, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.name+"/cluster/stream", nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Connection", "Upgrade")
		req.Header.Set("Upgrade", kind.token)
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	switch {
	case resp.StatusCode != http.StatusSwitchingProtocols:
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &statusError{code: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
	case !strings.EqualFold(resp.Header.Get("Upgrade"), kind.token):
		resp.Body.Close()
		return nil, fmt.Errorf("cluster: shard upgraded to %q, not %q", resp.Header.Get("Upgrade"), kind.token)
	case !ok:
		resp.Body.Close()
		return nil, errors.New("cluster: the HTTP client hands over no upgraded connection (a Client.Timeout wraps it)")
	}
	return &stream{kind: kind, rwc: rwc, br: bufio.NewReader(rwc)}, nil
}

// exchange writes one request frame and reads the reply frame into buf's
// storage. ctx ending closes the stream, which fails the exchange with
// ctx's error whatever it had received.
func (s *stream) exchange(ctx context.Context, req, buf []byte) ([]byte, error) {
	stop := context.AfterFunc(ctx, func() { s.rwc.Close() })
	_, err := s.rwc.Write(req)
	buf = buf[:0]
	if err == nil {
		buf, err = readFrame(s.br, buf, s.kind.maxReply)
	}
	if !stop() {
		return buf, ctx.Err()
	}
	switch {
	case errors.Is(err, frame.ErrTorn) || errors.Is(err, frame.ErrChecksum):
		return buf, fmt.Errorf("cluster: %s frame: %w", s.kind.name, err)
	case err == io.EOF:
		return buf, errors.New("cluster: the shard closed the stream")
	case err == nil && s.br.Buffered() > 0:
		// A shard sends nothing it was not asked for: the stream's
		// framing is lost.
		return buf, fmt.Errorf("cluster: %s frame: %d bytes after the frame", s.kind.name, s.br.Buffered())
	}
	return buf, err
}

// takeStream returns c's most recently pooled stream of kind, nil if
// none.
func (c *shardConn) takeStream(kind *streamKind) *stream {
	c.streamMu.Lock()
	defer c.streamMu.Unlock()
	idle := c.idle[kind]
	n := len(idle)
	if n == 0 {
		return nil
	}
	s := idle[n-1]
	idle[n-1] = nil
	c.idle[kind] = idle[:n-1]
	return s
}

// putStream pools s for a later exchange, or closes it when its kind's
// pool is full or closed.
func (c *shardConn) putStream(s *stream) {
	c.streamMu.Lock()
	if !c.streamsClosed && len(c.idle[s.kind]) < maxIdleStreams {
		c.idle[s.kind] = append(c.idle[s.kind], s)
		c.streamMu.Unlock()
		return
	}
	c.streamMu.Unlock()
	s.rwc.Close()
}

// closeStreams closes c's pooled streams, and every stream put back
// afterwards.
func (c *shardConn) closeStreams() {
	c.streamMu.Lock()
	idle := c.idle
	c.idle, c.streamsClosed = nil, true
	c.streamMu.Unlock()
	for _, streams := range idle {
		for _, s := range streams {
			s.rwc.Close()
		}
	}
}

// exchange sends one request frame to c over one of its streams of kind,
// written and read on the calling goroutine, and decodes the reply into
// values that must not alias it, reporting its size in bytes. A stream
// that carried a whole reply, decoded or a refusal, goes back to c's
// pool; any other is closed. A pooled stream that fails before any reply
// byte arrives — the shard closed it while it idled, as a stopped or
// restarted shard does — is redialed once: cycles and control requests
// are read-only, and a shard skips a mutation it already applied, so
// sending any of them again is harmless.
func exchange[T any](r *Router, ctx context.Context, c *shardConn, kind *streamKind, req []byte, decode func([]byte) (T, error)) (out T, received int, err error) {
	start := time.Now()
	defer func() { c.observe(time.Since(start).Seconds(), err) }()
	bp := kind.bufs.Get().(*[]byte)
	defer kind.bufs.Put(bp)
	s := c.takeStream(kind)
	pooled := s != nil
	for {
		if s == nil {
			if s, err = c.dialStream(ctx, kind); err != nil {
				return out, 0, err
			}
			r.dials.Add(1)
		}
		*bp, err = s.exchange(ctx, req, *bp)
		if err == nil || !pooled || len(*bp) > 0 || ctx.Err() != nil {
			break
		}
		s.rwc.Close()
		s, pooled = nil, false
		r.redials.Add(1)
	}
	received = len(*bp)
	if err == nil {
		out, err = decodeReply(*bp, kind.maxReply, decode)
		var refused *statusError
		if err == nil || errors.As(err, &refused) {
			c.putStream(s)
			return out, received, err
		}
	}
	s.rwc.Close()
	return out, received, err
}

// install installs the stats frame f: a whole table, or an ack whose
// entries go into a copy of the held df map (df 0 deletes the term). A
// whole table from another instance is a restart, counted and flagged
// for catch-up. A frame older than the held table changes nothing; an
// ack from another instance or past a gap is an error, as is a table
// check refuses, checking an ack's whole table only when docs fell.
func (c *shardConn) install(f *statsFrame, whole bool) (restarted bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	held, st := &c.stats, f.stats
	switch {
	case whole && held.Instance != 0 && st.Instance != held.Instance:
		restarted = true
	case st.Instance == held.Instance && (st.Version < held.Version || !whole && st.Version == held.Version):
		return false, nil
	case !whole && (held.Instance == 0 || st.Instance != held.Instance || st.Version != held.Version+1):
		return false, fmt.Errorf("cluster: stats: an ack of version %d of instance %x, the table held is version %d of %x",
			st.Version, st.Instance, held.Version, held.Instance)
	}
	if whole || held.DF == nil {
		st.DF = make(map[string]int, len(f.entries))
	} else {
		st.DF = maps.Clone(held.DF)
	}
	for _, e := range f.entries {
		switch {
		case e.DF > st.Docs:
			return false, fmt.Errorf("cluster: stats: term %q has df %d, above %d documents", e.Term, e.DF, st.Docs)
		case e.DF == 0 && !whole:
			delete(st.DF, e.Term)
		default:
			st.DF[e.Term] = e.DF
		}
	}
	if err := st.check(whole || st.Docs < held.Docs); err != nil {
		return false, err
	}
	if restarted {
		c.restarts++
		c.needsRecovery = true
		if c.mRestarts != nil {
			c.mRestarts.Inc()
		}
	}
	c.stats = st
	return restarted, nil
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
// global-ID assignment above the cluster-wide high-water mark and the
// mutation log above every sequence a reachable shard has applied.
// Without a journal every shard must be reachable; with one, down
// shards are tolerated — the replayed journal knows the gid high-water
// and the health loop re-admits them when they return. A New that fails
// leaves no stream open.
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
	if cfg.mutationDeadline <= 0 {
		cfg.mutationDeadline = 5 * cfg.Deadline
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.Analyzer == nil {
		cfg.Analyzer = textproc.NewAnalyzer()
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.titleCap <= 0 {
		cfg.titleCap = titleCacheSize
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
		mutDeadline: cfg.mutationDeadline,
		logf:        logf,
		titles:      make(map[corpus.DocID]string),
		titleCap:    cfg.titleCap,
		probeEvery:  cfg.ProbeInterval,
		stopCh:      make(chan struct{}),
	}
	for _, name := range cfg.Shards {
		c := &shardConn{
			name:  name,
			httpc: cfg.HTTPClient,
			retry: cfg.Retry,
			idle:  make(map[*streamKind][]*stream),
		}
		r.shards = append(r.shards, c)
		r.byName[name] = c
	}

	maxGid, maxSeq := corpus.DocID(-1), uint64(0)
	for _, c := range r.shards {
		st, err := r.fetchStats(c)
		switch {
		case errors.Is(err, errMixedScoring):
			r.Close()
			return nil, err
		case err != nil && cfg.JournalDir == "":
			r.Close()
			return nil, fmt.Errorf("cluster: shard %s unreachable: %w", c.name, err)
		case err != nil:
			logf("cluster: shard %s unreachable at startup (%v); health loop will re-admit it", c.name, err)
		default:
			maxGid = max(maxGid, st.MaxGid)
			maxSeq = max(maxSeq, st.AppliedSeq)
		}
	}
	// The log starts above every sequence a shard has applied, so that
	// nothing it sends is mistaken for a replay of what an earlier log —
	// a lost journal, or none — sent.
	r.firstSeq = maxSeq + 1
	if cfg.JournalDir != "" {
		j, jst, err := openJournal(cfg.JournalDir)
		if err != nil {
			r.Close()
			return nil, err
		}
		j.nextSeq = max(j.nextSeq, r.firstSeq)
		r.firstSeq = j.nextSeq
		r.journal = j
		r.pending = jst.Pending
		r.replayed.Add(uint64(jst.Replayed))
		maxGid = max(maxGid, jst.NextGid-1)
		if jst.TornBytes > 0 {
			logf("cluster: journal had a torn tail (%d bytes truncated); the cut record was never acknowledged", jst.TornBytes)
		}
		if len(jst.Pending) > 0 {
			logf("cluster: journal replayed %d record(s), %d still pending shard durability", jst.Replayed, len(jst.Pending))
		}
		r.titleLow = jst.NextGid
		for gid, title := range jst.Titles {
			r.titles[gid] = title
			r.titleLow = min(r.titleLow, gid)
		}
		r.boundTitlesLocked()
	}
	r.nextSeq = r.firstSeq
	r.nextGid = maxGid + 1

	// Startup catch-up: re-drive whatever the log says the shards may
	// have missed; with a journal, keep doing so in the background.
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
	if r.journal != nil && !cfg.noHealthLoop {
		r.loopWG.Add(1)
		go r.healthLoop()
	}
	return r, nil
}

// errMixedScoring marks a shard that scores with another function than
// the cluster's.
var errMixedScoring = errors.New("cluster: mixed scoring")

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
		return fmt.Errorf("%w: shard %s scores with %s, cluster uses %s", errMixedScoring, shard, scoring, r.scoring)
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

// fetchStats fetches c's whole table on a control stream, checks its
// scoring function and installs it, logging a restart. After New
// returned, each table also decides whether c was driven by another
// mutation log (checkLog). The table returned has no DF.
func (r *Router) fetchStats(c *shardConn) (shardStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.deadline)
	defer cancel()
	f, _, err := exchange(r, ctx, c, controlStreams, appendControl(nil, ctlStats, 0), decodeStats)
	st := f.stats
	if err != nil {
		return st, err
	}
	if err := r.noteScoring(c.name, st.Scoring); err != nil {
		return st, err
	}
	if r.firstSeq > 0 {
		if msg := c.checkLog(&st, r.firstSeq); msg != "" {
			r.logf("%s", msg)
		}
	}
	restarted, err := c.install(&f, true)
	if restarted {
		r.logf("cluster: shard %s restarted (instance %x)", c.name, st.Instance)
	}
	return st, err
}

// checkLog refuses c every mutation when st is the first table the
// router receives from c and has applied firstSeq or more: another log
// drove c. A shard this router drove may restart at or above firstSeq,
// so only a foreign shard's new instance below firstSeq — its directory
// emptied — lifts the refusal. Returns what changed, "" if nothing did.
func (c *shardConn) checkLog(st *shardStats, firstSeq uint64) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.stats.Instance == 0 && st.AppliedSeq >= firstSeq:
		c.foreign = fmt.Errorf("cluster: shard %s has applied sequence %d of another mutation log (this router's log began at %d); "+
			"it gets no mutations from this router: restart the router on the journal that drove the shard, or empty the shard's directory and restart it",
			c.name, st.AppliedSeq, firstSeq)
		return c.foreign.Error()
	case c.foreign != nil && st.Instance != c.stats.Instance && st.AppliedSeq < firstSeq:
		c.foreign = nil
		return fmt.Sprintf("cluster: shard %s restarted holding no sequence of another mutation log; it gets mutations again", c.name)
	}
	return ""
}

// refusal is why c gets no mutations, nil while it gets them.
func (c *shardConn) refusal() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.foreign
}

// Close stops the health loop, closes the streams and, when
// journaling, compacts what it can into the snapshot and closes the WAL
// — the graceful-drain path. A closed router must not be used for
// further mutations; a cycle still running has its stream closed when
// it ends.
func (r *Router) Close() error {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.loopWG.Wait()
	for _, c := range r.shards {
		c.closeStreams()
	}
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
// shard's stats, catch up lagging shards, prune settled records, and
// compact the journal past the size threshold. Tests that disable
// the background loop call it directly.
func (r *Router) Probe() {
	for _, c := range r.shards {
		if _, err := r.fetchStats(c); errors.Is(err, errMixedScoring) {
			r.logf("%v", err)
		}
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
}

// shardLagsLocked reports whether any pending record targets c beyond
// its last-reported applied sequence. Caller holds ingestMu.
func (r *Router) shardLagsLocked(c *shardConn) bool {
	st := c.snapStats()
	for i := range r.pending {
		rec := &r.pending[i]
		if sh := rec.share(c.name); sh != nil && !sh.rejected && rec.Seq > st.AppliedSeq {
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
// check catches every restart). A foreign shard gets nothing. freshSeq,
// when nonzero, marks the record whose first delivery this is;
// everything else delivered here counts as a replayed entry. Caller
// holds ingestMu; drives of distinct shards may run concurrently under
// it.
func (r *Router) driveShardLocked(c *shardConn, freshSeq uint64) error {
	for attempt := 0; ; attempt++ {
		if c.snapStats().Instance == 0 {
			if err := r.refresh(c); err != nil {
				return err
			}
		}
		if err := c.refusal(); err != nil {
			return err
		}
		err := r.sendPendingLocked(c, c.snapStats(), freshSeq)
		if err == nil {
			c.mu.Lock()
			recovered := c.needsRecovery
			c.needsRecovery = false
			c.mu.Unlock()
			if recovered {
				r.recoveries.Add(1)
				r.logf("cluster: shard %s caught up with the mutation log", c.name)
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
		sh := rec.share(c.name)
		if sh == nil || sh.rejected || rec.Seq <= st.AppliedSeq {
			continue
		}
		err := r.mutate(c, appendMutation(nil, rec.Seq, st.Instance, sh.Body))
		var se *statusError
		if errors.As(err, &se) && se.code == http.StatusNotFound {
			// The current, in-sync instance can never apply the share:
			// a delete of a document it never held. Retire it.
			sh.rejected = true
			continue
		}
		if err != nil {
			return err
		}
		if rec.Seq != freshSeq {
			r.replayed.Add(1)
		}
	}
	return nil
}

// mutate sends one mutation to c and installs the ack it is answered
// with. The router fetches the shard's whole table instead when the ack
// cannot be installed — it came from another instance, skipped a version
// or carries a table no shard reports — or the exchange failed, after
// which the shard may have applied the mutation all the same. A 404 is
// the one failure that changed nothing.
func (r *Router) mutate(c *shardConn, frame []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.mutDeadline)
	ack, received, err := exchange(r, ctx, c, mutationStreams, frame, decodeStats)
	cancel()
	if r.mMutationSent != nil {
		r.mMutationSent.Add(uint64(len(frame)))
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
	if _, err := c.install(&ack, false); err != nil {
		if err := r.refresh(c); err != nil {
			// The mutation is in; the table catches up at the next ack or
			// probe.
			r.logf("cluster: stats refresh for %s: %v", c.name, err)
		}
	}
	return nil
}

// refresh fetches c's whole table (fetchStats) because a mutation
// forced it, counted in toppriv_cluster_stats_refreshes_total.
func (r *Router) refresh(c *shardConn) error {
	r.refreshes.Add(1)
	_, err := r.fetchStats(c)
	return err
}

// pruneLocked drops the settled records, then compacts a journal grown
// past snapshotBytes. Caller holds ingestMu.
func (r *Router) pruneLocked() {
	keep := r.pending[:0]
	for i := range r.pending {
		if rec := &r.pending[i]; !r.settled(rec) {
			keep = append(keep, *rec)
		}
	}
	clear(r.pending[len(keep):])
	r.pending = keep
	if r.journal != nil && r.journal.Size() > snapshotBytes {
		if err := r.compactLocked(); err != nil {
			r.logf("cluster: journal compaction: %v", err)
		}
	}
}

// settled reports whether the log is done with rec: with a journal,
// once every target shard saved its share or retired it (never, on an
// in-memory shard: the journal is its only durable copy); without one,
// once its drive ran, delivered or not — a failed delivery was the
// caller's error. A refused (foreign) shard's DurableSeq counts another
// log's sequences, so it settles nothing until the refusal lifts.
func (r *Router) settled(rec *journalRecord) bool {
	if r.journal == nil {
		return true
	}
	for i := range rec.Shares {
		if rec.Shares[i].rejected {
			continue
		}
		c := r.byName[rec.Shares[i].Shard]
		if c == nil || c.refusal() != nil || c.snapStats().DurableSeq < rec.Seq {
			return false
		}
	}
	return true
}

// compactLocked snapshots the journal: next gid, pending records, and
// the title cache, then resets the WAL. Caller holds ingestMu and has
// just pruned.
func (r *Router) compactLocked() error {
	r.titleMu.RLock()
	titles := maps.Clone(r.titles)
	r.titleMu.RUnlock()
	return r.journal.Compact(r.nextGid, r.pending, titles)
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
// exchange on one of its streams, merges each member's per-shard top-k
// lists, and reports per-shard outcomes. Shard failure degrades the
// response — merged survivor results plus Degraded and ShardStatus — and
// is never a whole-query error; only a dead parent context or a
// malformed request returns one.
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
			resps, received, err := exchange(r, sctx, c, cycleStreams, frame, decodeBatchReply)
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
// record in the mutation log, and one mutation frame per involved shard
// with its documents in ascending gid order, the shards served
// concurrently. A shard's share over maxMutationBody, or a record the
// journal cannot take, fails the call before anything is logged. The
// gid range is burned once the record is logged, before any shard is
// contacted: a shard that accepts holds its gids immediately, so
// reusing the range after a partial failure would bind the same gid to
// different documents. Unlike queries, mutations never degrade. With a
// journal, success means the record is fsynced, and a shard that
// misses it is re-driven by the health loop: no acknowledged document
// can be lost while the journal directory survives. Without one,
// success means every shard applied its share, and a failed shard
// fails the call; the record is dropped all the same, so nothing of
// the failed call is sent again.
func (r *Router) Add(docs ...corpus.Document) ([]corpus.DocID, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()

	gids := make([]corpus.DocID, len(docs))
	perShard := make([][]corpus.Document, len(r.shards))
	for i, d := range docs {
		gid := r.nextGid + corpus.DocID(i)
		gids[i] = gid
		owner := r.ring.place(gid)
		d.ID = gid
		perShard[owner] = append(perShard[owner], d)
	}
	rec := journalRecord{Base: r.nextGid, Burn: len(docs)}
	for i, batch := range perShard {
		if len(batch) == 0 {
			continue
		}
		body := appendAdd(nil, batch)
		if len(body) > maxMutationBody {
			return nil, fmt.Errorf("cluster: the %d documents for %s take %d bytes, over the %d a mutation carries",
				len(batch), r.shards[i].name, len(body), maxMutationBody)
		}
		rec.Shares = append(rec.Shares, share{Shard: r.shards[i].name, Body: body})
	}
	if err := r.logLocked(&rec); err != nil {
		// Nothing logged, nothing delivered: the mutation never happened
		// and the gid range is not burned.
		return nil, err
	}
	r.nextGid += corpus.DocID(len(docs))
	r.cacheTitles(docs, gids)
	if err := r.deliverLocked(&rec, "ingest"); err != nil {
		return nil, err
	}
	return gids, nil
}

// logLocked appends rec to the mutation log: rec takes the log's next
// sequence — from the journal, which returns once rec is fsynced, or
// from nextSeq — and joins pending. Caller holds ingestMu.
func (r *Router) logLocked(rec *journalRecord) error {
	if r.journal != nil {
		if err := r.journal.Append(rec); err != nil {
			return fmt.Errorf("cluster: journal: %w", err)
		}
	} else {
		rec.Seq = r.nextSeq
		r.nextSeq++
	}
	r.pending = append(r.pending, *rec)
	return nil
}

// deliverLocked drives the shard of each of rec's shares, the shards
// served concurrently, then prunes the log, and applies the
// acknowledgement policy to the drives' failures: with a journal rec is
// durable and stays pending for the health loop, so a failure is logged
// and the mutation acknowledged; without one the first failure, in
// shard order, is the caller's. Caller holds ingestMu and has logged rec.
func (r *Router) deliverLocked(rec *journalRecord, what string) error {
	errs := make([]error, len(rec.Shares))
	var wg sync.WaitGroup
	for i := range rec.Shares {
		c := r.byName[rec.Shares[i].Shard]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.driveShardLocked(c, rec.Seq); err != nil {
				errs[i] = fmt.Errorf("%s on %s: %w", what, c.name, err)
			}
		}()
	}
	wg.Wait()
	r.pruneLocked()
	for _, err := range errs {
		switch {
		case err == nil:
		case r.journal != nil:
			r.logf("cluster: %v (journaled, will re-drive)", err)
		default:
			return fmt.Errorf("cluster: %w", err)
		}
	}
	return nil
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

// boundTitlesLocked evicts the lowest (oldest) gids down to the cap,
// raising the low-water mark past them: gids enter in ascending order,
// so the mark passes each gid once. Evicted titles still resolve:
// Title falls back to a shard fetch, and the journal snapshot carries
// the surviving cache across restarts. Caller holds titleMu.
func (r *Router) boundTitlesLocked() {
	for r.titleCap > 0 && len(r.titles) > r.titleCap {
		delete(r.titles, r.titleLow)
		r.titleLow++
	}
}

// Delete tombstones one document on its owning shard, through the
// mutation log like Add and under the same acknowledgement policy. It
// fails for a gid this router never assigned, or one the owning shard —
// reachable and in sync — has never held; deleting a document already
// deleted succeeds.
func (r *Router) Delete(id corpus.DocID) error {
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	if id < 0 || id >= r.nextGid {
		return fmt.Errorf("cluster: no document %d", id)
	}
	rec := journalRecord{Shares: []share{{Shard: r.shards[r.ring.place(id)].name, Body: appendDelete(nil, id)}}}
	if err := r.logLocked(&rec); err != nil {
		return err
	}
	r.titleMu.Lock()
	delete(r.titles, id)
	r.titleMu.Unlock()
	err := r.deliverLocked(&rec, fmt.Sprintf("delete %d", id))
	// The drive retires a delete the shard refused as unknown — through
	// the pending copy of rec, which shares its Shares — and that is the
	// one case the caller must hear about.
	if rec.Shares[0].rejected {
		return fmt.Errorf("cluster: no document %d", id)
	}
	return err
}

// Doc fetches one document from its owning shard on a control stream.
// A record under another gid than id's is no answer.
func (r *Router) Doc(id corpus.DocID) (corpus.Document, bool) {
	if id < 0 {
		return corpus.Document{}, false
	}
	c := r.shards[r.ring.place(id)]
	ctx, cancel := context.WithTimeout(context.Background(), r.deadline)
	defer cancel()
	doc, _, err := exchange(r, ctx, c, controlStreams, appendControl(nil, ctlDoc, id), decodeDoc)
	if err != nil || doc.ID != id {
		return corpus.Document{}, false
	}
	return doc, true
}

// Title resolves a document title from the ingest-time cache, falling
// back to a shard fetch on miss — e.g. for documents ingested before
// this router process started — and re-caching unless eviction has
// passed the gid.
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
	r.titleMu.Lock()
	if doc.Title != "" && id >= r.titleLow {
		r.titles[id] = doc.Title
		r.boundTitlesLocked()
	}
	r.titleMu.Unlock()
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
			Shard:      c.name,
			Up:         c.up,
			Docs:       c.stats.Docs,
			AppliedSeq: c.stats.AppliedSeq,
			DurableSeq: c.stats.DurableSeq,
			LastError:  c.lastErr,
			Requests:   c.reqs,
			Errors:     c.errs,
			P99Millis:  c.p99Locked(),
			Restarts:   c.restarts,
		}
		if c.foreign != nil {
			h.Shards[i].LastError = c.foreign.Error()
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
		"Wire exchanges attempted per shard (cycles, mutations, stats and document fetches).", "shard")
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
		"Cycle frame bytes exchanged over the shards' streams (GET /cluster/stream), summed over shards: request frames sent, reply and refusal frames received.", "dir")
	r.mBatchSent = batchBytes.With("sent")
	r.mBatchReceived = batchBytes.With("received")
	mutationBytes := reg.CounterVec("toppriv_cluster_mutation_bytes_total",
		"Mutation frame bytes exchanged over the shards' mutation streams (GET /cluster/stream), summed over shards: mutation frames sent, ack and refusal frames received.", "dir")
	r.mMutationSent = mutationBytes.With("sent")
	r.mMutationReceived = mutationBytes.With("received")
	reg.CounterFunc("toppriv_cluster_stream_dials_total",
		"Streams opened to shards (GET /cluster/stream upgrades), cycle, mutation and control. Flat once every shard has a cycle stream per concurrent cycle, a mutation stream and a control stream.",
		func() float64 { return float64(r.dials.Load()) })
	reg.CounterFunc("toppriv_cluster_stream_redials_total",
		"Pooled streams, of every kind, found closed before any reply byte and replaced within the exchange: one per stream a restarted or stopped shard left behind.",
		func() float64 { return float64(r.redials.Load()) })
	reg.CounterFunc("toppriv_cluster_stats_refreshes_total",
		"Whole stats tables fetched on a control stream because a mutation forced it: an ack from another shard instance, past a version gap or carrying a table no shard reports, or a failed mutation exchange. 0 in steady state.",
		func() float64 { return float64(r.refreshes.Load()) })
	reg.CounterFunc("toppriv_cluster_degraded_queries_total",
		"Query cycles answered without every shard (merged survivor results).",
		func() float64 { return float64(r.degraded.Load()) })
	reg.CounterFunc("toppriv_cluster_recoveries_total",
		"Completed shard catch-ups: restarted or rejoined shards reconciled with the placement journal.",
		func() float64 { return float64(r.recoveries.Load()) })
	reg.CounterFunc("toppriv_cluster_replayed_entries_total",
		"Journal records replayed at startup plus records re-driven to shards during catch-up.",
		func() float64 { return float64(r.replayed.Load()) })
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
