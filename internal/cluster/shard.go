package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/frame"
	"toppriv/internal/search"
	"toppriv/internal/segment"
)

// Shard serves one slice of the corpus over the /cluster/* wire
// schema, backed by an ordinary segment.Store. The shard is oblivious
// to the ring — the router decides placement — and its store holds
// each document under its global ID (gid). The router ingests each
// shard's documents in ascending gid order, so the store's tie-break
// (ascending ID) is a single index's, and hits leave the shard exactly
// as the store returns them.
//
// A shard opened with OpenShard is persistent: the applied journal
// sequence is saved atomically beside the store's crash-safe
// generation-numbered manifest, and recovered on restart.
// The title table needs no file of its own — titles live inside the
// documents the store already persists. Anything ingested after the
// last save is lost by kill -9 by design: the shard's durable sequence
// tells the router exactly which journaled mutations to re-drive.
type Shard struct {
	store *segment.Store
	cfg   ShardConfig

	// instance is a process-lifetime nonce; the router detects shard
	// restarts by watching it change across stats reports.
	instance uint64

	// mutMu serializes mutations and saves against each other, so a
	// save's store snapshot and its applied sequence always describe
	// the same state. Queries never take it. Ordered before statsMu.
	mutMu sync.Mutex

	// statsMu orders stats reads after whole mutations: a mutation
	// write-holds it across its store change, its version bump and its
	// ack, and a stats request read-holds it, so every table the shard
	// sends is the one its version names. Saves and queries never take
	// it. Ordered before mu.
	statsMu sync.RWMutex
	// version is 1 + the mutations this instance has applied: a stats
	// frame's first field is never a refusal's 0. Guarded by statsMu.
	version uint64

	mu sync.RWMutex
	// appliedSeq is the highest journal sequence applied; durableSeq is
	// its value as of the last completed save.
	appliedSeq uint64
	durableSeq uint64
	// dirty counts mutations since the last save.
	dirty int

	saveCh  chan struct{}
	closeCh chan struct{}
	wg      sync.WaitGroup
	closed  bool

	// streams are the open streams, guarded by mu; streamWG counts
	// their goroutines. A hijacked connection escapes the HTTP server's
	// Close and Shutdown, so the shard closes its streams itself
	// (dropStreams). scanCtx is their scans' context, cancelled by Close.
	streams   map[*shardStream]struct{}
	streamWG  sync.WaitGroup
	scanCtx   context.Context
	stopScans context.CancelFunc
}

// shardStream is one open stream: the hijacked connection, and the
// reader holding whatever the connection delivered past the upgrade.
type shardStream struct {
	conn net.Conn
	br   *bufio.Reader
}

// ShardConfig parameterizes a persistent shard.
type ShardConfig struct {
	// Dir is the persistence directory: the store's segments and
	// manifest, and SHARD.json with the applied journal sequence.
	// Empty means in-memory only.
	Dir string
	// SaveEvery triggers a background save after this many mutations
	// (ingest batches and deletes). Zero means 32.
	SaveEvery int
	// SaveInterval is the background saver's poll interval; a save runs
	// on the tick whenever unsaved mutations exist. Zero means 5s.
	SaveInterval time.Duration
	// Logf receives save-path diagnostics (nil = silent).
	Logf func(format string, args ...interface{})
}

func (c ShardConfig) withDefaults() ShardConfig {
	if c.SaveEvery == 0 {
		c.SaveEvery = 32
	}
	if c.SaveInterval == 0 {
		c.SaveInterval = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

const (
	shardMetaName    = "SHARD.json"
	shardMetaVersion = 2
)

// shardMeta is the sidecar written atomically after each store save. It
// always describes a state at or before the saved store's: a crash
// between store save and meta write leaves the meta one save behind,
// so the router re-drives mutations the store already holds, and
// ingest and delete skip them as replays.
type shardMeta struct {
	Version    int    `json:"version"`
	AppliedSeq uint64 `json:"applied_seq"`
}

// NewShard wraps a live store in the shard wire surface, in-memory
// only: nothing survives a restart, and the shard reports durable
// sequence 0 so a journaling router retains every mutation for replay.
func NewShard(store *segment.Store) *Shard {
	s := &Shard{
		store:    store,
		cfg:      ShardConfig{}.withDefaults(),
		instance: rand.Uint64() | 1,
		version:  1,
		saveCh:   make(chan struct{}, 1),
		closeCh:  make(chan struct{}),
		streams:  make(map[*shardStream]struct{}),
	}
	s.scanCtx, s.stopScans = context.WithCancel(context.Background())
	return s
}

// OpenShard opens a persistent shard in cfg.Dir: an existing store
// manifest and SHARD.json are recovered (a never-crashed and a crashed-
// and-recovered shard answer identically for everything durable), an
// empty directory starts a fresh shard. The background saver starts
// immediately.
func OpenShard(storeCfg segment.Config, cfg ShardConfig) (*Shard, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cluster: OpenShard requires a directory (use NewShard for in-memory)")
	}
	var store *segment.Store
	var err error
	haveManifest := segment.Saved(cfg.Dir)
	if haveManifest {
		store, err = segment.Load(cfg.Dir, storeCfg)
	} else {
		store, err = segment.Open(storeCfg)
	}
	if err != nil {
		return nil, err
	}
	s := NewShard(store)
	s.cfg = cfg
	if err := s.recover(haveManifest); err != nil {
		store.Close()
		return nil, err
	}
	s.wg.Add(1)
	go s.saveLoop()
	return s, nil
}

// recover reads the applied journal sequence back from SHARD.json.
func (s *Shard) recover(haveManifest bool) error {
	f, err := os.Open(filepath.Join(s.cfg.Dir, shardMetaName))
	if os.IsNotExist(err) {
		if haveManifest {
			// A store without SHARD.json is a -live directory, not a
			// shard's: its IDs were never assigned by a router.
			return fmt.Errorf("cluster: %s holds a store but no %s — not a shard directory", s.cfg.Dir, shardMetaName)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: shard meta: %w", err)
	}
	var meta shardMeta
	err = json.NewDecoder(f).Decode(&meta)
	f.Close()
	switch {
	case err != nil:
		return fmt.Errorf("cluster: shard meta corrupt: %w", err)
	case meta.Version == 1:
		return fmt.Errorf("cluster: %s in %s is version 1, whose store numbers documents apart from their gids; "+
			"rebuild the cluster: start every shard on an empty directory and the router on an empty journal, "+
			"then add the corpus through the router again", shardMetaName, s.cfg.Dir)
	case meta.Version != shardMetaVersion:
		return fmt.Errorf("cluster: shard meta: unsupported version %d", meta.Version)
	case !haveManifest:
		return fmt.Errorf("cluster: shard meta present but store manifest missing in %s", s.cfg.Dir)
	}
	s.appliedSeq = meta.AppliedSeq
	s.durableSeq = meta.AppliedSeq
	return nil
}

// Store exposes the backing store (for the standard search surface the
// shard process also serves).
func (s *Shard) Store() *segment.Store { return s.store }

// Persistent reports whether the shard saves to disk.
func (s *Shard) Persistent() bool { return s.cfg.Dir != "" }

// Mount attaches the shard's wire endpoint to a search server, beside
// the standard surface, sharing its HTTP instrumentation, and registers
// the open-stream gauge with its metrics. POST /index and DELETE /doc/
// answer 405: a document added past the router would take the gid of
// the router's next one.
func (s *Shard) Mount(srv *search.Server) {
	srv.Handle("/cluster/stream", http.HandlerFunc(s.handleStream))
	stray := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "a shard takes mutations from its router only", http.StatusMethodNotAllowed)
	})
	srv.Handle("POST /index", stray)
	srv.Handle("DELETE /doc/", stray)
	srv.Registry().GaugeFunc("toppriv_cluster_streams_open",
		"Streams (GET /cluster/stream), cycle, mutation and control, open on this shard.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.streams))
		})
}

// saveLoop is the background saver: it saves when kicked past the
// mutation threshold and on every interval tick with unsaved work.
func (s *Shard) saveLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.SaveInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.closeCh:
			return
		case <-s.saveCh:
		case <-tick.C:
			s.mu.RLock()
			dirty := s.dirty
			s.mu.RUnlock()
			if dirty == 0 {
				continue
			}
		}
		if err := s.Save(); err != nil {
			s.cfg.Logf("cluster: shard background save: %v", err)
		}
	}
}

// Save persists the store (segments + manifest, the existing
// generation-numbered crash-safe path) and then SHARD.json
// atomically. Mutations are held off for the duration so both files
// describe one state; queries proceed throughout. No-op without a
// persistence directory.
func (s *Shard) Save() error {
	if s.cfg.Dir == "" {
		return nil
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if err := s.store.Save(s.cfg.Dir); err != nil {
		return err
	}
	s.mu.RLock()
	meta := shardMeta{Version: shardMetaVersion, AppliedSeq: s.appliedSeq}
	s.mu.RUnlock()
	data, err := json.Marshal(meta)
	if err == nil {
		err = frame.WriteFileAtomic(s.cfg.Dir, shardMetaName, append(data, '\n'))
	}
	if err != nil {
		return fmt.Errorf("cluster: shard meta: %w", err)
	}
	s.mu.Lock()
	s.durableSeq = meta.AppliedSeq
	s.dirty = 0
	s.mu.Unlock()
	return nil
}

// Close stops the background saver, closes the open streams and waits
// for them, closes the store against further mutations, and takes a
// final save — the graceful-drain order, so nothing acknowledged before
// Close can miss the disk and no stream scans a closed store.
func (s *Shard) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.closeCh)
	s.wg.Wait()
	s.stopScans()
	s.dropStreams()
	s.store.Close()
	return s.Save()
}

// dropStreams closes the open streams' connections and waits for their
// goroutines. Once closed is set no stream opens afterwards, so none is
// left.
func (s *Shard) dropStreams() {
	s.mu.RLock()
	for st := range s.streams {
		st.conn.Close()
	}
	s.mu.RUnlock()
	s.streamWG.Wait()
}

// statsLocked snapshots the shard's live statistics for the router's
// merge; the df table only withDF, since an ack carries just the
// entries its mutation changed. Caller holds statsMu.
func (s *Shard) statsLocked(withDF bool) shardStats {
	st := shardStats{
		Version:    s.version,
		Instance:   s.instance,
		Persistent: s.Persistent(),
		Scoring:    s.store.Scoring().String(),
		Index:      s.store.ComputeStats(),
	}
	if withDF {
		st.Docs, st.TotalLen, st.DF = s.store.LocalStats()
	} else {
		st.Docs, st.TotalLen = s.store.LiveSize()
	}
	st.MaxGid = s.store.NextID() - 1
	s.mu.RLock()
	st.AppliedSeq = s.appliedSeq
	if s.Persistent() {
		st.DurableSeq = s.durableSeq
	}
	s.mu.RUnlock()
	return st
}

// handleStream upgrades GET /cluster/stream to a stream of the kind its
// Upgrade token names (wire.go) and serves it until it ends. The
// connection is the shard's once hijacked: the HTTP server neither times
// it out nor closes it.
func (s *Shard) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	kind := streamKindOf(r.Header.Get("Upgrade"))
	if kind == nil {
		tokens := cycleStreams.token + ", " + mutationStreams.token + ", " + controlStreams.token
		w.Header().Set("Connection", "Upgrade")
		w.Header().Set("Upgrade", tokens)
		http.Error(w, "Upgrade: one of "+tokens+" required", http.StatusUpgradeRequired)
		return
	}
	conn, br, err := upgradeStream(w, kind.token)
	if err != nil {
		return
	}
	st := &shardStream{conn: conn, br: br}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.streams[st] = struct{}{}
	s.streamWG.Add(1)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.streams, st)
		s.mu.Unlock()
		s.streamWG.Done()
	}()
	s.serve(st, kind)
}

// upgradeStream hijacks w's connection, clears the deadlines the HTTP
// server may have set on it, and answers 101 Switching Protocols to
// token. The reader holds whatever the router sent past its request.
func upgradeStream(w http.ResponseWriter, token string) (net.Conn, *bufio.Reader, error) {
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, "cluster: stream: "+err.Error(), http.StatusInternalServerError)
		return nil, nil, err
	}
	conn.SetDeadline(time.Time{})
	brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + token + "\r\n\r\n")
	if err := brw.Flush(); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, brw.Reader, nil
}

// serve answers st's request frames one at a time, each with kind's
// reply or a refusal frame, and closes st's connection once the stream
// ends: the router closed it, the shard is closing, or a frame lost the
// stream's framing — cut short, longer than kind's bound, failing its
// CRC, or followed by bytes the router sent before the reply. The
// refusal answering such a frame is the stream's last. A frame is read,
// and its answer built, in a buffer of kind's pool taken once the
// frame's first byte arrives, so an idle stream holds none.
func (s *Shard) serve(st *shardStream, kind *streamKind) {
	defer st.conn.Close()
	for {
		if _, err := st.br.Peek(1); err != nil {
			// The stream ended between frames, or its connection did.
			return
		}
		bp := kind.bufs.Get().(*[]byte)
		buf, err := readFrame(st.br, *bp, kind.maxRequest)
		lost := true
		switch {
		case errors.Is(err, frame.ErrTorn) || errors.Is(err, frame.ErrChecksum):
			err = fmt.Errorf("cluster: %s frame: %w", kind.name, err)
		case err != nil:
			return
		case st.br.Buffered() > 0:
			err = fmt.Errorf("cluster: %s frame: %d bytes after the frame", kind.name, st.br.Buffered())
		default:
			lost = false
		}
		status := http.StatusBadRequest
		if err == nil {
			buf, status, err = kind.handle(s, buf)
		}
		switch {
		case status == http.StatusBadRequest:
			buf = appendRefusal(buf[:0], status, "bad request: "+err.Error())
		case err != nil:
			buf = appendRefusal(buf[:0], status, err.Error())
		}
		_, err = st.conn.Write(buf)
		*bp = buf
		kind.bufs.Put(bp)
		if err != nil || lost {
			return
		}
	}
}

// cycle executes one request frame against the local store and builds
// its reply over the frame's storage, or returns the status to refuse it
// with. Every member carries the router's merged statistics, so the
// store's engine weighs query terms with cluster-wide N/df/avgdl while
// traversing only local postings.
func (s *Shard) cycle(frame []byte) ([]byte, int, error) {
	reqs, err := decodeBatchRequest(frame)
	if err != nil {
		return frame, http.StatusBadRequest, err
	}
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return frame, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err)
		}
	}
	resps, err := s.store.SearchBatch(s.scanCtx, reqs)
	if err != nil {
		return frame, http.StatusInternalServerError, err
	}
	return appendBatchReply(frame[:0], resps), http.StatusOK, nil
}

// mutate applies one mutation frame (wire.go) — an add or a delete —
// and builds its ack over the frame's storage, or returns the status to
// refuse it with. The frame must carry its log sequence, since the
// applied high-water is what tells a restarted router which records a
// shard still needs. It is refused with 412 when it is for another
// instance of the shard: the router's in-order catch-up baseline is valid
// only for the instance it was read from, so delivery to any other must
// bounce back to a fresh reconciliation instead of applying out of order.
func (s *Shard) mutate(frame []byte) ([]byte, int, error) {
	m, err := decodeMutation(frame)
	switch {
	case err != nil:
		return frame, http.StatusBadRequest, err
	case m.seq == 0:
		return frame, http.StatusBadRequest, errors.New("seq: a mutation must carry its log sequence, above 0")
	case m.ifInstance != 0 && m.ifInstance != s.instance:
		return frame, http.StatusPreconditionFailed, fmt.Errorf("instance mismatch: request for %x, shard is %x", m.ifInstance, s.instance)
	}
	return s.apply(frame[:0], &m)
}

// apply applies a mutation and appends its ack to dst, or returns the
// status to refuse it with. An add's gid at or above the store's next
// ID, and above the mutation's earlier gids, is fresh. One below the
// next ID is a replay — a router retry after a lost response, or a
// re-drive of its log after a crash — and is skipped: delivery is in
// order, so a gid below the next ID that the store lacks can only be a
// document deleted and compacted away after the save SHARD.json missed.
// Any other gid gets 409: adding it would break the ascending-gid order
// that keeps tie-breaks a single index's. A delete of a gid below the
// next ID that the store lacks is likewise a repeat, and acknowledged;
// whatever else refuses a delete gets 404, as a missing document does.
// The sequence advances the applied high-water even when nothing changes.
func (s *Shard) apply(dst []byte, m *mutation) ([]byte, int, error) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	next := s.store.NextID()
	last := next - 1
	fresh := make([]corpus.Document, 0, len(m.docs))
	for _, d := range m.docs {
		switch {
		case d.ID > last:
			fresh = append(fresh, d)
			last = d.ID
		case d.ID >= next:
			return dst, http.StatusConflict, fmt.Errorf("gid %d arrives out of order (next ID %d)", d.ID, last+1)
		}
	}
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	var changed []segment.TermDF
	var err error
	switch {
	case m.del:
		changed, err = s.store.DeleteDF(m.gid)
		if err != nil && !(m.gid < s.store.NextID() && errors.Is(err, segment.ErrNotFound)) {
			return dst, http.StatusNotFound, err
		}
	case len(fresh) > 0:
		if _, changed, err = s.store.AddDF(fresh...); err != nil {
			return dst, http.StatusInternalServerError, err
		}
	}
	// Record the mutation — the applied sequence, the dirty counter
	// (kicking the saver at threshold) and the stats version — and ack it.
	s.version++
	s.mu.Lock()
	s.appliedSeq = max(s.appliedSeq, m.seq)
	s.dirty++
	kick := s.cfg.Dir != "" && s.dirty >= s.cfg.SaveEvery
	s.mu.Unlock()
	if kick {
		select {
		case s.saveCh <- struct{}{}:
		default:
		}
	}
	st := s.statsLocked(false)
	return appendStats(dst, &st, changed), http.StatusOK, nil
}

// control answers one control request (wire.go) over its frame's
// storage: the shard's whole stats table, or one document.
func (s *Shard) control(req []byte) ([]byte, int, error) {
	op, gid, err := decodeControl(req)
	if err != nil {
		return req, http.StatusBadRequest, err
	}
	if op == ctlStats {
		s.statsMu.RLock()
		st := s.statsLocked(true)
		s.statsMu.RUnlock()
		return appendStats(req[:0], &st, nil), http.StatusOK, nil
	}
	doc, ok := s.store.Doc(gid)
	if !ok {
		return req, http.StatusNotFound, fmt.Errorf("no document %d", gid)
	}
	return appendDoc(req[:0], &doc), http.StatusOK, nil
}
