package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"toppriv/internal/corpus"
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
	// ack, and GET /cluster/stats read-holds it, so every table the shard
	// sends is the one its version names. Saves and queries never take
	// it. Ordered before mu.
	statsMu sync.RWMutex
	// version counts the mutations this instance has applied. Guarded by
	// statsMu.
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
	return &Shard{
		store:    store,
		cfg:      ShardConfig{}.withDefaults(),
		instance: rand.Uint64() | 1,
		saveCh:   make(chan struct{}, 1),
		closeCh:  make(chan struct{}),
	}
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
	haveManifest := false
	if _, serr := os.Stat(filepath.Join(cfg.Dir, "MANIFEST.json")); serr == nil {
		haveManifest = true
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

// Mount attaches the shard's wire endpoints to a search server, beside
// the standard surface, sharing its HTTP instrumentation.
func (s *Shard) Mount(srv *search.Server) {
	srv.Handle("/cluster/batch", http.HandlerFunc(s.handleBatch))
	srv.Handle("/cluster/stats", http.HandlerFunc(s.handleStats))
	srv.Handle("/cluster/index", http.HandlerFunc(s.handleIngest))
	srv.Handle("/cluster/doc/", http.HandlerFunc(s.handleDoc))
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

// noteMutation bumps the dirty counter (caller holds s.mu) and returns
// whether the save threshold tripped.
func (s *Shard) noteMutationLocked() bool {
	s.dirty++
	return s.cfg.Dir != "" && s.dirty >= s.cfg.SaveEvery
}

func (s *Shard) kickSave() {
	select {
	case s.saveCh <- struct{}{}:
	default:
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
	if err := writeJSONAtomic(s.cfg.Dir, shardMetaName, &meta); err != nil {
		return fmt.Errorf("cluster: shard meta: %w", err)
	}
	s.mu.Lock()
	s.durableSeq = meta.AppliedSeq
	s.dirty = 0
	s.mu.Unlock()
	return nil
}

// Close stops the background saver, closes the store against further
// mutations, and takes a final save — the graceful-drain order, so
// nothing acknowledged before Close can miss the disk.
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
	s.store.Close()
	return s.Save()
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

func (s *Shard) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	s.statsMu.RLock()
	st := s.statsLocked(true)
	s.statsMu.RUnlock()
	writeJSON(w, st)
}

// handleBatch executes one cycle against the local store. Every member
// carries the router's merged statistics, so the store's engine weighs
// query terms with cluster-wide N/df/avgdl while traversing only local
// postings. Request and reply are one frame each (wire.go); a body of
// any other content type is a router of another release and gets 415.
func (s *Shard) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if r.Header.Get("Content-Type") != batchContentType {
		http.Error(w, "Content-Type must be "+batchContentType, http.StatusUnsupportedMediaType)
		return
	}
	// One buffer serves both directions: the decoded requests alias
	// nothing in it, so the reply is built over the request.
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	var err error
	if *bp, err = readBody(http.MaxBytesReader(w, r.Body, frameHeader+maxBatchRequest), *bp); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	reqs, err := decodeBatchRequest(*bp)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			http.Error(w, fmt.Sprintf("bad request: query %d: %v", i, err), http.StatusBadRequest)
			return
		}
	}
	resps, err := s.store.SearchBatch(r.Context(), reqs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	*bp = appendBatchReply((*bp)[:0], resps)
	w.Header().Set("Content-Type", batchContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	w.Write(*bp)
}

// handleIngest adds router-placed documents under their gids; see
// ingest for which ones it skips and which requests it refuses.
func (s *Shard) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var ir ingestRequest
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20)).Decode(&ir)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if ir.IfInstance != 0 && ir.IfInstance != s.instance {
		http.Error(w, fmt.Sprintf("instance mismatch: request for %x, shard is %x", ir.IfInstance, s.instance), http.StatusPreconditionFailed)
		return
	}
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	var status int
	if *bp, status, err = s.ingest((*bp)[:0], &ir); err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	writeAck(w, *bp)
}

// ingest applies an ingest request and appends its ack to dst, or
// returns the status to refuse it with. A gid at or above the store's
// next ID, and above the request's earlier gids, is fresh. One below
// the next ID is a replay — a router retry after a lost response, or a
// journal re-drive after a crash — and is skipped when the store holds
// it, or when the request is journaled: delivery is in order, so a
// journaled gid the store lacks can only be a document deleted and
// compacted away after the save SHARD.json missed. Any other gid is
// refused, because adding it would break the ascending-gid order that
// keeps tie-breaks a single index's. The request's journal sequence
// advances the applied high-water even when every document is a
// replay.
func (s *Shard) ingest(dst []byte, ir *ingestRequest) ([]byte, int, error) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	next := s.store.NextID()
	last := next - 1
	fresh := make([]corpus.Document, 0, len(ir.Docs))
	for _, d := range ir.Docs {
		if d.Gid > last {
			d.Doc.ID = d.Gid
			fresh = append(fresh, d.Doc)
			last = d.Gid
			continue
		}
		if 0 <= d.Gid && d.Gid < next && ir.Seq > 0 {
			continue // a journaled replay
		}
		if _, held := s.store.Doc(d.Gid); !held {
			return dst, http.StatusConflict, fmt.Errorf("gid %d arrives out of order (next ID %d)", d.Gid, last+1)
		}
	}
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	var changed []segment.TermDF
	if len(fresh) > 0 {
		var err error
		if _, changed, err = s.store.AddDF(fresh...); err != nil {
			return dst, http.StatusInternalServerError, err
		}
	}
	return s.finishMutation(dst, ir.Seq, changed), http.StatusOK, nil
}

// finishMutation records a successful mutation — the applied journal
// sequence, the dirty counter (kicking the saver at threshold) and the
// stats version — and appends its ack to dst: the shard's statistics
// with the df entries the mutation changed. Caller holds mutMu and
// statsMu.
func (s *Shard) finishMutation(dst []byte, seq uint64, changed []segment.TermDF) []byte {
	s.version++
	s.mu.Lock()
	if seq > s.appliedSeq {
		s.appliedSeq = seq
	}
	kick := s.noteMutationLocked()
	s.mu.Unlock()
	if kick {
		s.kickSave()
	}
	st := s.statsLocked(false)
	return appendMutationAck(dst, &st, changed)
}

// handleDoc serves GET (fetch) and DELETE (tombstone) for one global
// document ID. Journaled deletes carry their sequence number in the
// ?seq query parameter.
func (s *Shard) handleDoc(w http.ResponseWriter, r *http.Request) {
	gidStr := strings.TrimPrefix(r.URL.Path, "/cluster/doc/")
	gid64, err := strconv.ParseInt(gidStr, 10, 32)
	if err != nil || gid64 < 0 {
		http.Error(w, "no such document", http.StatusNotFound)
		return
	}
	gid := corpus.DocID(gid64)
	switch r.Method {
	case http.MethodGet:
		doc, ok := s.store.Doc(gid)
		if !ok {
			http.Error(w, "no such document", http.StatusNotFound)
			return
		}
		writeJSON(w, doc)
	case http.MethodDelete:
		// A parameter that does not parse is refused, not read as absent:
		// dropping a malformed seq would apply a journalled delete as an
		// unjournalled one (its re-drive then 404s and the router retires
		// the record as rejected), dropping a malformed instance would
		// skip the restart precondition.
		var seq uint64
		if v := r.URL.Query().Get("seq"); v != "" {
			if seq, err = strconv.ParseUint(v, 10, 64); err != nil {
				http.Error(w, "bad request: seq: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if v := r.URL.Query().Get("instance"); v != "" {
			want, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad request: instance: "+err.Error(), http.StatusBadRequest)
				return
			}
			if want != 0 && want != s.instance {
				http.Error(w, fmt.Sprintf("instance mismatch: request for %x, shard is %x", want, s.instance), http.StatusPreconditionFailed)
				return
			}
		}
		bp := wireBufs.Get().(*[]byte)
		defer wireBufs.Put(bp)
		if *bp, err = s.delete((*bp)[:0], gid, seq); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeAck(w, *bp)
	default:
		http.Error(w, "GET or DELETE required", http.StatusMethodNotAllowed)
	}
}

// delete tombstones one document and appends the ack to dst. Whatever
// refuses it is answered as a missing document is, with 404.
func (s *Shard) delete(dst []byte, gid corpus.DocID, seq uint64) ([]byte, error) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	changed, err := s.store.DeleteDF(gid)
	if err != nil && !(seq > 0 && gid < s.store.NextID() && errors.Is(err, segment.ErrNotFound)) {
		return dst, err
	}
	// Applied — or, as ingest reads a journaled gid below the next ID, a
	// journal re-drive of a delete that already applied: idempotent,
	// advance the sequence and acknowledge.
	return s.finishMutation(dst, seq, changed), nil
}

// writeAck answers a mutation with its ack frame.
func writeAck(w http.ResponseWriter, ack []byte) {
	w.Header().Set("Content-Type", ackContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(ack)))
	w.Write(ack)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
