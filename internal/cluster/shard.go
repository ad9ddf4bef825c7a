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
	"toppriv/internal/vsm"
)

// Shard serves one slice of the corpus over the /cluster/* wire
// schema, backed by an ordinary segment.Store. The shard is oblivious
// to the ring — the router decides placement — but it owns the
// gid↔local-ID translation: the store assigns its own dense IDs in
// arrival order, and because the router ingests each shard's documents
// in ascending global-ID order, local ID order mirrors global order.
// That mirroring is what keeps shard-local score tie-breaks (ascending
// local ID) identical to a single index's (ascending global ID) after
// the merge.
//
// A shard opened with OpenShard is persistent: the gid table and the
// applied journal sequence are saved atomically beside the store's
// crash-safe generation-numbered manifest, and recovered on restart.
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
	// save's store snapshot and its gid-table snapshot always describe
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

	mu    sync.RWMutex
	gids  []corpus.DocID                // store-local dense ID → global ID (-1: recovered hole)
	byGid map[corpus.DocID]corpus.DocID // global ID → store-local ID
	// hwm is the largest gid ever mapped (-1 when none): the ingest
	// ordering check, kept as a field because recovery can leave holes
	// at the tail of gids.
	hwm corpus.DocID
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
	// Dir is the persistence directory (store segments + SHARD.json).
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
	shardMetaVersion = 1
)

// shardMeta is the gid-table sidecar, written atomically after each
// store save. It always describes a state at or before the saved
// store's: a crash between store save and meta write leaves the meta
// one save behind, which recovery repairs by tombstoning the store's
// unmapped tail documents (the router re-drives them afterwards).
type shardMeta struct {
	Version    int            `json:"version"`
	Gids       []corpus.DocID `json:"gids"`
	AppliedSeq uint64         `json:"applied_seq"`
}

// NewShard wraps a live store in the shard wire surface, in-memory
// only: nothing survives a restart, and the shard reports durable
// sequence 0 so a journaling router retains every mutation for replay.
func NewShard(store *segment.Store) *Shard {
	return &Shard{
		store:    store,
		cfg:      ShardConfig{}.withDefaults(),
		instance: rand.Uint64() | 1,
		byGid:    make(map[corpus.DocID]corpus.DocID),
		hwm:      -1,
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

// recover reconciles the store's document count with the persisted gid
// table. The meta is written after the store save, so the only crash
// inconsistency is a store one save ahead of its meta: documents exist
// whose gid mapping was lost. Those tail documents are tombstoned —
// they are unreachable by gid and were never shard-durable in the
// journal's eyes, so the router re-drives them as fresh ingests.
func (s *Shard) recover(haveManifest bool) error {
	var meta shardMeta
	metaPath := filepath.Join(s.cfg.Dir, shardMetaName)
	f, err := os.Open(metaPath)
	switch {
	case err == nil:
		derr := json.NewDecoder(f).Decode(&meta)
		f.Close()
		if derr != nil {
			return fmt.Errorf("cluster: shard meta corrupt: %w", derr)
		}
		if meta.Version != shardMetaVersion {
			return fmt.Errorf("cluster: shard meta: unsupported version %d", meta.Version)
		}
		if !haveManifest && len(meta.Gids) > 0 {
			return fmt.Errorf("cluster: shard meta present but store manifest missing in %s", s.cfg.Dir)
		}
	case os.IsNotExist(err):
		if haveManifest {
			// A store without a gid table is a -live directory, not a
			// shard's; serving it would invent gid mappings.
			return fmt.Errorf("cluster: %s holds a store but no %s — not a shard directory", s.cfg.Dir, shardMetaName)
		}
	default:
		return fmt.Errorf("cluster: shard meta: %w", err)
	}

	total := int(s.store.Stats().NextID) // dense local IDs: total docs ever, dead included
	if len(meta.Gids) > total {
		return fmt.Errorf("cluster: shard meta maps %d docs but store holds %d", len(meta.Gids), total)
	}
	s.gids = append(s.gids, meta.Gids...)
	for local, gid := range s.gids {
		if gid < 0 {
			continue
		}
		s.byGid[gid] = corpus.DocID(local)
		if gid > s.hwm {
			s.hwm = gid
		}
	}
	// Store ahead of meta: tombstone the unmapped tail and record holes.
	for local := len(meta.Gids); local < total; local++ {
		if err := s.store.Delete(corpus.DocID(local)); err != nil && err != segment.ErrNotFound {
			return fmt.Errorf("cluster: shard recovery: tombstoning unmapped doc %d: %w", local, err)
		}
		s.gids = append(s.gids, -1)
	}
	if dropped := total - len(meta.Gids); dropped > 0 {
		s.cfg.Logf("cluster: shard recovery dropped %d unmapped tail document(s); the router will re-drive them", dropped)
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
// generation-numbered crash-safe path) and then the gid table
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
	meta := shardMeta{
		Version:    shardMetaVersion,
		Gids:       append([]corpus.DocID(nil), s.gids...),
		AppliedSeq: s.appliedSeq,
	}
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
	s.mu.RLock()
	st.MaxGid = s.hwm
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
	s.globalize(resps)
	*bp = appendBatchReply((*bp)[:0], resps)
	w.Header().Set("Content-Type", batchContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	w.Write(*bp)
}

// globalize rewrites the store's hits in place from store-local IDs to
// gids.
//
// An ingest makes its documents searchable (store.Add) before it can
// append their gids to the table, so a query running beside it can hit
// a local ID the table does not have yet. Such a hit is dropped: the
// ingest has not been acknowledged, so the query is ordered before it,
// and the next query finds the document.
func (s *Shard) globalize(resps []vsm.Response) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range resps {
		hits := resps[i].Hits[:0]
		for _, h := range resps[i].Hits {
			if int(h.Doc) < len(s.gids) {
				h.Doc = s.gids[h.Doc]
				hits = append(hits, h)
			}
		}
		resps[i].Hits = hits
	}
}

// handleIngest adds router-placed documents. Replayed documents (gids
// already mapped — a router retry after a lost response, or a journal
// re-drive after a crash) are skipped, making ingest idempotent; a
// never-seen gid at or below the current high-water mark is refused
// because mapping it would break the local-order-mirrors-global-order
// invariant. The request's journal sequence advances the applied
// high-water even when every document is a replay.
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
// returns the status to refuse it with.
func (s *Shard) ingest(dst []byte, ir *ingestRequest) ([]byte, int, error) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	s.mu.RLock()
	last := s.hwm
	fresh := make([]corpus.Document, 0, len(ir.Docs))
	freshGids := make([]corpus.DocID, 0, len(ir.Docs))
	conflict := corpus.DocID(-1)
	for _, d := range ir.Docs {
		if _, known := s.byGid[d.Gid]; known {
			continue
		}
		if d.Gid <= last {
			conflict = d.Gid
			break
		}
		last = d.Gid
		fresh = append(fresh, d.Doc)
		freshGids = append(freshGids, d.Gid)
	}
	s.mu.RUnlock()
	if conflict >= 0 {
		return dst, http.StatusConflict, fmt.Errorf("gid %d arrives out of order (high-water %d)", conflict, last)
	}
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	var changed []segment.TermDF
	if len(fresh) > 0 {
		locals, ch, err := s.store.AddDF(fresh...)
		if err != nil {
			return dst, http.StatusInternalServerError, err
		}
		changed = ch
		s.mu.Lock()
		for i, local := range locals {
			if int(local) != len(s.gids) {
				// The store assigns dense sequential IDs; anything else
				// breaks the gid translation table.
				s.mu.Unlock()
				return dst, http.StatusInternalServerError, fmt.Errorf("store assigned non-dense id %d", local)
			}
			s.gids = append(s.gids, freshGids[i])
			s.byGid[freshGids[i]] = local
			if freshGids[i] > s.hwm {
				s.hwm = freshGids[i]
			}
		}
		s.mu.Unlock()
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
		s.mu.RLock()
		local, ok := s.byGid[gid]
		s.mu.RUnlock()
		if !ok {
			http.Error(w, "no such document", http.StatusNotFound)
			return
		}
		doc, ok := s.store.Doc(local)
		if !ok {
			http.Error(w, "no such document", http.StatusNotFound)
			return
		}
		doc.ID = gid
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
	s.mu.RLock()
	local, ok := s.byGid[gid]
	s.mu.RUnlock()
	if !ok {
		return dst, errors.New("no such document")
	}
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	changed, err := s.store.DeleteDF(local)
	if err != nil && !(seq > 0 && errors.Is(err, segment.ErrNotFound)) {
		return dst, err
	}
	// Applied — or a journal re-drive of a delete that already applied:
	// idempotent, advance the sequence and acknowledge.
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
