// Package search provides the enterprise deployment surface of Fig. 1:
// an HTTP search server hosting the unmodified similarity engine, and
// the trusted client module that mixes ghost queries into each user
// query, submits the cycle, and filters the ghost results.
//
// The server also keeps the query log — the exact artifact the paper's
// curious adversary analyzes after the fact — so experiments and tests
// can attack precisely what a real search engine would retain.
//
// The server is backend-agnostic: it serves any vsm.RequestSearcher —
// the immutable single-index engine, the live segment.Store, a cluster
// router. When the backend implements LiveIndex, the mutation endpoints
// (POST /index, DELETE /doc/{id}) come alive too.
package search

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/telemetry"
	"toppriv/internal/vsm"
)

// DefaultQueryLogCap bounds the in-memory query log. A long-running
// server keeps only the most recent entries; 100k entries is far more
// than any adversary experiment consumes while keeping a steady-state
// searchd's footprint flat.
const DefaultQueryLogCap = 100_000

// LiveIndex is the mutation surface a live backend (segment.Store)
// offers; the static engine does not implement it, and the server
// rejects mutations accordingly.
type LiveIndex interface {
	Add(docs ...corpus.Document) ([]corpus.DocID, error)
	Delete(id corpus.DocID) error
	Doc(id corpus.DocID) (corpus.Document, bool)
}

// statsProvider is the optional stats surface behind GET /stats; both
// *vsm.Engine and *segment.Store implement it.
type statsProvider interface {
	ComputeStats() index.Stats
}

// DefaultMaxK caps the per-query result count. A client asking for
// more than the cap gets the cap — a full-collection heap per request
// is a denial-of-service lever, not a search.
const DefaultMaxK = 1000

// DefaultMaxBatch caps the member count of one POST /search/batch
// request. An obfuscation cycle is υ queries — typically well under
// twenty — so the default leaves generous headroom without letting a
// single request monopolize the engine.
const DefaultMaxBatch = 64

// SearchRequest is the POST /search payload. The engine has one
// execution strategy; an "exec" field, which older clients may still
// send, is ignored like any other unknown field.
type SearchRequest struct {
	// Query is the raw query text (a bag of words; order is ignored).
	Query string `json:"query"`
	// K is the number of results wanted; the server caps it at its
	// configured maximum (default 1000). Zero means 10; negative is
	// rejected.
	K int `json:"k,omitempty"`
	// Trace, when true, asks for a per-phase timing breakdown of this
	// query's execution inline in the response. The trace carries phase
	// durations and work counters only — never query content — so
	// opting in does not widen what the server retains about the query.
	Trace bool `json:"trace,omitempty"`
}

// SearchHit is one result row.
type SearchHit struct {
	Doc   corpus.DocID `json:"doc"`
	Score float64      `json:"score"`
	Title string       `json:"title,omitempty"`
}

// SearchResponse is the POST /search reply (and one member of the
// POST /search/batch reply).
type SearchResponse struct {
	Hits []SearchHit `json:"hits"`
	// Stats carries the engine's execution counters (documents scored
	// and filtered, postings, blocks decoded). The server always sets it.
	Stats *vsm.ExecStats `json:"stats,omitempty"`
	// Trace is the per-phase timing breakdown, present when the request
	// set "trace": true. Batch members served by a shared traversal all
	// carry the same cycle-level trace.
	Trace *telemetry.PhaseTrace `json:"trace,omitempty"`
	// Degraded reports that a distributed backend assembled the hits
	// without every shard (one was down or missed its deadline), so the
	// ranking covers the surviving shards only. Single-node servers
	// never set it.
	Degraded bool `json:"degraded,omitempty"`
	// Shards is the per-shard outcome of a scatter-gather execution,
	// present only from a router backend.
	Shards []vsm.ShardStatus `json:"shards,omitempty"`
}

// BatchSearchRequest is the POST /search/batch payload: one
// obfuscation cycle's queries, submitted together as the paper's
// system model does (§III, Fig. 1). Each member is validated exactly
// like a single /search request; the server logs each member as a
// separate query-log entry, so the adversary's view of the log is
// identical to query-by-query submission.
type BatchSearchRequest struct {
	Queries []SearchRequest `json:"queries"`
}

// BatchSearchResponse is the POST /search/batch reply; Responses align
// with the request's Queries by index.
type BatchSearchResponse struct {
	Responses []SearchResponse `json:"responses"`
}

// IndexRequest is the POST /index payload: documents to ingest.
type IndexRequest struct {
	Docs []corpus.Document `json:"docs"`
}

// IndexResponse is the POST /index reply: the assigned document IDs.
type IndexResponse struct {
	IDs []corpus.DocID `json:"ids"`
}

// LoggedQuery is one query-log entry — what the adversary sees.
type LoggedQuery struct {
	Seq   int    `json:"seq"`
	Query string `json:"query"`
}

// Server hosts the search engine over HTTP. It requires no knowledge of
// TopPriv: ghost queries are indistinguishable requests.
type Server struct {
	engine vsm.RequestSearcher
	live   LiveIndex     // non-nil when engine supports mutation
	titles titleProvider // non-nil when engine resolves titles directly
	docs   []corpus.Document
	mux    *http.ServeMux

	// adminToken, when non-empty, gates the mutation endpoints behind
	// an Authorization: Bearer header. Set before serving.
	adminToken string
	// maxK caps the per-request result count. Set before serving.
	maxK int
	// maxBatch caps the member count of one batch request. Set before
	// serving.
	maxBatch int

	// Telemetry: the server owns the process's metric registry and
	// phase-trace ring, and hands them to the backend when it
	// implements MetricsBackend. See telemetry.go.
	reg          *telemetry.Registry
	ring         *telemetry.TraceRing
	httpReqs     *telemetry.CounterVec
	httpErrs     *telemetry.CounterVec
	httpInflight *telemetry.GaugeVec
	logEvicted   atomic.Uint64

	mu sync.Mutex
	// The query log is a ring: seq numbers are absolute and monotonic,
	// but only the most recent logCap entries are retained.
	log      []LoggedQuery
	logStart int // index of the oldest retained entry
	seq      int
	logCap   int
}

// Request body ceilings: queries are a handful of words; index batches
// may carry whole documents but must not be able to exhaust memory.
const (
	maxSearchBody = 1 << 20 // 1 MiB
	// maxBatchBody bounds a whole batch of queries — generous for
	// DefaultMaxBatch short queries, nowhere near document ingestion.
	maxBatchBody = 4 << 20  // 4 MiB
	maxIndexBody = 32 << 20 // 32 MiB
)

// NewServer builds the handler over any backend. docs may be nil when
// titles/content are not needed (a live backend resolves documents
// through its own LiveIndex.Doc instead).
func NewServer(engine vsm.RequestSearcher, docs []corpus.Document) (*Server, error) {
	if engine == nil {
		return nil, fmt.Errorf("search: nil engine")
	}
	s := &Server{engine: engine, docs: docs, mux: http.NewServeMux(), logCap: DefaultQueryLogCap, maxK: DefaultMaxK, maxBatch: DefaultMaxBatch}
	if live, ok := engine.(LiveIndex); ok {
		s.live = live
	}
	if titles, ok := engine.(titleProvider); ok {
		s.titles = titles
	}
	s.initTelemetry()
	s.mux.Handle("/search", s.instrument("/search", s.handleSearch))
	s.mux.Handle("/search/batch", s.instrument("/search/batch", s.handleSearchBatch))
	s.mux.Handle("/index", s.instrument("/index", s.handleIndex))
	s.mux.Handle("/doc/", s.instrument("/doc", s.handleDoc))
	s.mux.Handle("/stats", s.instrument("/stats", s.handleStats))
	s.mux.Handle("/metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.Handle("/debug/traces", s.instrument("/debug/traces", s.handleTraces))
	return s, nil
}

// Handle mounts an additional instrumented route on the server's mux —
// the seam a cluster shard or router uses to expose its wire endpoints
// (/cluster/...) alongside the standard search surface, inheriting the
// same request/error/inflight accounting. Mount before serving.
func (s *Server) Handle(pattern string, h http.Handler) {
	route := strings.TrimRight(pattern, "/")
	s.mux.Handle(pattern, s.instrument(route, h.ServeHTTP))
}

// SetQueryLogCap bounds the query log to the most recent n entries
// (n <= 0 restores the default). Existing entries beyond the new cap
// are discarded oldest-first.
func (s *Server) SetQueryLogCap(n int) {
	if n <= 0 {
		n = DefaultQueryLogCap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snapshotLogLocked()
	if len(cur) > n {
		s.logEvicted.Add(uint64(len(cur) - n))
		cur = cur[len(cur)-n:]
	}
	s.logCap = n
	s.log = cur
	s.logStart = 0
}

// SetMaxK caps the per-request result count (n <= 0 restores the
// default). Requests asking for more get the cap, not an error —
// mirroring the long-standing clamp — but a negative K in the request
// body is rejected outright. The cap applies to every query the server
// accepts, batch members included. Set before serving.
func (s *Server) SetMaxK(n int) {
	if n <= 0 {
		n = DefaultMaxK
	}
	s.maxK = n
}

// SetMaxBatch caps the member count of one POST /search/batch request
// (n <= 0 restores the default). Oversized batches are rejected with
// 400, not truncated — silently dropping cycle members would change
// what the query log records. Set before serving.
func (s *Server) SetMaxBatch(n int) {
	if n <= 0 {
		n = DefaultMaxBatch
	}
	s.maxBatch = n
}

// SetAdminToken requires `Authorization: Bearer token` on the mutation
// endpoints (POST /index, DELETE /doc/{id}). Empty leaves them open —
// fine for experiments, not for a deployment whose search users are
// not all index administrators. Set before serving.
func (s *Server) SetAdminToken(token string) { s.adminToken = token }

// Live reports whether the backend accepts mutations.
func (s *Server) Live() bool { return s.live != nil }

// authorizeAdmin enforces the admin token, writing the error response
// itself when the request is rejected. Comparison is constant-time so
// the token cannot be recovered through a timing side-channel.
func (s *Server) authorizeAdmin(w http.ResponseWriter, r *http.Request) bool {
	if s.adminToken == "" {
		return true
	}
	got := r.Header.Get("Authorization")
	want := "Bearer " + s.adminToken
	if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
		http.Error(w, "admin token required", http.StatusUnauthorized)
		return false
	}
	return true
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// decodeQuery is the one place a SearchRequest becomes an executable
// vsm.Request: empty-query rejection, the negative-k rejection and the
// SetMaxK clamp all live here, so the single and batch endpoints
// cannot drift apart (the clamp used to be single-endpoint only, which
// a batch endpoint would have bypassed).
func (s *Server) decodeQuery(req *SearchRequest) (vsm.Request, error) {
	if strings.TrimSpace(req.Query) == "" {
		return vsm.Request{}, errors.New("empty query")
	}
	if req.K < 0 {
		return vsm.Request{}, fmt.Errorf("k = %d: must be positive", req.K)
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	if k > s.maxK {
		k = s.maxK
	}
	return vsm.Request{Query: req.Query, K: k, Trace: req.Trace}, nil
}

// runBatch is what both search endpoints do with decoded requests —
// /search is a batch of one. Every member is logged as its own
// query-log entry, in submission order, before anything executes, so
// the retained log — the adversary's artifact — reads the same whether
// a cycle arrived together or query by query; then one SearchBatch, and
// each response shaped for the wire.
func (s *Server) runBatch(ctx context.Context, vreqs []vsm.Request) ([]SearchResponse, error) {
	for i := range vreqs {
		s.logQuery(vreqs[i].Query)
	}
	vresps, err := s.engine.SearchBatch(ctx, vreqs)
	if err != nil {
		return nil, err
	}
	resps := make([]SearchResponse, len(vresps))
	for i := range vresps {
		resps[i] = s.toSearchResponse(&vresps[i])
	}
	return resps, nil
}

// toSearchResponse shapes an engine response into the wire form,
// resolving titles — the one conversion both the single and batch
// endpoints use. Degradation state (a routed backend's partial-failure
// signal) passes through untouched.
func (s *Server) toSearchResponse(vresp *vsm.Response) SearchResponse {
	results, stats := vresp.Hits, vresp.Stats
	resp := SearchResponse{
		Hits:     make([]SearchHit, len(results)),
		Stats:    &stats,
		Trace:    vresp.Trace,
		Degraded: vresp.Degraded,
		Shards:   vresp.Shards,
	}
	for i, res := range results {
		hit := SearchHit{Doc: res.Doc, Score: res.Score}
		if title, ok := s.title(res.Doc); ok {
			hit.Title = title
		}
		resp.Hits[i] = hit
	}
	return resp
}

// writeExecError maps an execution error onto an HTTP status: client
// disconnects and deadline overruns are not server faults.
func writeExecError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req SearchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSearchBody)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	vreq, err := s.decodeQuery(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resps, err := s.runBatch(r.Context(), []vsm.Request{vreq})
	if err != nil {
		writeExecError(w, err)
		return
	}
	writeWire(w, func(dst []byte) ([]byte, error) { return appendResponse(dst, &resps[0]) })
}

// handleSearchBatch serves one whole cycle per round-trip. Every
// member passes the same decoding and validation as a single /search
// request before any is logged or run.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var batch BatchSearchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody)).Decode(&batch); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(batch.Queries) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	if len(batch.Queries) > s.maxBatch {
		http.Error(w, fmt.Sprintf("batch of %d queries exceeds the maximum of %d", len(batch.Queries), s.maxBatch), http.StatusBadRequest)
		return
	}
	vreqs := make([]vsm.Request, len(batch.Queries))
	for i := range batch.Queries {
		vreq, err := s.decodeQuery(&batch.Queries[i])
		if err != nil {
			http.Error(w, fmt.Sprintf("batch member %d: %v", i, err), http.StatusBadRequest)
			return
		}
		vreqs[i] = vreq
	}
	resps, err := s.runBatch(r.Context(), vreqs)
	if err != nil {
		writeExecError(w, err)
		return
	}
	writeWire(w, func(dst []byte) ([]byte, error) { return appendBatchResponse(dst, resps) })
}

// titleProvider is the optional title-resolution surface for backends
// that know display titles without holding full documents — a router
// resolves titles from its ingest-time cache rather than a local store.
// Checked before LiveIndex.Doc, which would force a full document
// lookup per hit.
type titleProvider interface {
	Title(id corpus.DocID) (string, bool)
}

func (s *Server) title(id corpus.DocID) (string, bool) {
	if s.titles != nil {
		return s.titles.Title(id)
	}
	if s.live != nil {
		if doc, ok := s.live.Doc(id); ok {
			return doc.Title, true
		}
		return "", false
	}
	if int(id) < len(s.docs) {
		return s.docs[id].Title, true
	}
	return "", false
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.live == nil {
		http.Error(w, "immutable index: rebuild to change the corpus", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorizeAdmin(w, r) {
		return
	}
	var req IndexRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIndexBody)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Docs) == 0 {
		http.Error(w, "no documents", http.StatusBadRequest)
		return
	}
	ids, err := s.live.Add(req.Docs...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, IndexResponse{IDs: ids})
}

func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/doc/")
	// Parse into the DocID's own width so oversized IDs 404 instead of
	// truncating onto a low document ID.
	id64, err := strconv.ParseInt(idStr, 10, 32)
	if err != nil || id64 < 0 {
		http.Error(w, "no such document", http.StatusNotFound)
		return
	}
	id := int(id64)
	switch r.Method {
	case http.MethodGet:
		if s.live != nil {
			doc, ok := s.live.Doc(corpus.DocID(id))
			if !ok {
				http.Error(w, "no such document", http.StatusNotFound)
				return
			}
			writeJSON(w, doc)
			return
		}
		if id >= len(s.docs) {
			http.Error(w, "no such document", http.StatusNotFound)
			return
		}
		writeJSON(w, s.docs[id])
	case http.MethodDelete:
		if s.live == nil {
			http.Error(w, "immutable index: rebuild to change the corpus", http.StatusMethodNotAllowed)
			return
		}
		if !s.authorizeAdmin(w, r) {
			return
		}
		if err := s.live.Delete(corpus.DocID(id)); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "GET or DELETE required", http.StatusMethodNotAllowed)
	}
}

// QueryLogStats describes the query-log ring on GET /stats. Seq
// numbers are absolute: HeadSeq is the oldest retained entry's
// sequence and TailSeq the next to be assigned, so TailSeq - HeadSeq
// == Retained and HeadSeq == Evicted. An adversary-side consumer can
// tell from a HeadSeq jump exactly how much history rolled off
// between two scrapes.
type QueryLogStats struct {
	Retained int    `json:"retained"`
	Evicted  uint64 `json:"evicted"`
	HeadSeq  int    `json:"head_seq"`
	TailSeq  int    `json:"tail_seq"`
}

// StatsResponse is the GET /stats reply: the index shape stats the
// endpoint has always served, plus the query-log ring's state. The
// extensions are additive — clients decoding into index.Stats ignore
// the new keys, and ResidentBytes/ResidentPerDoc live inside
// index.Stats itself.
type StatsResponse struct {
	index.Stats
	QueryLog QueryLogStats `json:"querylog"`
	// Cluster aggregates per-shard health when the backend is a
	// scatter-gather router; nil on single-node servers.
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// ShardHealth is one shard's aggregate health as the router sees it,
// surfaced through GET /stats so topprivctl -stats shows cluster state.
type ShardHealth struct {
	// Shard is the shard's base URL.
	Shard string `json:"shard"`
	// Up reports whether the shard's last exchange succeeded.
	Up bool `json:"up"`
	// Docs is the shard's live document count at its last stats report.
	Docs int `json:"docs"`
	// LastError is the most recent failure, empty while healthy.
	LastError string `json:"last_error,omitempty"`
	// Requests and Errors count this shard's exchanges since router start.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// P99Millis is the 99th-percentile round-trip latency over the
	// router's recent-sample window, in milliseconds (0 until sampled).
	P99Millis float64 `json:"p99_ms"`
	// LastSeenUnix is the Unix time of the shard's most recent
	// successful exchange (0 = never reached by this router process).
	LastSeenUnix int64 `json:"last_seen_unix,omitempty"`
	// Restarts counts shard process restarts this router has observed
	// (the shard's instance nonce changing between stats reports).
	Restarts uint64 `json:"restarts"`
}

// ClusterHealth aggregates the router's view of its shards.
type ClusterHealth struct {
	Shards []ShardHealth `json:"shards"`
	// Degraded counts queries answered without every shard.
	Degraded uint64 `json:"degraded_queries"`
	// Recoveries counts completed shard catch-ups: a restarted or
	// rejoined shard brought back in sync with the placement journal.
	Recoveries uint64 `json:"recoveries,omitempty"`
	// JournalBytes is the placement journal's current WAL size (0 when
	// journaling is disabled).
	JournalBytes int64 `json:"journal_bytes,omitempty"`
	// ReplayedEntries counts journal records replayed at startup plus
	// records re-driven to shards during catch-up.
	ReplayedEntries uint64 `json:"replayed_entries,omitempty"`
	// PendingRecords is the number of journaled mutations not yet
	// confirmed durable by every target shard.
	PendingRecords int `json:"pending_records,omitempty"`
	// Journaled reports whether a placement journal backs this router.
	Journaled bool `json:"journaled,omitempty"`
}

// ClusterHealthProvider is implemented by a routing backend that can
// report per-shard health (the cluster router); single-node backends
// do not implement it.
type ClusterHealthProvider interface {
	ClusterHealth() ClusterHealth
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	sp, ok := s.engine.(statsProvider)
	if !ok {
		http.Error(w, "stats unavailable for this backend", http.StatusNotFound)
		return
	}
	resp := StatsResponse{Stats: sp.ComputeStats(), QueryLog: s.queryLogStats()}
	if hp, ok := s.engine.(ClusterHealthProvider); ok {
		ch := hp.ClusterHealth()
		resp.Cluster = &ch
	}
	writeJSON(w, resp)
}

func (s *Server) queryLogStats() QueryLogStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return QueryLogStats{
		Retained: len(s.log),
		Evicted:  s.logEvicted.Load(),
		HeadSeq:  s.seq - len(s.log),
		TailSeq:  s.seq,
	}
}

// logQuery appends to the ring, evicting the oldest entry at capacity.
func (s *Server) logQuery(q string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry := LoggedQuery{Seq: s.seq, Query: q}
	s.seq++
	if len(s.log) < s.logCap {
		s.log = append(s.log, entry)
		return
	}
	s.log[s.logStart] = entry
	s.logStart = (s.logStart + 1) % len(s.log)
	s.logEvicted.Add(1)
}

// QueryLog returns a copy of the retained query log, oldest first — the
// artifact the threat model assumes the adversary can analyze. Entries
// beyond the configured capacity have been evicted oldest-first; Seq
// stays absolute, so gaps at the front reveal how much history rolled
// off.
func (s *Server) QueryLog() []LoggedQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLogLocked()
}

func (s *Server) snapshotLogLocked() []LoggedQuery {
	out := make([]LoggedQuery, 0, len(s.log))
	out = append(out, s.log[s.logStart:]...)
	out = append(out, s.log[:s.logStart]...)
	return out
}

// ResetLog clears the query log (test convenience). Seq restarts at 0,
// matching the historical semantics of a fresh server.
func (s *Server) ResetLog() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = nil
	s.logStart = 0
	s.seq = 0
	s.logEvicted.Store(0)
}

// writeJSON answers a control-plane endpoint (/stats, /doc, /index,
// /debug/traces); the search endpoints use writeWire.
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
