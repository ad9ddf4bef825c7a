package segment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// ErrNotFound reports a delete or lookup of a document that does not
// exist or was already deleted.
var ErrNotFound = errors.New("segment: no such live document")

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("segment: store is closed")

// Config configures a Store. The zero value is usable: cosine scoring,
// default analyzer, 256-document memtable, fanout-4 compaction.
type Config struct {
	// Scoring selects the ranking function, as in vsm.
	Scoring vsm.Scoring
	// Analyzer is the shared text pipeline; nil means the default.
	Analyzer *textproc.Analyzer
	// SealThreshold is the memtable document count that triggers an
	// automatic seal into a level-0 segment. Zero means 256.
	SealThreshold int
	// CompactFanout is the length of a same-level run of segments that
	// triggers a background merge into the next level. Zero means 4.
	CompactFanout int
	// CompactInterval is the background compactor's poll interval, a
	// safety net behind the explicit post-seal triggers. Zero means 2s.
	CompactInterval time.Duration
	// DisableCompaction turns the background compactor off (tests and
	// benchmarks that need a deterministic segment layout). Explicit
	// Compact calls still work.
	DisableCompaction bool
	// Mapped opens sealed segments disk-resident at Load time
	// (index.OpenMapped): postings payloads stay views into the mapped
	// TPIX files and page in on traversal instead of living on the
	// heap. Segments sealed or compacted after load are in-memory
	// until the next Save/Load cycle. Search results are bit-identical
	// to the in-memory open path — the property tests assert it.
	Mapped bool
	// Logf, when non-nil, receives diagnostics from the background
	// compactor — without it a persistently failing compaction would
	// retry invisibly forever. searchd passes log.Printf.
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.Analyzer == nil {
		c.Analyzer = textproc.NewAnalyzer()
	}
	if c.SealThreshold == 0 {
		c.SealThreshold = 256
	}
	if c.CompactFanout == 0 {
		c.CompactFanout = 4
	}
	if c.CompactInterval == 0 {
		c.CompactInterval = 2 * time.Second
	}
	return c
}

// Store is a live, segmented search index: Add and Delete mutate it
// while SearchBatch serves concurrently. It implements
// vsm.RequestSearcher, so anything that can query a vsm.Engine can query
// a Store.
type Store struct {
	cfg Config
	an  *textproc.Analyzer
	// eng is the store's one engine; its source is the store itself
	// (collection). It runs under mu, read-held.
	eng *vsm.Engine

	mu    sync.RWMutex
	vocab *textproc.Vocab // shared, append-only dictionary
	mem   *memtable
	segs  []*seg // stack order: ascending global-ID ranges
	// build holds the memtable's postings; its count array is also the
	// store's dense per-TermID scratch (dfOfLocked, delete).
	build index.Builder

	nextID   corpus.DocID
	gen      int64 // persistence generation of the last Save/Load
	liveDocs int
	liveLen  int
	// df[id] counts live documents containing term id — the global
	// document frequency every part is scored with.
	df []int32

	// compactMu serializes stack restructuring between the background
	// compactor and explicit Compact calls. Always acquired before mu.
	compactMu sync.Mutex
	// saveMu serializes Save calls so concurrent saves cannot interleave
	// generations. Always acquired before mu.
	saveMu    sync.Mutex
	compactCh chan struct{}
	closeCh   chan struct{}
	wg        sync.WaitGroup
	closed    bool

	// compactRuns/compactNanos count completed compaction runs and
	// their total wall time; maintained by compactRun, read at scrape
	// time. Atomics so the compactor never contends with scrapes.
	compactRuns  atomic.Uint64
	compactNanos atomic.Int64
}

// Open creates an empty store and starts its background compactor.
func Open(cfg Config) (*Store, error) {
	st, err := newStore(cfg)
	if err != nil {
		return nil, err
	}
	st.start()
	return st, nil
}

func newStore(cfg Config) (*Store, error) {
	if cfg.SealThreshold < 0 || cfg.CompactFanout < 0 {
		return nil, fmt.Errorf("segment: negative config")
	}
	cfg = cfg.withDefaults()
	st := &Store{
		cfg:       cfg,
		an:        cfg.Analyzer,
		vocab:     textproc.NewVocab(),
		compactCh: make(chan struct{}, 1),
		closeCh:   make(chan struct{}),
	}
	st.mem = newMemtable(st)
	eng, err := vsm.NewEngineOver((*collection)(st), st.an, cfg.Scoring)
	if err != nil {
		return nil, fmt.Errorf("segment: engine: %w", err)
	}
	st.eng = eng
	return st, nil
}

func (st *Store) start() {
	if st.cfg.DisableCompaction {
		return
	}
	st.wg.Add(1)
	go st.compactLoop()
}

// Close rejects further mutations and stops the background compactor.
// It does not persist anything itself; Save still works afterwards, and
// Close-then-Save is the graceful-shutdown order — once Close returns,
// no new document can be acknowledged and then miss the final save.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	close(st.closeCh)
	st.mu.Unlock()
	st.wg.Wait()
	return nil
}

// TermDF is a term and its live document frequency.
type TermDF struct {
	Term string
	DF   int
}

// Add ingests documents, assigning each a fresh global ID. The memtable
// seals automatically at the configured threshold. Safe to call
// concurrently with Search.
func (st *Store) Add(docs ...corpus.Document) ([]corpus.DocID, error) {
	ids, _, err := st.add(docs, false)
	return ids, err
}

// AddDF is Add under the IDs the documents carry, which must ascend and
// lie at or above the store's next ID; a batch that breaks this is
// refused before anything changes. It also reports the df entries the
// batch changed: every distinct term of the batch with its live
// document frequency once the batch is in, read under the lock that
// made the change.
func (st *Store) AddDF(docs ...corpus.Document) ([]corpus.DocID, []TermDF, error) {
	return st.add(docs, true)
}

// add ingests docs under fresh IDs, or, carried, under their own IDs
// and reporting the df entries the batch changed.
func (st *Store) add(docs []corpus.Document, carried bool) ([]corpus.DocID, []TermDF, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, nil, ErrClosed
	}
	if carried {
		next := st.nextID
		for _, doc := range docs {
			// The largest ID would leave no next ID above it.
			if doc.ID < next || doc.ID == math.MaxInt32 {
				st.mu.Unlock()
				return nil, nil, fmt.Errorf("segment: document ID %d out of order (next ID %d)", doc.ID, next)
			}
			next = doc.ID + 1
		}
	}
	ids := make([]corpus.DocID, len(docs))
	var touched []textproc.TermID
	var sealErr error
	for i, doc := range docs {
		gid := st.nextID
		if carried {
			gid = doc.ID
		}
		st.nextID = gid + 1
		terms, length := st.mem.add(doc, gid)
		st.growDF()
		for _, id := range terms {
			st.df[id]++
		}
		if carried {
			touched = append(touched, terms...)
		}
		st.liveDocs++
		st.liveLen += length
		ids[i] = gid
		if len(st.mem.docs) >= st.cfg.SealThreshold {
			if err := st.sealLocked(); err != nil {
				sealErr = err
				break
			}
		}
	}
	var changed []TermDF
	if carried && sealErr == nil {
		changed = st.dfOfLocked(touched)
	}
	st.mu.Unlock()
	if sealErr != nil {
		return nil, nil, sealErr
	}
	st.kickCompactor()
	return ids, changed, nil
}

// Delete tombstones a live document by global ID. Postings stay in
// place until compaction drops them; global statistics are adjusted
// immediately so scoring reflects the deletion at once.
func (st *Store) Delete(gid corpus.DocID) error {
	_, err := st.delete(gid, false)
	return err
}

// DeleteDF is Delete that also reports the df entries the delete
// changed: every distinct term of the document with its live document
// frequency afterwards, 0 for a term no live document holds any more.
func (st *Store) DeleteDF(gid corpus.DocID) ([]TermDF, error) {
	return st.delete(gid, true)
}

func (st *Store) delete(gid corpus.DocID, report bool) ([]TermDF, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, ErrClosed
	}
	doc, ok := st.tombstoneLocked(gid)
	if !ok {
		return nil, ErrNotFound
	}
	terms := st.an.Analyze(doc.Text)
	seen := st.build.Scratch(len(st.df))
	var touched []textproc.TermID
	for _, term := range terms {
		id := st.vocab.ID(term)
		if id == textproc.InvalidTerm {
			continue // cannot happen for a doc this store analyzed
		}
		if seen[id] == 0 {
			seen[id] = 1
			st.df[id]--
			touched = append(touched, id)
		}
	}
	for _, id := range touched {
		seen[id] = 0
	}
	st.liveDocs--
	st.liveLen -= len(terms)
	if !report {
		return nil, nil
	}
	return st.dfOfLocked(touched), nil
}

// dfOfLocked returns the live df of each distinct term in ids, in order
// of first occurrence. Caller holds mu.
func (st *Store) dfOfLocked(ids []textproc.TermID) []TermDF {
	seen := st.build.Scratch(len(st.df))
	n := 0
	for _, id := range ids {
		if seen[id] == 0 {
			seen[id] = 1
			n++
		}
	}
	out := make([]TermDF, 0, n)
	for _, id := range ids {
		if seen[id] != 0 {
			seen[id] = 0
			out = append(out, TermDF{Term: st.vocab.Term(id), DF: int(st.df[id])})
		}
	}
	return out
}

// tombstoneLocked marks gid dead in whichever part holds it, returning
// the document for stats maintenance.
func (st *Store) tombstoneLocked(gid corpus.DocID) (corpus.Document, bool) {
	if local, ok := st.mem.locate(gid); ok {
		if st.mem.dead[local] {
			return corpus.Document{}, false
		}
		st.mem.dead[local] = true
		st.mem.live--
		return st.mem.docs[local], true
	}
	for _, sg := range st.segs {
		if local, ok := sg.locate(gid); ok {
			if sg.dead[local] {
				return corpus.Document{}, false
			}
			sg.dead[local] = true
			sg.live--
			return sg.docs[local], true
		}
	}
	return corpus.Document{}, false
}

// Doc returns a live document by global ID.
func (st *Store) Doc(gid corpus.DocID) (corpus.Document, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if local, ok := st.mem.locate(gid); ok && !st.mem.dead[local] {
		return st.mem.docs[local], true
	}
	for _, sg := range st.segs {
		if local, ok := sg.locate(gid); ok && !sg.dead[local] {
			return sg.docs[local], true
		}
	}
	return corpus.Document{}, false
}

// growDF extends the df array to the current vocabulary size.
func (st *Store) growDF() {
	for len(st.df) < st.vocab.Size() {
		st.df = append(st.df, 0)
	}
}

// sealLocked freezes the memtable into a level-0 segment and starts a
// fresh one. Caller holds the write lock.
func (st *Store) sealLocked() error {
	sg, err := st.mem.seal()
	if err != nil {
		return err
	}
	if sg != nil {
		st.segs = append(st.segs, sg)
	}
	st.mem = newMemtable(st)
	return nil
}

// Flush seals the current memtable (if non-empty) into a segment and
// nudges the compactor — searchd calls this on graceful shutdown so no
// buffered document is lost by Save.
func (st *Store) Flush() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrClosed
	}
	err := st.sealLocked()
	st.mu.Unlock()
	if err != nil {
		return err
	}
	st.kickCompactor()
	return nil
}

// SearchRequest executes one structured request — a batch of one.
// Implements vsm.RequestSearcher together with SearchBatch.
func (st *Store) SearchRequest(ctx context.Context, req vsm.Request) (vsm.Response, error) {
	resps, err := st.SearchBatch(ctx, []vsm.Request{req})
	if err != nil {
		return vsm.Response{}, err
	}
	return resps[0], nil
}

// SearchBatch executes a batch of requests — typically one obfuscation
// cycle — with one call into the store's engine: the members are
// resolved and weighed once against the store's global statistics (or
// the cluster's, for members carrying Global), then every sealed segment
// and the memtable is scanned in turn into one top-k heap per member,
// under store-wide IDs. Tombstoned documents are filtered inside the
// scan before they can be ranked, and a request's Keep filter, asked
// about store-wide IDs, composes with them; a member's stats are its
// work summed over the parts; the context cancels mid-execution between
// postings blocks. Each member's ranking equals a single-index search
// over the surviving documents — and its result is identical to running
// it alone; the property tests assert both.
func (st *Store) SearchBatch(ctx context.Context, reqs []vsm.Request) ([]vsm.Response, error) {
	// Analyze raw queries once, before taking the lock: writers wait for
	// the scan, not for the text pipeline.
	prepared := make([]vsm.Request, len(reqs))
	for i, req := range reqs {
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("segment: batch member %d: %w", i, err)
		}
		if req.Terms == nil {
			req.Terms = st.an.Analyze(req.Query)
		}
		prepared[i] = req
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.eng.SearchBatch(ctx, prepared)
}

// Scoring returns the store's effective scoring function. After Load
// this is the manifest's saved scoring, which overrides the config —
// callers should report this value, not the one they asked for.
func (st *Store) Scoring() vsm.Scoring { return st.cfg.Scoring }

// LocalStats exports this store's live collection statistics keyed by
// term string — the shard side of the cluster's global-statistics
// exchange. Shards have independent vocabularies, so document
// frequencies cross the wire as strings; the router sums the per-shard
// tables into the merged N/df/avgdl it injects into every request.
// Terms whose live df dropped to zero are omitted.
func (st *Store) LocalStats() (docs int, totalLen int64, df map[string]int) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	df = make(map[string]int, len(st.df))
	for id, n := range st.df {
		if n > 0 {
			df[st.vocab.Term(textproc.TermID(id))] = int(n)
		}
	}
	return st.liveDocs, int64(st.liveLen), df
}

// LiveSize is LocalStats without the df table: the live document count
// and analyzed token count.
func (st *Store) LiveSize() (docs int, totalLen int64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.liveDocs, int64(st.liveLen)
}

// NumDocs returns the number of live documents.
func (st *Store) NumDocs() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.liveDocs
}

// NextID returns one above the largest ID the store ever held, dead
// documents included: 0 when empty, and the least ID AddDF accepts.
func (st *Store) NextID() corpus.DocID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.nextID
}

// NumSegments returns the number of sealed segments.
func (st *Store) NumSegments() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.segs)
}

// Stats summarizes the store's shape.
type Stats struct {
	LiveDocs     int   `json:"live_docs"`
	MemtableDocs int   `json:"memtable_docs"`
	Segments     int   `json:"segments"`
	Tombstones   int   `json:"tombstones"`
	Levels       []int `json:"levels"` // segment count per level
	VocabSize    int   `json:"vocab_size"`
	NextID       int64 `json:"next_id"`
}

// Stats returns a snapshot of the store's shape.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := Stats{
		LiveDocs:     st.liveDocs,
		MemtableDocs: len(st.mem.docs),
		Segments:     len(st.segs),
		VocabSize:    st.vocab.Size(),
		NextID:       int64(st.nextID),
	}
	s.Tombstones = len(st.mem.docs) - st.mem.live
	for _, sg := range st.segs {
		s.Tombstones += len(sg.ids) - sg.live
		for len(s.Levels) <= sg.level {
			s.Levels = append(s.Levels, 0)
		}
		s.Levels[sg.level]++
	}
	return s
}

// ComputeStats aggregates index-shape statistics across all sealed
// segments and the memtable, for the /stats endpoint. SizeBytes is the
// sum of the segments' serialized sizes (the memtable, unserialized, is
// excluded). PostingsBytes counts the sealed segments' exact compressed
// footprint plus the memtable's uncompressed lists at their in-memory
// cost of 8 bytes per ⟨int32 doc, int32 tf⟩ posting. ResidentBytes
// drops the mapped segments' page-cache-backed payloads — all of their
// postings bytes — so it reports what the store actually holds on the
// heap.
func (st *Store) ComputeStats() index.Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := index.Stats{NumDocs: st.liveDocs, NumTerms: st.vocab.Size()}
	for _, sg := range st.segs {
		part := sg.idx.ComputeStats()
		s.NumPostings += part.NumPostings
		if part.MaxListLen > s.MaxListLen {
			s.MaxListLen = part.MaxListLen
		}
		s.SizeBytes += part.SizeBytes
		s.PostingsBytes += part.PostingsBytes
		s.ResidentBytes += part.ResidentBytes
	}
	for t := 0; t < st.build.NumTerms(); t++ {
		pl := st.build.List(textproc.TermID(t))
		s.NumPostings += len(pl)
		if len(pl) > s.MaxListLen {
			s.MaxListLen = len(pl)
		}
		s.PostingsBytes += 8 * int64(len(pl))
		s.ResidentBytes += 8 * int64(len(pl))
	}
	if s.NumTerms > 0 {
		s.MeanListLen = float64(s.NumPostings) / float64(s.NumTerms)
	}
	if s.NumDocs > 0 {
		s.BytesPerDoc = float64(s.PostingsBytes) / float64(s.NumDocs)
		s.ResidentPerDoc = float64(s.ResidentBytes) / float64(s.NumDocs)
	}
	if s.NumPostings > 0 && s.SizeBytes > 0 {
		bytesPerPosting := float64(s.SizeBytes) / float64(s.NumPostings)
		s.PaddedPIRBytes = int64(bytesPerPosting * float64(s.MaxListLen) * float64(s.NumTerms))
	}
	return s
}

// BloomSkips is always zero: segments carry no term bloom since TPIX v9
// (a term a part lacks is an empty list the scan steps over). The
// accessor stays because the system benchmark (bench/trace.go,
// segment.bloom_skips_per_cycle) calls it and is changed only by
// benchmark-only PRs; it goes with that row.
func (st *Store) BloomSkips() uint64 { return 0 }
