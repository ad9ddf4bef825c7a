// Package toppriv is a from-scratch reproduction of "Obfuscating the
// Topical Intention in Enterprise Text Search" (Pang, Xiao, Shen —
// ICDE 2012): a client-side privacy layer that hides the topics behind
// similarity text-search queries by mixing each genuine query among
// automatically generated, semantically coherent ghost queries, with a
// formal (ε1, ε2)-privacy guarantee over an LDA topic model.
//
// The package is a facade over the substrates in internal/: text
// processing, a synthetic enterprise corpus, an inverted index, a
// vector-space search engine, collapsed-Gibbs LDA, the topical belief
// model, the TopPriv obfuscator, baselines (PDX, TrackMeNot), adversary
// simulations and the evaluation harness. A typical embedding:
//
//	svc, err := toppriv.NewService(toppriv.ServiceSpec{Seed: 1})
//	obf, err := svc.NewObfuscator(toppriv.DefaultPrivacyParams())
//	cycle, err := obf.Obfuscate(svc.AnalyzeQuery("apache helicopter army"), rng)
//	// submit every query in cycle.Queries; keep results of cycle.UserIndex
//
// or, end to end over HTTP:
//
//	handler, _ := svc.Handler()
//	ts := httptest.NewServer(handler)
//	client, _ := svc.NewClient(ts.URL, obf, 42)
//	hits, _ := client.Search("apache helicopter army")
package toppriv

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"toppriv/internal/baseline"
	"toppriv/internal/belief"
	"toppriv/internal/cluster"
	"toppriv/internal/core"
	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/lda"
	"toppriv/internal/search"
	"toppriv/internal/segment"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// Re-exported core types. The aliases keep one set of types across the
// facade and the internal packages, so values flow freely between them.
type (
	// Document is one corpus document.
	Document = corpus.Document
	// CorpusSpec configures synthetic corpus generation.
	CorpusSpec = corpus.GenSpec
	// GroundTruth describes the generative topics behind a synthetic corpus.
	GroundTruth = corpus.GroundTruth
	// QuerySpec is one workload query with its target topics.
	QuerySpec = corpus.QuerySpec
	// WorkloadSpec configures workload generation.
	WorkloadSpec = corpus.WorkloadSpec
	// PrivacyParams are the user's (ε1, ε2) settings and knobs.
	PrivacyParams = core.Params
	// Cycle is an obfuscated query cycle.
	Cycle = core.Cycle
	// Obfuscator generates (ε1, ε2)-private cycles.
	Obfuscator = core.Obfuscator
	// Session obfuscates a user's query sequence with a sticky decoy
	// profile, resisting cross-cycle intersection analysis.
	Session = core.Session
	// Model is a trained LDA topic model.
	Model = lda.Model
	// SearchHit is one search result row.
	SearchHit = search.SearchHit
	// Client is the trusted client module (Fig. 1 of the paper).
	Client = search.Client
	// Server is the HTTP search server.
	Server = search.Server
	// PDX is the query-embellishment baseline.
	PDX = baseline.PDX
	// TrackMeNot is the random-ghost baseline.
	TrackMeNot = baseline.TrackMeNot
	// BeliefEngine computes topical beliefs (priors, posteriors, boosts).
	BeliefEngine = belief.Engine
	// Analyzer is the shared text-normalization pipeline.
	Analyzer = textproc.Analyzer
	// IndexStats summarizes the inverted index.
	IndexStats = index.Stats
	// ExecStats counts the work one query performed.
	ExecStats = vsm.ExecStats
	// Request is one structured similarity query: terms or raw text,
	// k, an optional document filter.
	Request = vsm.Request
	// Response is the ranked hits plus execution stats for one Request.
	Response = vsm.Response
	// RetryPolicy bounds transport retries on transient connection
	// errors: the trusted client's requests, and the cluster router's
	// stream dials.
	RetryPolicy = search.RetryPolicy
	// ClusterConfig parameterizes a scatter-gather router over shard
	// servers.
	ClusterConfig = cluster.Config
	// ClusterRouter fans each query cycle out across shard servers,
	// injecting cluster-merged collection statistics so the merged
	// ranking is score-identical to a single index, and degrading
	// gracefully when shards fail.
	ClusterRouter = cluster.Router
	// ClusterShard serves one slice of the corpus to a router over the
	// /cluster/* wire schema.
	ClusterShard = cluster.Shard
	// ClusterShardConfig parameterizes a persistent shard: data
	// directory, save cadence, logging.
	ClusterShardConfig = cluster.ShardConfig
	// StoreConfig parameterizes a live segment store (scoring, seal
	// threshold); used by OpenClusterShard.
	StoreConfig = segment.Config
)

// DefaultPrivacyParams returns the paper's defaults: ε1 = 5%, ε2 = 1%.
func DefaultPrivacyParams() PrivacyParams { return core.DefaultParams() }

// NewClusterRouter connects a scatter-gather router to running shard
// servers. The router offers the same surfaces a live store does
// (search, mutation, stats, titles), so search.NewServer hosts it
// unchanged and clients cannot tell a cluster from a single node —
// except for the Degraded flag when part of the corpus is unavailable.
// Every Add and Delete is a sequenced record in the router's one
// mutation log, delivered to its shards idempotently: deleting a
// document twice succeeds. Without ClusterConfig.JournalDir the log is
// held in memory and a mutation is acknowledged once its shards applied
// it; a delivery failure is the caller's error and is not retried.
// JournalDir makes the log durable: mutations are acknowledged
// after an fsynced WAL append, a router restart replays them, and the
// health loop re-drives whatever a crashed shard missed.
func NewClusterRouter(cfg ClusterConfig) (*ClusterRouter, error) { return cluster.New(cfg) }

// NewClusterShard wraps a live store in the shard wire surface; mount
// it on the store's search server (Shard.Mount) to serve a router.
// The shard is memory-only; use OpenClusterShard for one that
// survives restarts.
func NewClusterShard(store *segment.Store) *ClusterShard { return cluster.NewShard(store) }

// OpenClusterShard opens (or creates) a persistent shard: the segment
// store, which holds each document under its global ID, recovers from
// its manifest, the applied journal sequence from SHARD.json beside it,
// and a background saver persists both as mutations accumulate. Close flushes and saves; kill -9
// rewinds to the last save and the router's journal re-drives the
// rest.
func OpenClusterShard(storeCfg StoreConfig, cfg ClusterShardConfig) (*ClusterShard, error) {
	return cluster.OpenShard(storeCfg, cfg)
}

// ServiceSpec configures NewService.
type ServiceSpec struct {
	// Seed drives corpus synthesis, workload generation and LDA training.
	Seed int64
	// Corpus configures the synthetic corpus. Zero-valued fields take
	// the documented defaults (2,000 docs, 32 topics, …). Ignored when
	// Documents is non-nil.
	Corpus CorpusSpec
	// Documents, when non-nil, ingests these documents instead of
	// synthesizing a corpus (no ground truth will be available).
	Documents []Document
	// NumTopics is K for the topic model. Zero means the corpus
	// ground-truth topic count, or 24 for ingested corpora.
	NumTopics int
	// TrainIters is the Gibbs sweep budget. Zero means 120.
	TrainIters int
	// BM25 selects Okapi BM25 scoring instead of tf-idf cosine.
	BM25 bool
	// Live serves searches from the segmented live index instead of the
	// immutable engine: AddDocuments and DeleteDocument become
	// available, and the HTTP handler accepts POST /index and
	// DELETE /doc/{id}.
	Live bool
	// SealThreshold is the live memtable's seal size in documents
	// (0 = segment package default). Ignored unless Live.
	SealThreshold int
}

// Service wires the full system: corpus, index, search engine, topic
// model and belief engine, all sharing one analyzer. Build it once; it
// is then safe for concurrent readers. In live mode the document set
// may also change concurrently through AddDocuments/DeleteDocument —
// the belief engine keeps working against the trained model, and the
// service tracks how far the corpus has drifted from it (Staleness).
type Service struct {
	Corpus      *corpus.Corpus
	GroundTruth *GroundTruth // nil for ingested corpora
	Index       *index.Index
	Model       *Model
	Beliefs     *BeliefEngine

	analyzer *Analyzer
	searcher vsm.RequestSearcher
	store    *segment.Store // non-nil in live mode
	inf      *lda.Inferencer

	mu sync.Mutex
	// foldedTopics caches the fold-in topic posterior of each
	// post-training document, keyed by its live-store ID.
	foldedTopics map[corpus.DocID][]float64
	// staleOps counts adds and deletes since the model was trained.
	staleOps int
	// trainedDocs is the corpus size the model was trained on.
	trainedDocs int
}

// NewService builds everything from the spec: synthesize or ingest the
// corpus, build the inverted index and search engine, train the LDA
// model, and stand up the belief engine.
func NewService(spec ServiceSpec) (*Service, error) {
	an := textproc.NewAnalyzer()
	var (
		c   *corpus.Corpus
		gt  *GroundTruth
		err error
	)
	if spec.Documents != nil {
		c, err = corpus.Build(spec.Documents, an, textproc.PruneSpec{MinDocFreq: 2})
	} else {
		cs := spec.Corpus
		if cs.Seed == 0 {
			cs.Seed = spec.Seed
		}
		c, gt, err = corpus.Synthesize(cs, an)
	}
	if err != nil {
		return nil, fmt.Errorf("toppriv: corpus: %w", err)
	}

	idx, err := index.Build(c)
	if err != nil {
		return nil, fmt.Errorf("toppriv: index: %w", err)
	}
	scoring := vsm.Cosine
	if spec.BM25 {
		scoring = vsm.BM25
	}
	var (
		searcher vsm.RequestSearcher
		store    *segment.Store
	)
	if spec.Live {
		store, err = segment.Open(segment.Config{
			Scoring:       scoring,
			Analyzer:      an,
			SealThreshold: spec.SealThreshold,
		})
		if err != nil {
			return nil, fmt.Errorf("toppriv: live store: %w", err)
		}
		if _, err := store.Add(c.Docs...); err != nil {
			store.Close()
			return nil, fmt.Errorf("toppriv: live store seed: %w", err)
		}
		searcher = store
	} else {
		eng, err := vsm.NewEngine(idx, an, scoring)
		if err != nil {
			return nil, fmt.Errorf("toppriv: engine: %w", err)
		}
		searcher = eng
	}

	fail := func(err error) (*Service, error) {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	k := spec.NumTopics
	if k == 0 {
		if c.GroundTruthTopics > 0 {
			k = c.GroundTruthTopics
		} else {
			k = 24
		}
	}
	iters := spec.TrainIters
	if iters == 0 {
		iters = 120
	}
	m, _, err := lda.Train(c, lda.TrainSpec{NumTopics: k, Iterations: iters, Seed: spec.Seed})
	if err != nil {
		return fail(fmt.Errorf("toppriv: train: %w", err))
	}
	inf, err := lda.NewInferencer(m, lda.InferSpec{})
	if err != nil {
		return fail(fmt.Errorf("toppriv: inferencer: %w", err))
	}
	beliefs, err := belief.NewEngine(inf)
	if err != nil {
		return fail(fmt.Errorf("toppriv: beliefs: %w", err))
	}

	return &Service{
		Corpus:       c,
		GroundTruth:  gt,
		Index:        idx,
		Model:        m,
		Beliefs:      beliefs,
		analyzer:     an,
		searcher:     searcher,
		store:        store,
		inf:          inf,
		foldedTopics: make(map[corpus.DocID][]float64),
		trainedDocs:  c.NumDocs(),
	}, nil
}

// Analyzer returns the shared text pipeline.
func (s *Service) Analyzer() *Analyzer { return s.analyzer }

// AnalyzeQuery normalizes raw query text into index/model terms.
func (s *Service) AnalyzeQuery(raw string) []string { return s.analyzer.Analyze(raw) }

// Search runs an (unprotected) similarity query directly against the
// local engine, returning up to k results: SearchRequest without the
// context, the stats or the error, which only a non-positive k can
// raise here (it returns no hits).
func (s *Service) Search(raw string, k int) []SearchHit {
	hits, _, _ := s.SearchRequest(context.Background(), Request{Query: raw, K: k})
	return hits
}

// SearchRequest runs one structured (unprotected) query against the
// local engine or live store: per-request k, context cancellation,
// execution stats. Hits carry titles resolved
// against the service's document source.
func (s *Service) SearchRequest(ctx context.Context, req Request) ([]SearchHit, ExecStats, error) {
	resp, err := s.searcher.SearchRequest(ctx, req)
	if err != nil {
		return nil, ExecStats{}, err
	}
	return s.toHits(resp.Hits), resp.Stats, nil
}

// SearchBatch runs a batch of structured queries — typically one
// obfuscation cycle — in a single engine pass that shares term
// resolution and postings buffers across members. Responses align with
// reqs by index; each member's hits are identical to running it alone.
func (s *Service) SearchBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	return s.searcher.SearchBatch(ctx, reqs)
}

// toHits resolves result titles against whichever document source the
// service runs on.
func (s *Service) toHits(results []vsm.Result) []SearchHit {
	hits := make([]SearchHit, len(results))
	for i, r := range results {
		hit := SearchHit{Doc: r.Doc, Score: r.Score}
		if s.store != nil {
			if doc, ok := s.store.Doc(r.Doc); ok {
				hit.Title = doc.Title
			}
		} else if int(r.Doc) < len(s.Corpus.Docs) {
			hit.Title = s.Corpus.Docs[r.Doc].Title
		}
		hits[i] = hit
	}
	return hits
}

// Live reports whether the service runs on the segmented live index.
func (s *Service) Live() bool { return s.store != nil }

// Store exposes the live segment store (nil unless ServiceSpec.Live).
func (s *Service) Store() *segment.Store { return s.store }

// Close releases live-mode resources (the background compactor). It is
// a no-op for immutable services.
func (s *Service) Close() error {
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// AddDocuments ingests documents into the live index, immediately
// searchable. The LDA model is not retrained; instead each new document
// is folded in through the existing inferencer — its topic posterior
// under the trained Φ — so the belief engine's view of the corpus stays
// consistent, and the service's staleness counter records the drift.
// Callers watching Staleness decide when a full retrain is due.
func (s *Service) AddDocuments(docs ...Document) ([]corpus.DocID, error) {
	if s.store == nil {
		return nil, fmt.Errorf("toppriv: AddDocuments requires ServiceSpec.Live")
	}
	ids, err := s.store.Add(docs...)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, doc := range docs {
		terms := s.analyzer.Analyze(doc.Text)
		s.foldedTopics[ids[i]] = s.inf.PosteriorTerms(terms)
		s.staleOps++
	}
	return ids, nil
}

// DeleteDocument tombstones a live document. Like adds, deletes drift
// the corpus away from the trained model and count toward Staleness.
func (s *Service) DeleteDocument(id corpus.DocID) error {
	if s.store == nil {
		return fmt.Errorf("toppriv: DeleteDocument requires ServiceSpec.Live")
	}
	if err := s.store.Delete(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.foldedTopics, id)
	s.staleOps++
	return nil
}

// FoldedTopics returns the fold-in topic posterior of a document added
// after training (and true), or nil and false for training-corpus
// documents.
func (s *Service) FoldedTopics(id corpus.DocID) ([]float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	theta, ok := s.foldedTopics[id]
	if !ok {
		return nil, false
	}
	out := make([]float64, len(theta))
	copy(out, theta)
	return out, true
}

// Staleness reports how far the live corpus has drifted from the
// trained model: mutations since training divided by the training
// corpus size. 0 means the model is fresh; callers typically retrain
// past some threshold (say 0.2).
func (s *Service) Staleness() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.trainedDocs == 0 {
		return 0
	}
	return float64(s.staleOps) / float64(s.trainedDocs)
}

// NewObfuscator builds a TopPriv obfuscator with the given privacy
// parameters over this service's topic model.
func (s *Service) NewObfuscator(p PrivacyParams) (*Obfuscator, error) {
	return core.NewObfuscator(s.Beliefs, p)
}

// NewSession starts a session-level obfuscation stream for one user:
// masking topics adopted early are preferred later, so a user who keeps
// querying the same interest does not leak it to cross-cycle frequency
// analysis.
func (s *Service) NewSession(p PrivacyParams) (*Session, error) {
	obf, err := s.NewObfuscator(p)
	if err != nil {
		return nil, err
	}
	return core.NewSession(obf)
}

// NewPDX builds the query-embellishment baseline.
func (s *Service) NewPDX(expansion, eps1 float64) (*PDX, error) {
	return baseline.NewPDX(s.Beliefs, expansion, eps1)
}

// NewTrackMeNot builds the random-ghost baseline.
func (s *Service) NewTrackMeNot(numGhosts, minLen, maxLen int) (*TrackMeNot, error) {
	return baseline.NewTrackMeNot(s.Beliefs, numGhosts, minLen, maxLen)
}

// Handler returns the HTTP search server for this corpus: the
// unmodified engine of the paper's system model. Live services get the
// mutation endpoints (POST /index, DELETE /doc/{id}) as well; document
// lookups then resolve through the live store. The server's GET
// /metrics exposition additionally carries this service's LDA
// model-staleness gauge, so a scraper can watch corpus drift and alert
// when a retrain is due.
func (s *Service) Handler() (*Server, error) {
	var (
		srv *Server
		err error
	)
	if s.store != nil {
		srv, err = search.NewServer(s.store, nil)
	} else {
		srv, err = search.NewServer(s.searcher, s.Corpus.Docs)
	}
	if err != nil {
		return nil, err
	}
	srv.Registry().GaugeFunc("toppriv_lda_staleness",
		"Corpus drift since LDA training: mutations / training-corpus size.",
		s.Staleness)
	return srv, nil
}

// NewClient builds the trusted client module against a running server.
func (s *Service) NewClient(baseURL string, obf *Obfuscator, seed int64) (*Client, error) {
	return search.NewClient(baseURL, nil, obf, s.analyzer, rand.New(rand.NewSource(seed)))
}

// Workload generates benchmark queries from the service's ground truth
// (synthetic corpora only).
func (s *Service) Workload(spec WorkloadSpec) ([]QuerySpec, error) {
	if s.GroundTruth == nil {
		return nil, fmt.Errorf("toppriv: workload needs a synthetic corpus with ground truth")
	}
	return corpus.Workload(s.GroundTruth, spec)
}

// Stats summarizes the inverted index (postings skew, PIR padding
// cost). In live mode the statistics come from the live store and
// track adds and deletes; the exported Index field remains the
// training-corpus snapshot the LDA model was fit to.
func (s *Service) Stats() IndexStats {
	if s.store != nil {
		return s.store.ComputeStats()
	}
	return s.Index.ComputeStats()
}
