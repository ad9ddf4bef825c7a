// Command searchd hosts the enterprise search engine over HTTP: the
// unmodified server of the paper's system model. It serves /search,
// /search/batch (a whole obfuscation cycle per round-trip, every
// member still logged separately), /doc/{id} and /stats, and — like
// any real engine — retains a query log, which is exactly what the
// curious adversary of the threat model gets to analyze.
//
// By default the index is immutable, built once from the corpus. With
// -live the engine runs on the segmented live index instead: POST
// /index and DELETE /doc/{id} mutate the corpus while /search keeps
// serving, the memtable seals into segments as it fills, a background
// compactor merges them, and -data persists the segments (TPIX codec
// per segment plus a manifest) so a restart recovers without
// re-analyzing a single document. With -mmap the recovered segments
// are memory-mapped instead of decoded onto the heap — postings page
// in on traversal; GET /stats reports the resulting residency.
//
// On SIGINT/SIGTERM the server drains in-flight requests, and in -live
// mode flushes the memtable into a sealed segment and saves to -data
// before exiting.
//
// The server exposes its telemetry on GET /metrics (Prometheus text
// format) and GET /debug/traces (per-query phase traces); with
// -metrics-addr those are additionally served on a separate admin
// listener, and -pprof mounts net/http/pprof there too.
//
// The distributed tier reuses this one binary in two more modes. With
// -shard the process serves one slice of the corpus: a live store plus
// the /cluster/* wire endpoints (batch search with injected global
// statistics, stats export, gid-addressed ingest and delete) that a
// router drives; it receives documents only by router placement, its
// store holds each under its global ID, and with -data it persists the
// store and the applied journal sequence so a restart — graceful or
// kill -9 — recovers without losing anything saved. With -router -shards=u1,u2,... the
// process holds no index at all: it scatter-gathers every query cycle
// across the shards, merges top-k, degrades gracefully when shards
// fail, and serves the standard /search surface unchanged. Adding
// -journal gives the router a durable placement journal: mutations are
// acknowledged once fsynced there, a health loop re-drives anything a
// crashed or rebooted shard missed, and a router restart replays its
// placement state from disk. SIGINT/SIGTERM drains all modes the same
// way: in-flight requests finish, then shards flush and save, routers
// fsync and compact the journal.
//
// Usage:
//
//	searchd -corpus corpus.json -addr :8080 [-bm25]
//	searchd -live -data ./idx -corpus corpus.json -addr :8080
//	searchd -live -data ./idx -mmap -addr :8080
//	searchd -corpus corpus.json -addr :8080 -metrics-addr 127.0.0.1:9090 -pprof
//	searchd -shard -addr :8081 [-bm25]
//	searchd -shard -data ./shard0 -addr :8081
//	searchd -router -shards=http://h1:8081,http://h2:8081 -addr :8080
//	searchd -router -shards=... -journal ./journal -addr :8080
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"toppriv/internal/cluster"
	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/search"
	"toppriv/internal/segment"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("searchd: ")

	var (
		corpusPath  = flag.String("corpus", "corpus.json", "corpus JSON from corpusgen")
		addr        = flag.String("addr", ":8080", "listen address")
		bm25        = flag.Bool("bm25", false, "score with BM25 instead of tf-idf cosine")
		maxK        = flag.Int("max-k", 0, "cap per-request result count (0 = default 1000)")
		maxBatch    = flag.Int("max-batch", 0, "cap queries per POST /search/batch request (0 = default 64)")
		live        = flag.Bool("live", false, "serve the segmented live index (POST /index, DELETE /doc/{id})")
		dataDir     = flag.String("data", "", "live mode: segment persistence directory (empty = in-memory only)")
		seal        = flag.Int("seal", 0, "live mode: memtable seal threshold in documents (0 = default)")
		mmapFlag    = flag.Bool("mmap", false, "live mode: open saved segments memory-mapped (disk-resident postings; requires -data)")
		querylogCap = flag.Int("querylog-cap", 0, "retain at most this many query-log entries (0 = default 100k)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		adminToken  = flag.String("admin-token", "", "live mode: require this bearer token on POST /index and DELETE /doc/{id}")
		metricsAddr = flag.String("metrics-addr", "", "also serve GET /metrics and /debug/traces on a separate admin listener at this address")
		pprofFlag   = flag.Bool("pprof", false, "mount net/http/pprof on the -metrics-addr admin listener")

		shardMode     = flag.Bool("shard", false, "serve one cluster slice: a live store plus the /cluster/* wire endpoints (-data makes it persistent)")
		routerMode    = flag.Bool("router", false, "serve as scatter-gather router over -shards (holds no index)")
		shardList     = flag.String("shards", "", "router mode: comma-separated shard base URLs")
		shardDeadline = flag.Duration("shard-deadline", 2*time.Second, "router mode: per-shard query deadline before degrading")
		shardRetries  = flag.Int("shard-retries", 1, "router mode: transport retries per shard exchange on connection refused/reset")
		journalDir    = flag.String("journal", "", "router mode: placement journal directory (durable acks, crash recovery, shard catch-up)")
		probeEvery    = flag.Duration("probe-interval", time.Second, "router mode with -journal: shard health-probe and catch-up period")
		shardSaveEvry = flag.Int("shard-save-every", 0, "shard mode with -data: background save after this many mutations (0 = default)")
	)
	flag.Parse()

	if *pprofFlag && *metricsAddr == "" {
		log.Fatal("-pprof requires -metrics-addr: profiling endpoints must not share the public listener")
	}
	if *shardMode && *routerMode {
		log.Fatal("-shard and -router are mutually exclusive")
	}
	if *routerMode && (*live || *dataDir != "" || *mmapFlag) {
		log.Fatal("-router holds no index: -live/-data/-mmap do not apply")
	}
	if *journalDir != "" && !*routerMode {
		log.Fatal("-journal requires -router")
	}
	if *shardSaveEvry != 0 && (!*shardMode || *dataDir == "") {
		log.Fatal("-shard-save-every requires -shard with -data")
	}
	if *routerMode && *shardList == "" {
		log.Fatal("-router requires -shards=url1,url2,...")
	}
	if !*routerMode && *shardList != "" {
		log.Fatal("-shards requires -router")
	}
	if *mmapFlag && (!*live || *dataDir == "") {
		log.Fatal("-mmap requires -live and -data: only saved segments can be memory-mapped")
	}

	scoring := vsm.Cosine
	if *bm25 {
		scoring = vsm.BM25
	}
	an := textproc.NewAnalyzer()

	var (
		searcher vsm.RequestSearcher
		docs     []corpus.Document
		store    *segment.Store
		shard    *cluster.Shard
		router   *cluster.Router
	)
	switch {
	case *routerMode:
		shards := strings.Split(*shardList, ",")
		for i := range shards {
			shards[i] = strings.TrimSuffix(strings.TrimSpace(shards[i]), "/")
		}
		rt, err := cluster.New(cluster.Config{
			Shards:        shards,
			Deadline:      *shardDeadline,
			Retry:         search.RetryPolicy{Max: *shardRetries},
			Analyzer:      an,
			JournalDir:    *journalDir,
			ProbeInterval: *probeEvery,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		router = rt
		stats := rt.ComputeStats()
		durability := "memory-only placement"
		if *journalDir != "" {
			durability = "journaled placement in " + *journalDir
		}
		log.Printf("router over %d shards: %d docs / %d terms, %s scoring, %v deadline, %s",
			len(shards), stats.NumDocs, stats.NumTerms, rt.Scoring(), *shardDeadline, durability)
		// The serving line reports what the cluster actually scores
		// with, not the (ignored) local flag.
		if rt.Scoring() == vsm.BM25.String() {
			scoring = vsm.BM25
		}
		searcher = rt
	case *shardMode:
		storeCfg := segment.Config{
			Scoring: scoring, Analyzer: an,
			SealThreshold: *seal, Logf: log.Printf,
		}
		if *dataDir != "" {
			sh, err := cluster.OpenShard(storeCfg, cluster.ShardConfig{
				Dir: *dataDir, SaveEvery: *shardSaveEvry, Logf: log.Printf,
			})
			if err != nil {
				log.Fatal(err)
			}
			shard = sh
			store = sh.Store()
			if store.Scoring() != scoring {
				log.Printf("note: -data manifest pins %s scoring, overriding the flag", store.Scoring())
				scoring = store.Scoring()
			}
			log.Printf("shard serving %d docs from %s (%s scoring); awaiting router placement",
				store.NumDocs(), *dataDir, scoring)
		} else {
			st, err := segment.Open(storeCfg)
			if err != nil {
				log.Fatal(err)
			}
			store = st
			shard = cluster.NewShard(st)
			log.Printf("shard starting empty, in-memory (%s scoring); awaiting router placement", scoring)
		}
		searcher = store
	case *live:
		store = openLiveStore(an, scoring, *corpusPath, *dataDir, *seal, *mmapFlag)
		searcher = store
		// A recovered manifest's scoring overrides the flag; report what
		// is actually served.
		if store.Scoring() != scoring {
			log.Printf("note: -data manifest pins %s scoring, overriding the flag", store.Scoring())
			scoring = store.Scoring()
		}
	default:
		c := loadCorpus(*corpusPath, an)
		idx, err := index.Build(c)
		if err != nil {
			log.Fatal(err)
		}
		engine, err := vsm.NewEngine(idx, an, scoring)
		if err != nil {
			log.Fatal(err)
		}
		stats := idx.ComputeStats()
		log.Printf("immutable index: %d docs / %d terms", stats.NumDocs, stats.NumTerms)
		searcher = engine
		docs = c.Docs
	}

	srv, err := search.NewServer(searcher, docs)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetQueryLogCap(*querylogCap)
	srv.SetAdminToken(*adminToken)
	srv.SetMaxK(*maxK)
	srv.SetMaxBatch(*maxBatch)
	if shard != nil {
		shard.Mount(srv)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	mode := "immutable"
	switch {
	case *routerMode:
		mode = "router"
	case *shardMode:
		mode = "shard"
	case *live:
		mode = "live"
	}
	log.Printf("serving (%s, %s scoring) on %s", mode, scoring, ln.Addr())

	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	// The admin listener carries the operator surface — metrics, phase
	// traces, and (opted in) pprof — on an address that can stay behind
	// the firewall while the search listener faces users.
	var adminSrv *http.Server
	if *metricsAddr != "" {
		adminLn, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		adminMux := http.NewServeMux()
		adminMux.Handle("/metrics", srv)
		adminMux.Handle("/debug/traces", srv)
		if *pprofFlag {
			adminMux.HandleFunc("/debug/pprof/", pprof.Index)
			adminMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			adminMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			adminMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			adminMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		adminSrv = &http.Server{
			Handler:           adminMux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		what := "metrics"
		if *pprofFlag {
			what = "metrics+pprof"
		}
		log.Printf("admin (%s) on %s", what, adminLn.Addr())
		go func() {
			if err := adminSrv.Serve(adminLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("admin serve: %v", err)
			}
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("caught %v, draining (max %v)", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if adminSrv != nil {
		if err := adminSrv.Shutdown(ctx); err != nil {
			log.Printf("admin drain: %v", err)
		}
	}
	if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		log.Printf("serve: %v", serveErr)
	}
	switch {
	case router != nil:
		// Drained routers fsync and compact the placement journal so a
		// restart replays from the snapshot alone.
		if err := router.Close(); err != nil {
			log.Printf("router close: %v", err)
		}
	case shard != nil:
		// Shard drain mirrors live mode: close against stragglers, then
		// the final save writes the store and then the applied sequence.
		if err := shard.Close(); err != nil {
			log.Printf("shard close: %v", err)
		} else if shard.Persistent() {
			log.Printf("saved %d segments and applied sequence to %s", store.NumSegments(), *dataDir)
		}
	case store != nil:
		// Close first: any straggler that outlived the drain now gets
		// ErrClosed instead of an acknowledgment its document would lose
		// on exit. Save (which seals the memtable itself) then writes
		// everything that was ever acknowledged.
		store.Close()
		if *dataDir != "" {
			if err := store.Save(*dataDir); err != nil {
				log.Printf("save: %v", err)
			} else {
				log.Printf("saved %d segments to %s", store.NumSegments(), *dataDir)
			}
		}
	}
	log.Print("bye")
}

// openLiveStore recovers a saved store from dataDir when a manifest
// exists; otherwise it opens a fresh store and, when the corpus file is
// readable, bulk-loads it.
func openLiveStore(an *textproc.Analyzer, scoring vsm.Scoring, corpusPath, dataDir string, seal int, mapped bool) *segment.Store {
	cfg := segment.Config{
		Scoring: scoring, Analyzer: an, SealThreshold: seal,
		Mapped: mapped, Logf: log.Printf,
	}
	if dataDir != "" {
		if _, err := os.Stat(filepath.Join(dataDir, "MANIFEST.json")); err == nil {
			store, err := segment.Load(dataDir, cfg)
			if err != nil {
				log.Fatal(err)
			}
			s := store.Stats()
			how := "no reindex"
			if mapped {
				how = "no reindex, mmap"
			}
			log.Printf("recovered %d segments / %d live docs from %s (%s)",
				s.Segments, s.LiveDocs, dataDir, how)
			return store
		}
	}
	store, err := segment.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(corpusPath)
	if err != nil {
		// Only a genuinely absent corpus means "start empty"; anything
		// else (permissions, a directory, ...) must not silently serve
		// zero documents.
		if !os.IsNotExist(err) {
			log.Fatal(err)
		}
		log.Printf("live store starting empty (no %s)", corpusPath)
		return store
	}
	// Decode the raw documents only — Add analyzes them exactly once
	// on the way into the memtable.
	docs, err := corpus.DecodeDocs(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := store.Add(docs...); err != nil {
		log.Fatal(err)
	}
	log.Printf("live store seeded with %d docs from %s", store.NumDocs(), corpusPath)
	return store
}

// loadCorpus reads and analyzes the corpus for the immutable path.
func loadCorpus(path string, an *textproc.Analyzer) *corpus.Corpus {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	c, err := corpus.ReadJSON(f, an, textproc.PruneSpec{MinDocFreq: 2})
	if err != nil {
		log.Fatal(err)
	}
	return c
}
