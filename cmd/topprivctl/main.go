// Command topprivctl is the trusted client of Fig. 1 as a CLI: it reads
// queries from the command line (or stdin), obfuscates each one through
// TopPriv against a trained model, submits the whole cycle to a running
// searchd, and prints only the genuine results — optionally showing the
// ghost queries so you can see what the server saw.
//
// Usage:
//
//	topprivctl -server http://localhost:8080 -model model.gob \
//	    -eps1 0.05 -eps2 0.01 -show-ghosts "apache helicopter army"
//
// With no positional arguments, queries are read one per line from
// stdin.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"toppriv/internal/belief"
	"toppriv/internal/core"
	"toppriv/internal/corpus"
	"toppriv/internal/lda"
	"toppriv/internal/search"
	"toppriv/internal/telemetry"
	"toppriv/internal/textproc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topprivctl: ")

	var (
		server     = flag.String("server", "http://localhost:8080", "searchd base URL")
		modelPath  = flag.String("model", "model.gob", "trained LDA model from ldatrain")
		eps1       = flag.Float64("eps1", 0.05, "relevance threshold ε1")
		eps2       = flag.Float64("eps2", 0.01, "exposure threshold ε2 (≤ ε1)")
		k          = flag.Int("k", 10, "results per query")
		batch      = flag.Bool("batch", false, "submit each obfuscation cycle in a single POST /search/batch round-trip instead of query-by-query (the server still logs every cycle member separately)")
		seed       = flag.Int64("seed", 0, "obfuscation seed (0 = nondeterministic)")
		showGhosts = flag.Bool("show-ghosts", false, "print the ghost queries the server saw")
		plain      = flag.Bool("plain", false, "skip obfuscation (for comparison)")
		session    = flag.Bool("session", false, "keep a sticky decoy profile across the queries of this invocation (resists cross-cycle intersection analysis)")
		stats      = flag.Bool("stats", false, "print the server's index statistics (GET /stats) — docs, terms, serialized size, and the exact compressed-postings footprint — then exit")
		metrics    = flag.Bool("metrics", false, "fetch GET /metrics and pretty-print every family (aligned, sorted), then exit")
		traces     = flag.Int("traces", 0, "fetch the most recent N per-query phase traces (GET /debug/traces; -1 = all), then exit")
		addDocs    = flag.String("add-docs", "", "admin: ingest documents from this JSON file into a -live searchd (POST /index), then exit")
		deleteDoc  = flag.Int64("delete-doc", -1, "admin: tombstone this document ID on a -live searchd (DELETE /doc/{id}), then exit")
		adminToken = flag.String("admin-token", "", "bearer token for the admin verbs (when searchd runs with -admin-token)")
	)
	flag.Parse()

	// Admin verbs talk straight to the live index and need no model.
	if *stats {
		runStats(*server)
		return
	}
	if *metrics {
		runMetrics(*server)
		return
	}
	if *traces != 0 {
		runTraces(*server, *adminToken, *traces)
		return
	}
	if *addDocs != "" || *deleteDoc >= 0 {
		runAdmin(*server, *adminToken, *addDocs, *deleteDoc)
		return
	}

	if *batch && *session {
		// Sessions obfuscate with a sticky decoy profile and submit
		// member by member; silently dropping that for the batch
		// transport would change the privacy behavior the user asked
		// for.
		log.Fatal("-batch and -session are mutually exclusive (session cycles are submitted query-by-query)")
	}

	f, err := os.Open(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	m, err := lda.Load(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	inf, err := lda.NewInferencer(m, lda.InferSpec{})
	if err != nil {
		log.Fatal(err)
	}
	beliefs, err := belief.NewEngine(inf)
	if err != nil {
		log.Fatal(err)
	}
	obf, err := core.NewObfuscator(beliefs, core.Params{Eps1: *eps1, Eps2: *eps2})
	if err != nil {
		log.Fatal(err)
	}
	rngSeed := *seed
	if rngSeed == 0 {
		rngSeed = int64(os.Getpid())
	}
	an := textproc.NewAnalyzer()
	client, err := search.NewClient(*server, http.DefaultClient, obf, an, rand.New(rand.NewSource(rngSeed)))
	if err != nil {
		log.Fatal(err)
	}
	client.K = *k

	var sess *core.Session
	if *session {
		sess, err = core.NewSession(obf)
		if err != nil {
			log.Fatal(err)
		}
		sess.MaxSticky = 6
	}

	run := func(query string) {
		query = strings.TrimSpace(query)
		if query == "" {
			return
		}
		var hits []search.SearchHit
		var err error
		var sessionCycle *core.Cycle
		switch {
		case *plain:
			hits, err = client.SearchPlain(query)
		case *batch:
			hits, err = client.SearchCycle(context.Background(), query)
		case sess != nil:
			// Session mode: obfuscate with the sticky profile, then
			// submit each query of the cycle individually.
			terms := an.Analyze(query)
			if len(terms) == 0 {
				log.Printf("query %q: no indexable terms", query)
				return
			}
			sessionCycle, err = sess.Obfuscate(terms, rand.New(rand.NewSource(rngSeed+int64(len(sess.History)))))
			if err == nil {
				for i, q := range sessionCycle.Queries {
					res, qerr := client.SearchPlain(strings.Join(q, " "))
					if qerr != nil {
						err = qerr
						break
					}
					if i == sessionCycle.UserIndex {
						hits = res
					}
				}
			}
		default:
			hits, err = client.Search(query)
		}
		if err != nil {
			log.Printf("query %q: %v", query, err)
			return
		}
		fmt.Printf("query: %s\n", query)
		if !*plain {
			cyc := sessionCycle
			if cyc == nil {
				cyc = client.LastCycle()
			}
			if cyc != nil {
				fmt.Printf("  cycle: %d queries, intention |U|=%d, exposure %.2f%%, satisfied=%v\n",
					cyc.Len(), len(cyc.Intention), cyc.Exposure*100, cyc.Satisfied)
				if *showGhosts {
					for i, g := range cyc.Queries {
						tag := "ghost"
						if i == cyc.UserIndex {
							tag = "USER "
						}
						fmt.Printf("  [%s] %s\n", tag, strings.Join(g, " "))
					}
				}
			}
		}
		for i, h := range hits {
			fmt.Printf("  %2d. doc %-6d %.4f  %s\n", i+1, h.Doc, h.Score, h.Title)
		}
	}

	if flag.NArg() > 0 {
		for _, q := range flag.Args() {
			run(q)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		run(sc.Text())
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

// runStats prints the server's index-shape report: the collection
// counts plus the postings memory footprint the compressed layout is
// accountable for.
func runStats(server string) {
	client := search.NewAdminClient(server, nil)
	full, err := client.StatsFull()
	if err != nil {
		log.Fatal(err)
	}
	s := full.Stats
	fmt.Printf("documents:         %d\n", s.NumDocs)
	fmt.Printf("terms:             %d\n", s.NumTerms)
	fmt.Printf("postings:          %d (mean list %.1f, max list %d)\n", s.NumPostings, s.MeanListLen, s.MaxListLen)
	fmt.Printf("serialized bytes:  %d\n", s.SizeBytes)
	fmt.Printf("postings bytes:    %d (%.1f bytes/doc", s.PostingsBytes, s.BytesPerDoc)
	if s.PostingsBytes > 0 {
		fmt.Printf(", %.2fx vs uncompressed", float64(8*s.NumPostings)/float64(s.PostingsBytes))
	}
	fmt.Println(")")
	fmt.Printf("PIR-padded bytes:  %d (%.0fx blowup)\n", s.PaddedPIRBytes, s.BlowupFactor())
	ql := full.QueryLog
	fmt.Printf("query log:         %d retained, %d evicted (seq [%d, %d))\n", ql.Retained, ql.Evicted, ql.HeadSeq, ql.TailSeq)
	if c := full.Cluster; c != nil {
		fmt.Printf("cluster:           %d shards, %d degraded queries\n", len(c.Shards), c.Degraded)
		if c.Journaled {
			fmt.Printf("journal:           %d bytes WAL, %d pending records, %d replayed entries, %d recoveries\n",
				c.JournalBytes, c.PendingRecords, c.ReplayedEntries, c.Recoveries)
		}
		for _, sh := range c.Shards {
			state := "up"
			if !sh.Up {
				state = "DOWN"
			}
			fmt.Printf("  %-28s %-4s %7d docs  %8d reqs  %5d errs  p99 %.1fms",
				sh.Shard, state, sh.Docs, sh.Requests, sh.Errors, sh.P99Millis)
			if sh.Restarts > 0 {
				fmt.Printf("  %d restarts", sh.Restarts)
			}
			if sh.LastSeenUnix > 0 {
				fmt.Printf("  last seen %s", time.Unix(sh.LastSeenUnix, 0).Format(time.TimeOnly))
			}
			if sh.LastError != "" {
				fmt.Printf("  (%s)", sh.LastError)
			}
			fmt.Println()
		}
	}
}

// runMetrics scrapes GET /metrics and pretty-prints the families the
// way a human reads them — sorted, aligned, one sample per line — via
// the same parser the round-trip tests use.
func runMetrics(server string) {
	client := search.NewAdminClient(server, nil)
	text, err := client.MetricsText()
	if err != nil {
		log.Fatal(err)
	}
	fams, err := telemetry.ParseText(strings.NewReader(text))
	if err != nil {
		log.Fatal(err)
	}
	if err := telemetry.FormatTable(fams, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// runTraces prints the server's retained per-query phase traces,
// newest last. Traces carry timings and work counters, never query
// text.
func runTraces(server, token string, n int) {
	client := search.NewAdminClient(server, nil)
	client.AdminToken = token
	if n < 0 {
		n = 0 // 0 = all, mirroring the endpoint
	}
	traces, err := client.Traces(n)
	if err != nil {
		log.Fatal(err)
	}
	if len(traces) == 0 {
		fmt.Println("no traces retained (run some queries first)")
		return
	}
	fmt.Printf("%-8s %-8s %-9s %6s %4s %6s %10s %10s %10s %10s %10s %8s\n",
		"SEQ", "SCORER", "MODE", "TERMS", "K", "BATCH", "RESOLVE", "FETCH", "TRAVERSE", "MERGE", "TOTAL", "SCORED")
	for _, t := range traces {
		fmt.Printf("%-8d %-8s %-9s %6d %4d %6d %10s %10s %10s %10s %10s %8d\n",
			t.Seq, t.Scorer, t.Mode, t.Terms, t.K, t.Batch,
			fmtNS(t.ResolveNS), fmtNS(t.FetchNS), fmtNS(t.TraverseNS), fmtNS(t.MergeNS), fmtNS(t.TotalNS),
			t.DocsScored)
	}
}

// fmtNS renders a nanosecond duration compactly (µs under 10ms, ms
// above).
func fmtNS(ns int64) string {
	switch {
	case ns >= 10_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.0fµs", float64(ns)/1e3)
	}
}

// runAdmin performs one mutation against a -live searchd. The docs file
// may be either a plain JSON array of documents or a corpusgen file
// ({"docs": [...]}).
func runAdmin(server, token, addDocs string, deleteDoc int64) {
	client := search.NewAdminClient(server, nil)
	client.AdminToken = token
	if addDocs != "" {
		f, err := os.Open(addDocs)
		if err != nil {
			log.Fatal(err)
		}
		docs, err := corpus.DecodeDocs(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", addDocs, err)
		}
		ids, err := client.AddDocuments(docs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("indexed %d documents", len(ids))
		if len(ids) > 0 {
			fmt.Printf(" (ids %d..%d)", ids[0], ids[len(ids)-1])
		}
		fmt.Println()
	}
	if deleteDoc >= 0 {
		if deleteDoc > math.MaxInt32 {
			log.Fatalf("document ID %d out of range", deleteDoc)
		}
		if err := client.DeleteDocument(corpus.DocID(deleteDoc)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("deleted document %d\n", deleteDoc)
	}
}
