package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/search"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// TestClusterEndToEnd drives the real binary: three searchd -shard
// processes and one -router process, a routed corpus split, the
// store-vs-rebuild score-equality oracle over plain HTTP, and a
// kill-one-shard degradation check. It is the CI integration job's
// workload; set TOPPRIV_CLUSTER_E2E=1 to run it (it builds the binary
// and forks four processes, too heavy for every `go test`).
func TestClusterEndToEnd(t *testing.T) {
	if os.Getenv("TOPPRIV_CLUSTER_E2E") != "1" {
		t.Skip("set TOPPRIV_CLUSTER_E2E=1 to run the multi-process cluster test")
	}

	bin := filepath.Join(t.TempDir(), "searchd")
	build := exec.Command("go", "build", "-o", bin, "toppriv/cmd/searchd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building searchd: %v", err)
	}

	addrs := make([]string, 4)
	for i := range addrs {
		addrs[i] = freeAddr(t)
	}
	shardURLs := []string{"http://" + addrs[0], "http://" + addrs[1], "http://" + addrs[2]}
	routerURL := "http://" + addrs[3]

	var procs []*exec.Cmd
	startProc := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %v: %v", args, err)
		}
		procs = append(procs, cmd)
		return cmd
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	})

	for i := 0; i < 3; i++ {
		startProc("-shard", "-bm25", "-addr", addrs[i])
	}
	for _, u := range shardURLs {
		waitReady(t, u+"/cluster/stats")
	}
	startProc("-router", "-shards", shardURLs[0]+","+shardURLs[1]+","+shardURLs[2],
		"-addr", addrs[3], "-shard-deadline", "2s", "-shard-retries", "2")
	waitReady(t, routerURL+"/stats")

	// Ingest through the router (which splits the corpus across the
	// shards by ring placement), with a few deletes for tombstones.
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, 60, 20)
	var ir search.IndexResponse
	postJSON(t, routerURL+"/index", search.IndexRequest{Docs: docs}, &ir)
	if len(ir.IDs) != len(docs) {
		t.Fatalf("ingest assigned %d ids for %d docs", len(ir.IDs), len(docs))
	}
	type entry struct {
		gid corpus.DocID
		doc corpus.Document
	}
	var alive []entry
	for i, gid := range ir.IDs {
		alive = append(alive, entry{gid: gid, doc: docs[i]})
	}
	for _, drop := range []int{3, 17, 31, 44} {
		req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/doc/%d", routerURL, alive[drop].gid), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete %d: status %d", alive[drop].gid, resp.StatusCode)
		}
		alive = append(alive[:drop], alive[drop+1:]...)
	}

	// Reference: a single from-scratch index over the survivors.
	refDocs := make([]corpus.Document, len(alive))
	gidToRef := make(map[corpus.DocID]corpus.DocID, len(alive))
	for i, e := range alive {
		refDocs[i] = corpus.Document{Title: e.doc.Title, Text: e.doc.Text}
		gidToRef[e.gid] = corpus.DocID(i)
	}
	refCorpus, err := corpus.Build(refDocs, an, textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	refIdx, err := index.Build(refCorpus)
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := vsm.NewEngine(refIdx, an, vsm.BM25)
	if err != nil {
		t.Fatal(err)
	}

	queries := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		queries = append(queries, queryFrom(docs[i*7], i*3, 4))
	}

	const k = 10
	full := make(map[string][]search.SearchHit, len(queries))
	for _, q := range queries {
		var sr search.SearchResponse
		postJSON(t, routerURL+"/search", search.SearchRequest{Query: q, K: len(alive)}, &sr)
		if sr.Degraded {
			t.Fatalf("query %q degraded with all shards up: %+v", q, sr.Shards)
		}
		want := mustSearch(t, refEng, vsm.Request{Terms: an.Analyze(q), K: len(alive)})
		if len(sr.Hits) != len(want) {
			t.Fatalf("query %q: cluster %d hits, rebuild %d", q, len(sr.Hits), len(want))
		}
		// Full retrieval: exact document-set and per-document score
		// agreement (rank order on exact FP ties may differ).
		gotScores := make(map[corpus.DocID]float64, len(sr.Hits))
		for _, hit := range sr.Hits {
			ref, ok := gidToRef[hit.Doc]
			if !ok {
				t.Fatalf("query %q: dead/unknown doc %d in results", q, hit.Doc)
			}
			gotScores[ref] = hit.Score
		}
		for _, res := range want {
			gs, ok := gotScores[res.Doc]
			if !ok {
				t.Fatalf("query %q: rebuild doc %d missing from cluster results", q, res.Doc)
			}
			if math.Abs(gs-res.Score) > 1e-9 {
				t.Fatalf("query %q doc %d: cluster %.12f, rebuild %.12f",
					q, res.Doc, gs, res.Score)
			}
		}
		full[q] = sr.Hits
	}

	// Kill shard 1 outright and query again: merged survivor results,
	// Degraded set, within the router's deadline, never an error.
	procs[1].Process.Kill()
	procs[1].Wait()
	time.Sleep(100 * time.Millisecond)

	r := newRing(shardURLs)
	for _, q := range queries {
		start := time.Now()
		var sr search.SearchResponse
		postJSON(t, routerURL+"/search", search.SearchRequest{Query: q, K: k}, &sr)
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("degraded query %q took %v", q, elapsed)
		}
		if !sr.Degraded {
			t.Fatalf("query %q not degraded after shard kill", q)
		}
		want := make([]search.SearchHit, 0, k)
		for _, hit := range full[q] {
			if r.place(hit.Doc) == 1 {
				continue
			}
			want = append(want, hit)
			if len(want) == k {
				break
			}
		}
		if len(sr.Hits) != len(want) {
			t.Fatalf("degraded query %q: %d hits, want %d survivors", q, len(sr.Hits), len(want))
		}
		for i := range want {
			if sr.Hits[i].Doc != want[i].Doc || sr.Hits[i].Score != want[i].Score {
				t.Fatalf("degraded query %q rank %d: doc %d score %.12f, want doc %d score %.12f",
					q, i, sr.Hits[i].Doc, sr.Hits[i].Score, want[i].Doc, want[i].Score)
			}
		}
	}

	// The router's stats surface reports the kill.
	var stats search.StatsResponse
	getJSON(t, routerURL+"/stats", &stats)
	if stats.Cluster == nil {
		t.Fatal("router /stats has no cluster section")
	}
	downs := 0
	for _, sh := range stats.Cluster.Shards {
		if !sh.Up {
			downs++
		}
	}
	if downs != 1 || stats.Cluster.Degraded == 0 {
		t.Fatalf("cluster health after kill: %d down, %d degraded cycles", downs, stats.Cluster.Degraded)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s not ready after 10s", url)
}

func postJSON(t *testing.T, url string, in, out interface{}) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, msg.String())
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
}

func getJSON(t *testing.T, url string, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestClusterCrashRecoveryE2E is the durability half of the CI
// integration job: three persistent searchd -shard processes and a
// journaled -router, with SIGKILL delivered to one shard and to the
// router mid-ingest. Both come back from disk and the test asserts
// the three recovery guarantees end to end: document counts, gid
// stability (every acked gid still resolves to its exact document,
// every acked delete stays deleted), and store-vs-rebuild score
// equality over the survivors. It also exercises the graceful path:
// SIGTERM must drain, save, and exit 0. Set TOPPRIV_CLUSTER_E2E=1 to
// run it.
func TestClusterCrashRecoveryE2E(t *testing.T) {
	if os.Getenv("TOPPRIV_CLUSTER_E2E") != "1" {
		t.Skip("set TOPPRIV_CLUSTER_E2E=1 to run the multi-process crash-recovery test")
	}

	bin := filepath.Join(t.TempDir(), "searchd")
	build := exec.Command("go", "build", "-o", bin, "toppriv/cmd/searchd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building searchd: %v", err)
	}

	root := t.TempDir()
	dataDirs := make([]string, 3)
	addrs := make([]string, 4)
	for i := range addrs {
		addrs[i] = freeAddr(t)
	}
	shardURLs := make([]string, 3)
	for i := range dataDirs {
		dataDirs[i] = filepath.Join(root, fmt.Sprintf("shard%d", i))
		shardURLs[i] = "http://" + addrs[i]
	}
	journalDir := filepath.Join(root, "journal")
	routerURL := "http://" + addrs[3]

	procs := make(map[string]*exec.Cmd)
	start := func(role string, args ...string) {
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s %v: %v", role, args, err)
		}
		procs[role] = cmd
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	})
	shardArgs := func(i int) []string {
		return []string{"-shard", "-bm25", "-data", dataDirs[i], "-addr", addrs[i]}
	}
	routerArgs := []string{"-router", "-shards", strings.Join(shardURLs, ","),
		"-addr", addrs[3], "-journal", journalDir,
		"-probe-interval", "150ms", "-shard-deadline", "2s", "-shard-retries", "2"}

	for i := 0; i < 3; i++ {
		start(fmt.Sprintf("shard%d", i), shardArgs(i)...)
	}
	for _, u := range shardURLs {
		waitReady(t, u+"/cluster/stats")
	}
	start("router", routerArgs...)
	waitReady(t, routerURL+"/stats")

	docs := synthDocs(t, 90, 41)
	type entry struct {
		gid corpus.DocID
		doc corpus.Document
	}
	alive := make(map[corpus.DocID]corpus.Document)
	ingest := func(batch []corpus.Document) []corpus.DocID {
		var ir search.IndexResponse
		postJSON(t, routerURL+"/index", search.IndexRequest{Docs: batch}, &ir)
		if len(ir.IDs) != len(batch) {
			t.Fatalf("ingest assigned %d ids for %d docs", len(ir.IDs), len(batch))
		}
		for i, gid := range ir.IDs {
			alive[gid] = batch[i]
		}
		return ir.IDs
	}

	gids1 := ingest(docs[:30])

	// Graceful path: SIGTERM shard 2, which must drain, save its
	// segments and SHARD.json, and exit 0; then restart it from disk.
	// The router observes the instance change and counts a restart.
	sh2 := procs["shard2"]
	if err := sh2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM shard2: %v", err)
	}
	if err := sh2.Wait(); err != nil {
		t.Fatalf("shard2 did not exit cleanly on SIGTERM: %v", err)
	}
	start("shard2", shardArgs(2)...)
	waitReady(t, shardURLs[2]+"/cluster/stats")

	ingest(docs[30:60])

	// The router's health loop observes shard2's instance change and
	// reports it as a restart, with a fresh last-seen stamp (the
	// counter is this router process's observation, so check it before
	// the router itself gets killed below).
	restartSeen := false
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
		var st search.StatsResponse
		getJSON(t, routerURL+"/stats", &st)
		if st.Cluster != nil {
			for _, sh := range st.Cluster.Shards {
				if sh.Restarts > 0 && sh.LastSeenUnix > 0 {
					restartSeen = true
				}
			}
		}
		if restartSeen {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !restartSeen {
		t.Fatal("router never reported shard2's restart on /stats")
	}

	// Two acked deletes before any crash: they are journaled and must
	// stay deleted through every restart below.
	dropped := []corpus.DocID{gids1[4], gids1[19]}
	for _, gid := range dropped {
		req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/doc/%d", routerURL, gid), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete %d: status %d", gid, resp.StatusCode)
		}
		delete(alive, gid)
	}

	// Crash path. SIGKILL shard 1 (no flush, no save), then keep
	// ingesting through the router: acks are journal-first, so the
	// batch must be accepted and survive even though one of its target
	// shards is dead. Then SIGKILL the router itself.
	procs["shard1"].Process.Kill()
	procs["shard1"].Wait()
	batch3 := ingest(docs[60:80])
	maxAcked := batch3[len(batch3)-1]

	// One more batch races the router kill: fire the POST and SIGKILL
	// the router while it may still be in flight. Journal appends are
	// all-or-nothing per batch, so after recovery either every batch4
	// document exists (contiguous gids after maxAcked) or none do; we
	// resolve which below and fold the answer into the oracle.
	batch4 := docs[80:]
	postDone := make(chan error, 1)
	go func() {
		body, _ := json.Marshal(search.IndexRequest{Docs: batch4})
		resp, err := http.Post(routerURL+"/index", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		postDone <- err
	}()
	time.Sleep(5 * time.Millisecond)
	procs["router"].Process.Kill()
	procs["router"].Wait()
	<-postDone // outcome intentionally ignored: the journal decides

	// Restart both casualties from disk: the shard recovers its saved
	// segments and applied sequence, the router replays the placement
	// journal and re-drives whatever the dead shard missed.
	start("shard1", shardArgs(1)...)
	waitReady(t, shardURLs[1]+"/cluster/stats")
	start("router", routerArgs...)
	waitReady(t, routerURL+"/stats")

	// Did the racing batch make it into the journal? Probe the first
	// gid it would have been assigned.
	probeURL := fmt.Sprintf("%s/doc/%d", routerURL, maxAcked+1)
	deadline := time.Now().Add(15 * time.Second)
	batch4In := false
	for time.Now().Before(deadline) {
		resp, err := http.Get(probeURL)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				batch4In = true
				break
			}
		}
		// Fresh struct each poll: omitempty fields (PendingRecords
		// reaching 0) would otherwise leave stale values behind.
		var stats search.StatsResponse
		getJSON(t, routerURL+"/stats", &stats)
		if stats.Cluster != nil && stats.Cluster.PendingRecords == 0 && stats.NumDocs >= len(alive) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if batch4In {
		for i, doc := range batch4 {
			alive[maxAcked+1+corpus.DocID(i)] = doc
		}
	}

	// Wait for full catch-up: every shard up, every journaled mutation
	// confirmed durable by its target shards, counts settled.
	var stats search.StatsResponse
	for time.Now().Before(deadline) {
		stats = search.StatsResponse{}
		getJSON(t, routerURL+"/stats", &stats)
		downs := 0
		if stats.Cluster != nil {
			for _, sh := range stats.Cluster.Shards {
				if !sh.Up {
					downs++
				}
			}
		}
		if stats.Cluster != nil && downs == 0 && stats.Cluster.PendingRecords == 0 &&
			stats.NumDocs == len(alive) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if stats.Cluster == nil {
		t.Fatal("router /stats has no cluster section after restart")
	}
	if !stats.Cluster.Journaled {
		t.Fatal("restarted router does not report a journal")
	}
	if stats.NumDocs != len(alive) {
		t.Fatalf("document count after recovery: %d, want %d (pending=%d)",
			stats.NumDocs, len(alive), stats.Cluster.PendingRecords)
	}
	if stats.Cluster.PendingRecords != 0 {
		for _, u := range shardURLs {
			var ss struct {
				AppliedSeq uint64 `json:"applied_seq"`
				DurableSeq uint64 `json:"durable_seq"`
				Persistent bool   `json:"persistent"`
				Docs       int    `json:"docs"`
			}
			getJSON(t, u+"/cluster/stats", &ss)
			t.Logf("shard %s: applied=%d durable=%d persistent=%v docs=%d", u, ss.AppliedSeq, ss.DurableSeq, ss.Persistent, ss.Docs)
		}
		t.Fatalf("journal still holds %d pending records after catch-up", stats.Cluster.PendingRecords)
	}
	if stats.Cluster.ReplayedEntries == 0 {
		t.Fatal("restarted router reports zero replayed journal entries")
	}
	for _, sh := range stats.Cluster.Shards {
		if sh.LastSeenUnix == 0 {
			t.Fatalf("shard %s has no last-seen stamp after recovery", sh.Shard)
		}
	}

	// Gid stability: every acked surviving gid resolves to its exact
	// document; every acked delete stays a 404.
	for gid, want := range alive {
		var got corpus.Document
		getJSON(t, fmt.Sprintf("%s/doc/%d", routerURL, gid), &got)
		if got.Title != want.Title || got.Text != want.Text {
			t.Fatalf("gid %d resolves to %q, want %q (aliasing or loss)", gid, got.Title, want.Title)
		}
	}
	for _, gid := range dropped {
		resp, err := http.Get(fmt.Sprintf("%s/doc/%d", routerURL, gid))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("deleted gid %d resurrected with status %d", gid, resp.StatusCode)
		}
	}

	// Score equality: full retrieval against a from-scratch rebuild of
	// the survivors, exact document sets, per-document scores within
	// 1e-9 — the recovered cluster is indistinguishable from one that
	// never crashed.
	ordered := make([]entry, 0, len(alive))
	for gid, doc := range alive {
		ordered = append(ordered, entry{gid: gid, doc: doc})
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].gid < ordered[j].gid })
	refDocs := make([]corpus.Document, len(ordered))
	gidToRef := make(map[corpus.DocID]corpus.DocID, len(ordered))
	for i, e := range ordered {
		refDocs[i] = corpus.Document{Title: e.doc.Title, Text: e.doc.Text}
		gidToRef[e.gid] = corpus.DocID(i)
	}
	an := textproc.NewAnalyzer()
	refCorpus, err := corpus.Build(refDocs, an, textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	refIdx, err := index.Build(refCorpus)
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := vsm.NewEngine(refIdx, an, vsm.BM25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		q := queryFrom(docs[i*11], i*3, 4)
		var sr search.SearchResponse
		postJSON(t, routerURL+"/search", search.SearchRequest{Query: q, K: len(ordered)}, &sr)
		if sr.Degraded {
			t.Fatalf("query %q degraded after full recovery: %+v", q, sr.Shards)
		}
		want := mustSearch(t, refEng, vsm.Request{Terms: an.Analyze(q), K: len(ordered)})
		if len(sr.Hits) != len(want) {
			t.Fatalf("query %q: recovered cluster %d hits, rebuild %d", q, len(sr.Hits), len(want))
		}
		gotScores := make(map[corpus.DocID]float64, len(sr.Hits))
		for _, hit := range sr.Hits {
			ref, ok := gidToRef[hit.Doc]
			if !ok {
				t.Fatalf("query %q: dead/unknown doc %d in recovered results", q, hit.Doc)
			}
			gotScores[ref] = hit.Score
		}
		for _, res := range want {
			gs, ok := gotScores[res.Doc]
			if !ok {
				t.Fatalf("query %q: rebuild doc %d missing from recovered cluster", q, res.Doc)
			}
			if math.Abs(gs-res.Score) > 1e-9 {
				t.Fatalf("query %q doc %d: recovered %.12f, rebuild %.12f", q, res.Doc, gs, res.Score)
			}
		}
	}

	// Graceful router shutdown: SIGTERM drains, compacts the journal,
	// and exits 0.
	rt := procs["router"]
	if err := rt.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM router: %v", err)
	}
	if err := rt.Wait(); err != nil {
		t.Fatalf("router did not exit cleanly on SIGTERM: %v", err)
	}
	delete(procs, "router")
}
