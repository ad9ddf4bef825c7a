package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/segment"
	"toppriv/internal/telemetry"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// lateAck is a transport that, once armed for a shard, delivers that
// shard's next ingest and then withholds the ack until the caller gives
// up: an ingest that times out after the shard applied it. Armed with
// stats, it also fails the shard's next GET /cluster/stats, so the
// router's copy of the table stays a version behind.
type lateAck struct {
	mu     sync.Mutex
	ingest string // base URL of the shard; "" when disarmed
	stats  string
}

func (l *lateAck) arm(shard string, stats bool) {
	l.mu.Lock()
	l.ingest = shard
	if stats {
		l.stats = shard
	}
	l.mu.Unlock()
}

func (l *lateAck) RoundTrip(req *http.Request) (*http.Response, error) {
	base := req.URL.Scheme + "://" + req.URL.Host
	l.mu.Lock()
	late := base == l.ingest && req.URL.Path == "/cluster/index"
	if late {
		l.ingest = ""
	}
	lost := base == l.stats && req.URL.Path == "/cluster/stats"
	if lost {
		l.stats = ""
	}
	l.mu.Unlock()
	if lost {
		return nil, errors.New("stats fetch lost")
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !late {
		return resp, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	<-req.Context().Done()
	return nil, req.Context().Err()
}

// checkTables holds the router's copy of every shard's table — the df
// entries, the collection size and every other field an ack carries —
// to what the shard's own GET /cluster/stats says.
func checkTables(t *testing.T, step string, r *Router) {
	t.Helper()
	for _, c := range r.shards {
		resp, err := http.Get(c.name + "/cluster/stats")
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		var want shardStats
		err = json.NewDecoder(resp.Body).Decode(&want)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		got := c.snapStats()
		if got.Version != want.Version || got.Instance != want.Instance ||
			got.Docs != want.Docs || got.TotalLen != want.TotalLen || got.MaxGid != want.MaxGid ||
			got.AppliedSeq != want.AppliedSeq || got.DurableSeq != want.DurableSeq || got.Scoring != want.Scoring {
			t.Fatalf("%s: shard %s: router holds\n%+v\nthe shard says\n%+v", step, c.name, got, want)
		}
		gi, wi := got.Index, want.Index
		if gi.NumPostings != wi.NumPostings || gi.MaxListLen != wi.MaxListLen || gi.SizeBytes != wi.SizeBytes ||
			gi.PostingsBytes != wi.PostingsBytes || gi.ResidentBytes != wi.ResidentBytes || gi.PaddedPIRBytes != wi.PaddedPIRBytes {
			t.Fatalf("%s: shard %s: router holds index shape %+v, the shard says %+v", step, c.name, gi, wi)
		}
		if len(got.DF) != len(want.DF) {
			t.Fatalf("%s: shard %s: router holds %d terms, the shard %d", step, c.name, len(got.DF), len(want.DF))
		}
		for term, df := range want.DF {
			if got.DF[term] != df {
				t.Fatalf("%s: shard %s: router holds df %d for %q, the shard %d", step, c.name, got.DF[term], term, df)
			}
		}
	}
}

// TestAckRules pins how a shard's table moves from version to version on
// the router: an ack is folded in only as the next version, into a copy
// a cycle's snapshot never sees change; an ack from another instance or
// past a gap is refused; and a whole-table fetch an ack overtook is not
// installed over the newer table.
func TestAckRules(t *testing.T) {
	c := &shardConn{}
	c.setStats(shardStats{Instance: 7, Version: 3, Docs: 2, DF: map[string]int{"a": 2, "b": 1}})
	snap := c.snapStats()
	ack := func(instance, version uint64, changed ...segment.TermDF) *mutationAck {
		return &mutationAck{stats: shardStats{Instance: instance, Version: version, Docs: 3}, changed: changed}
	}
	if !c.applyAck(ack(7, 4, segment.TermDF{Term: "b", DF: 0}, segment.TermDF{Term: "c", DF: 1})) {
		t.Fatal("the next version was refused")
	}
	if got := c.snapStats(); got.Version != 4 || got.Docs != 3 || !maps.Equal(got.DF, map[string]int{"a": 2, "c": 1}) {
		t.Fatalf("after version 4: %+v", got)
	}
	if !maps.Equal(snap.DF, map[string]int{"a": 2, "b": 1}) {
		t.Fatalf("the table a snapshot holds changed under it: %v", snap.DF)
	}
	for _, tt := range []struct {
		name  string
		ack   *mutationAck
		apply bool
	}{
		{"an ack the table covers", ack(7, 4, segment.TermDF{Term: "a", DF: 9}), true},
		{"an ack past a gap", ack(7, 6, segment.TermDF{Term: "a", DF: 9}), false},
		{"an ack from another instance", ack(9, 5, segment.TermDF{Term: "a", DF: 9}), false},
	} {
		if c.applyAck(tt.ack) != tt.apply || c.snapStats().DF["a"] != 2 {
			t.Fatalf("%s: applied, or its answer was not %v", tt.name, tt.apply)
		}
	}
	c.setStats(shardStats{Instance: 7, Version: 3, DF: map[string]int{"a": 1}})
	if got := c.snapStats(); got.Version != 4 {
		t.Fatalf("a fetch of version 3 replaced version 4: %+v", got)
	}
	if restarted := c.setStats(shardStats{Instance: 9, Version: 1}); !restarted || c.snapStats().Instance != 9 {
		t.Fatal("another instance's table was not installed as a restart")
	}
}

// TestRouterTablesMatchShards: the tables a router builds from mutation
// acks are exactly the shards' own — through adds and deletes, an ingest
// that timed out after its shard applied it, the same with the
// whole-table fetch after it lost too (the shard's next ack skips a
// version), and a shard restart, while query cycles read the tables
// throughout. A whole-table fetch happens only on those faults.
// Journaled and unjournaled routers; run under -race.
func TestRouterTablesMatchShards(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		name := "unjournaled"
		if journaled {
			name = "journaled"
		}
		t.Run(name, func(t *testing.T) { runTablesTrial(t, journaled) })
	}
}

func runTablesTrial(t *testing.T, journaled bool) {
	shards := make([]*pShard, 3)
	urls := make([]string, len(shards))
	for i := range shards {
		shards[i] = newPShard(t, vsm.BM25)
		urls[i] = shards[i].ts.URL
	}
	late := &lateAck{}
	cfg := Config{
		Shards:            urls,
		Analyzer:          textproc.NewAnalyzer(),
		Deadline:          5 * time.Second,
		MutationDeadline:  time.Second,
		HTTPClient:        &http.Client{Transport: late},
		DisableHealthLoop: true,
		Logf:              t.Logf,
	}
	if journaled {
		cfg.JournalDir = t.TempDir()
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	reg := telemetry.NewRegistry()
	r.EnableMetrics(reg, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	docs := synthDocs(t, 160, 2900)
	an := textproc.NewAnalyzer()
	cycle := []vsm.Request{
		{Terms: an.Analyze(queryFrom(docs[1], 0, 4)), K: 5},
		{Terms: an.Analyze(queryFrom(docs[2], 3, 5)), K: 5},
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.SearchBatch(context.Background(), cycle); err != nil {
				t.Errorf("cycle: %v", err)
				return
			}
		}
	}()

	// reaching returns the size of the smallest batch from next on that
	// places a document on every shard.
	reaching := func(next corpus.DocID) int {
		hit := map[int]bool{}
		n := 0
		for len(hit) < len(shards) {
			hit[r.ring.place(next+corpus.DocID(n))] = true
			n++
		}
		return n
	}

	rng := rand.New(rand.NewSource(29))
	var alive []corpus.DocID
	const lateStep, gapStep, restartStep = 6, 9, 12
	next := 0
	for step := 0; next < len(docs); step++ {
		n := 1 + rng.Intn(8)
		faulty := step == lateStep || step == gapStep
		if step == gapStep+1 {
			// The shard whose table the router holds a version behind acks
			// a version ahead of it.
			n = reaching(r.nextGid)
		}
		if step == restartStep {
			// Restart a shard and send a batch that reaches it: its ack
			// comes from another instance (unjournaled) or the delivery is
			// refused with 412 (journaled). The unjournaled router has no
			// journal to refill a lost slice from, so that shard saves first.
			p := shards[rng.Intn(len(shards))]
			if !journaled {
				p.save()
			}
			p.crash()
			p.start()
			n = reaching(r.nextGid)
		}
		n = min(n, len(docs)-next)
		if faulty {
			if got := r.refreshes.Load(); step == lateStep && got != 0 {
				t.Fatalf("%d whole-table fetches before any fault", got)
			}
			late.arm(r.shards[r.ring.place(r.nextGid)].name, step == gapStep)
		}
		gids, err := r.Add(docs[next : next+n]...)
		next += n
		switch {
		case faulty && !journaled:
			if err == nil {
				t.Fatal("an ingest whose ack never came was reported done")
			}
		case err != nil:
			t.Fatalf("step %d: add: %v", step, err)
		default:
			alive = append(alive, gids...)
		}
		for rng.Intn(3) == 0 && len(alive) > 1 {
			j := rng.Intn(len(alive))
			if err := r.Delete(alive[j]); err != nil {
				t.Fatalf("step %d: delete %d: %v", step, alive[j], err)
			}
			alive = append(alive[:j], alive[j+1:]...)
		}
		if step != gapStep {
			checkTables(t, "step "+strconv.Itoa(step), r)
		}
	}
	if got := r.refreshes.Load(); got < 4 {
		t.Errorf("%d whole-table fetches: the two lost acks, the version gap and the restart should have forced one each", got)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"toppriv_cluster_stats_refreshes_total " + strconv.FormatUint(r.refreshes.Load(), 10) + "\n",
		`toppriv_cluster_mutation_bytes_total{dir="sent"}`,
		`toppriv_cluster_mutation_bytes_total{dir="received"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if r.mMutationSent.Value() == 0 || r.mMutationReceived.Value() == 0 {
		t.Errorf("mutation bytes: %d sent, %d received", r.mMutationSent.Value(), r.mMutationReceived.Value())
	}
}
