package cluster

import (
	"bytes"
	"context"
	"io"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
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
// shard's next mutation and then withholds the ack until the caller
// gives up: a mutation that times out after the shard applied it. Armed
// with stats, it also cuts short the reply to the shard's next control
// request, so the router's copy of the table stays a version behind.
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
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusSwitchingProtocols {
		resp.Body = &lateStream{ReadWriteCloser: resp.Body.(io.ReadWriteCloser), l: l, kind: streamKindOf(req.Header.Get("Upgrade")),
			base: req.URL.Scheme + "://" + req.URL.Host, closed: make(chan struct{})}
	}
	return resp, err
}

// lateStream is a stream under a lateAck. On a mutation stream the
// exchange that finds the lateAck armed for its shard reaches the shard,
// whose ack is read and dropped, and its reader waits for the router to
// close the stream, as the router's deadline does. On a control stream
// the exchange that finds it armed with stats reaches the shard, and one
// byte of the reply arrives.
type lateStream struct {
	io.ReadWriteCloser
	l          *lateAck
	kind       *streamKind
	base       string
	late, lost bool
	closed     chan struct{}
	once       sync.Once
}

func (s *lateStream) Write(b []byte) (int, error) {
	s.l.mu.Lock()
	if s.late = s.kind == mutationStreams && s.base == s.l.ingest; s.late {
		s.l.ingest = ""
	}
	if s.lost = s.kind == controlStreams && s.base == s.l.stats; s.lost {
		s.l.stats = ""
	}
	s.l.mu.Unlock()
	return s.ReadWriteCloser.Write(b)
}

func (s *lateStream) Read(b []byte) (int, error) {
	switch {
	case s.late:
		readFrame(s.ReadWriteCloser, nil, maxStats)
		<-s.closed
		return 0, net.ErrClosed
	case s.lost:
		return copy(b, "\x00"), io.ErrUnexpectedEOF
	}
	return s.ReadWriteCloser.Read(b)
}

func (s *lateStream) Close() error {
	s.once.Do(func() { close(s.closed) })
	return s.ReadWriteCloser.Close()
}

// shardTable is the whole table the shard at name answers a control
// request with, on a stream of its own.
func shardTable(t *testing.T, name string) shardStats {
	t.Helper()
	c := &shardConn{name: name, httpc: http.DefaultClient, idle: map[*streamKind][]*stream{}}
	defer c.closeStreams()
	f, _, err := exchange(new(Router), context.Background(), c, controlStreams, appendControl(nil, ctlStats, 0), decodeStats)
	if err == nil {
		_, err = c.install(&f, true)
	}
	if err != nil {
		t.Fatal(err)
	}
	return c.snapStats()
}

// checkTables holds the router's copy of every shard's table — the df
// entries, the collection size and every other field an ack carries —
// to the table the shard's own control stream answers.
func checkTables(t *testing.T, step string, r *Router) {
	t.Helper()
	for _, c := range r.shards {
		want := shardTable(t, c.name)
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
	frame := func(instance, version uint64, entries ...segment.TermDF) *statsFrame {
		return &statsFrame{stats: shardStats{Instance: instance, Version: version, Docs: 3}, entries: entries}
	}
	c.install(frame(7, 3, segment.TermDF{Term: "a", DF: 2}, segment.TermDF{Term: "b", DF: 1}), true)
	snap := c.snapStats()
	if _, err := c.install(frame(7, 4, segment.TermDF{Term: "b", DF: 0}, segment.TermDF{Term: "c", DF: 1}), false); err != nil {
		t.Fatalf("the next version was refused: %v", err)
	}
	if got := c.snapStats(); got.Version != 4 || got.Docs != 3 || !maps.Equal(got.DF, map[string]int{"a": 2, "c": 1}) {
		t.Fatalf("after version 4: %+v", got)
	}
	if !maps.Equal(snap.DF, map[string]int{"a": 2, "b": 1}) {
		t.Fatalf("the table a snapshot holds changed under it: %v", snap.DF)
	}
	for _, tt := range []struct {
		name string
		ack  *statsFrame
		ok   bool
	}{
		{"an ack the table covers", frame(7, 4, segment.TermDF{Term: "a", DF: 3}), true},
		{"an ack past a gap", frame(7, 6, segment.TermDF{Term: "a", DF: 3}), false},
		{"an ack from another instance", frame(9, 5, segment.TermDF{Term: "a", DF: 3}), false},
	} {
		if _, err := c.install(tt.ack, false); (err == nil) != tt.ok || c.snapStats().DF["a"] != 2 {
			t.Fatalf("%s: applied, or its answer was not ok=%v: %v", tt.name, tt.ok, err)
		}
	}
	c.install(frame(7, 3, segment.TermDF{Term: "a", DF: 1}), true)
	if got := c.snapStats(); got.Version != 4 {
		t.Fatalf("a fetch of version 3 replaced version 4: %+v", got)
	}
	if restarted, err := c.install(frame(9, 1), true); !restarted || err != nil || c.snapStats().Instance != 9 {
		t.Fatalf("another instance's table was not installed as a restart: %v", err)
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
		Shards:           urls,
		Analyzer:         textproc.NewAnalyzer(),
		Deadline:         5 * time.Second,
		mutationDeadline: time.Second,
		HTTPClient:       &http.Client{Transport: late},
		noHealthLoop:     true,
		Logf:             t.Logf,
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

// badTables are tables no shard reports, each as a change to a good one.
var badTables = []struct {
	name string
	bad  func(st *shardStats)
}{
	{"negative docs", func(st *shardStats) { st.Docs = -1 }},
	{"negative token count", func(st *shardStats) { st.TotalLen = -1 }},
	{"negative postings count", func(st *shardStats) { st.Index.NumPostings = -1 }},
	{"negative df", func(st *shardStats) { st.DF["a"] = -1 }},
	{"df 0", func(st *shardStats) { st.DF["a"] = 0 }},
	{"df above docs", func(st *shardStats) { st.DF["a"] = st.Docs + 1 }},
	{"max gid MaxInt32", func(st *shardStats) { st.MaxGid = math.MaxInt32 }},
	{"max gid below -1", func(st *shardStats) { st.MaxGid = -2 }},
}

// badAcks are acks no shard sends after goodTable, each as a change to
// its next version whose DF is the ack's entries.
var badAcks = []struct {
	name string
	bad  func(st *shardStats)
}{
	{"an entry with df above docs", func(st *shardStats) { st.DF = map[string]int{"a": st.Docs + 1} }},
	{"docs lowered below an untouched df", func(st *shardStats) { st.Docs, st.DF = 2, map[string]int{"b": 1} }},
	{"max gid MaxInt32", func(st *shardStats) { st.MaxGid, st.DF = math.MaxInt32, nil }},
}

// goodTable is a table a shard of three documents reports.
func goodTable() shardStats {
	return shardStats{Version: 1, Instance: 7, Docs: 3, TotalLen: 30, DF: map[string]int{"a": 3, "b": 1}, MaxGid: 2, Scoring: "bm25"}
}

// fakeShard serves a shard's streams: it answers every control request
// with the stats frame of table, and every mutation with that of ack.
func fakeShard(t *testing.T, table, ack shardStats) *httptest.Server {
	return serveNamed(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := streamKindOf(r.Header.Get("Upgrade"))
		if kind == nil {
			http.NotFound(w, r)
			return
		}
		reply := appendStats(nil, &table, nil)
		if kind == mutationStreams {
			reply = appendStats(nil, &ack, nil)
		}
		conn, br, err := upgradeStream(w, kind.token)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			if _, err := readFrame(br, nil, kind.maxRequest); err != nil {
				return
			}
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	}))
}

// TestRouterRefusesBadStatsTable: a table no shard reports — a negative
// count, a df outside [1, docs], a max gid that would wrap the router's
// next gid past int32 — is refused wherever it arrives. A shard that
// answers a stats request with one fails New. An ack that would make one
// is not installed, and the router fetches the whole table instead, once:
// an entry with df above docs, or docs lowered below a df the ack leaves
// alone. Installed, a negative count went into every cycle's merged
// statistics, which every shard refuses to decode, and max gid MaxInt32
// made the next gid negative.
func TestRouterRefusesBadStatsTable(t *testing.T) {
	good := goodTable()
	for _, tt := range badTables {
		st := goodTable()
		tt.bad(&st)
		fake := fakeShard(t, st, st)
		r, err := New(Config{Shards: []string{fake.URL}, Analyzer: textproc.NewAnalyzer()})
		fake.Close()
		if err == nil {
			t.Errorf("%s: the router installed %+v", tt.name, r.shards[0].snapStats())
			r.Close()
		} else if !strings.Contains(err.Error(), "cluster: stats") {
			t.Errorf("%s: New failed for another reason: %v", tt.name, err)
		}
	}
	for _, tt := range badAcks {
		ack := goodTable()
		ack.Version++
		tt.bad(&ack)
		fake := fakeShard(t, good, ack)
		r, err := New(Config{Shards: []string{fake.URL}, Analyzer: textproc.NewAnalyzer()})
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if _, err := r.Add(corpus.Document{Title: "t", Text: "a"}); err != nil {
			t.Errorf("%s: the add failed: %v", tt.name, err)
		}
		if got := r.shards[0].snapStats(); got.Version != good.Version || got.Docs != good.Docs || got.MaxGid != good.MaxGid || !maps.Equal(got.DF, good.DF) {
			t.Errorf("%s: the router holds %+v", tt.name, got)
		}
		if n := r.refreshes.Load(); n != 1 {
			t.Errorf("%s: %d whole-table fetches, want 1", tt.name, n)
		}
		r.Close()
		fake.Close()
	}
}

// FuzzDecodeStats holds a stats frame the router installs as a whole
// table to its rules on arbitrary bytes: decoding and installing it never
// panics, and ends in an error or a held table whose every count is
// non-negative, every df in [1, docs] and max gid in [-1, MaxInt32-1].
func FuzzDecodeStats(f *testing.F) {
	seed := func(st shardStats) { f.Add(appendStats(nil, &st, nil)) }
	seed(goodTable())
	seed(shardStats{Version: 1, MaxGid: -1})
	for _, tt := range badTables {
		st := goodTable()
		tt.bad(&st)
		seed(st)
	}
	for _, tt := range badAcks {
		st := goodTable()
		tt.bad(&st)
		seed(st)
	}
	for _, tt := range brokenAckFrames {
		f.Add(tt.frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range [][]byte{data, payloadFrame(data)} {
			fr, err := decodeStats(b)
			if err != nil {
				continue
			}
			c := &shardConn{}
			if _, err := c.install(&fr, true); err != nil {
				continue
			}
			st := c.snapStats()
			ix := st.Index
			if st.Docs < 0 || st.TotalLen < 0 || ix.NumPostings < 0 || ix.MaxListLen < 0 || ix.SizeBytes < 0 ||
				ix.PostingsBytes < 0 || ix.ResidentBytes < 0 || ix.PaddedPIRBytes < 0 {
				t.Fatalf("a table with a negative count was installed: %+v", st)
			}
			if st.MaxGid < -1 || st.MaxGid > math.MaxInt32-1 {
				t.Fatalf("max gid %d installed", st.MaxGid)
			}
			for term, df := range st.DF {
				if df < 1 || df > st.Docs {
					t.Fatalf("term %q installed with df %d of %d documents", term, df, st.Docs)
				}
			}
		}
	})
}
