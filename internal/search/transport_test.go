package search

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// exchange is one HTTP exchange as the server's side of the wire saw
// it: the adversary's view of the transport.
type exchange struct {
	request, reply []byte
}

// tap serves h and keeps every exchange's bytes.
type tap struct {
	h    http.Handler
	seen []exchange
}

func (tp *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(req))
	rec := httptest.NewRecorder()
	tp.h.ServeHTTP(rec, r)
	tp.seen = append(tp.seen, exchange{request: req, reply: rec.Body.Bytes()})
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// TestKeptMemberNeverCrossesTheWire is where "the client keeps one
// member" is pinned as client-local. For generated cycles, moving the
// genuine query across every position — same members, same order —
// leaves the bytes the server receives, the query-log entries it
// retains and the bytes it answers identical: the request is a function
// of cycle.Queries alone, and nothing about which reply member the
// client decodes is ever sent.
func TestKeptMemberNeverCrossesTheWire(t *testing.T) {
	f := getFixture(t)
	tp := &tap{h: f.server}
	ts := httptest.NewServer(tp)
	defer ts.Close()
	cl, err := NewClient(ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(81)))
	if err != nil {
		t.Fatal(err)
	}
	for topic := 0; topic < 4; topic++ {
		terms := f.an.Analyze(f.topicQueryText(topic, 6))
		cycle, err := f.obf.Obfuscate(terms, rand.New(rand.NewSource(int64(82+topic))))
		if err != nil {
			t.Fatal(err)
		}
		all, err := cl.SubmitBatch(context.Background(), cycle.Queries)
		if err != nil {
			t.Fatal(err)
		}
		tp.seen = nil
		var logs [][]LoggedQuery
		for user := 0; user < cycle.Len(); user++ {
			f.server.ResetLog()
			kept, err := cl.submitBatch(context.Background(), cycle.Queries, user)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(kept[user], all[user]) {
				t.Fatalf("topic %d: keeping member %d decoded %+v, SubmitBatch %+v", topic, user, kept[user], all[user])
			}
			logs = append(logs, f.server.QueryLog())
		}
		if len(logs[0]) != cycle.Len() {
			t.Fatalf("topic %d: %d log entries for a %d-query cycle", topic, len(logs[0]), cycle.Len())
		}
		for user := 1; user < cycle.Len(); user++ {
			if !bytes.Equal(tp.seen[user].request, tp.seen[0].request) {
				t.Errorf("topic %d: request bytes depend on the genuine position (%d vs 0):\n%s\n%s", topic, user, tp.seen[user].request, tp.seen[0].request)
			}
			if !bytes.Equal(tp.seen[user].reply, tp.seen[0].reply) {
				t.Errorf("topic %d: reply bytes depend on the genuine position (%d vs 0)", topic, user)
			}
			if !reflect.DeepEqual(logs[user], logs[0]) {
				t.Errorf("topic %d: query log depends on the genuine position (%d vs 0)", topic, user)
			}
		}
	}
}

// goldenCycle is the cycle testdata/batch_request.golden was recorded
// from at d2e2055 (json.Marshal over sort.Strings + strings.Join):
// duplicates, upper case, every string-escape rule, invalid UTF-8 at
// both ends of a term, a one-term and an empty member.
var goldenCycle = [][]string{
	{"stock", "market", "shares", "trading"},
	{"zebra", "apple", "apple", "Mango"},
	{"<script>", "a&b", `quo"te`, `back\slash`},
	{"na\xc3\xafve", "\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e", "line\xe2\x80\xa8sep", "para\xe2\x80\xa9sep"},
	{"bad\xffutf8", "trunc\xe2", "\x80lead", "tab\there", "nul\x00", "del\x7f"},
	{"solo"},
	{},
}

// TestBatchRequestGolden: the request body the server receives is the
// parent's, bit for bit.
func TestBatchRequestGolden(t *testing.T) {
	f := getFixture(t)
	want, err := os.ReadFile("testdata/batch_request.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		fmt.Fprint(w, `{"responses":[{},{},{},{},{},{},{}]}`)
	}))
	defer ts.Close()
	cl, err := NewClient(ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitBatch(context.Background(), goldenCycle); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("request body changed:\n got %s\nwant %s", got, want)
	}
	if goldenCycle[1][0] != "zebra" {
		t.Error("building the request sorted the caller's terms in place")
	}
}

// TestSearchCycleKeepsTheGenuineMember: over 200 seeded queries,
// SearchCycle — which decodes one member — returns exactly the hits
// SubmitBatch — which decodes all — holds at the cycle's UserIndex.
func TestSearchCycleKeepsTheGenuineMember(t *testing.T) {
	f := getFixture(t)
	cl, err := NewClient(f.ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(83)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		q := f.topicQueryText(i%8, 3+i%6)
		hits, err := cl.SearchCycle(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		cycle := cl.LastCycle()
		all, err := cl.SubmitBatch(context.Background(), cycle.Queries)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 || !reflect.DeepEqual(hits, all[cycle.UserIndex].Hits) {
			t.Fatalf("query %d (%q, genuine at %d of %d): SearchCycle %v, SubmitBatch %v", i, q, cycle.UserIndex, cycle.Len(), hits, all[cycle.UserIndex].Hits)
		}
	}
}

// TestNilHTTPClientKeepsConnectionsAlive: eight clients built with no
// http.Client, running cycles at once, reuse their connections — one
// each is ever opened. Cycles run in rounds, one per client: the server
// holds each request until all eight are in flight, so that eight
// connections are busy at once, and the next round starts when all
// eight replies are read, so that they are idle at once. With
// http.DefaultClient, whose transport keeps two idle connections per
// host, six were closed after every round and dialled again for the
// next.
func TestNilHTTPClientKeepsConnectionsAlive(t *testing.T) {
	f := getFixture(t)
	const clients, rounds = 8, 25
	var (
		mu       sync.Mutex
		inFlight int
		release  = make(chan struct{})
		opened   atomic.Int32
	)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		wait := release
		if inFlight++; inFlight == clients {
			close(release)
			inFlight, release = 0, make(chan struct{})
		}
		mu.Unlock()
		<-wait
		f.server.ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	cls := make([]*Client, clients)
	for c := range cls {
		var err error
		if cls[c], err = NewClient(ts.URL, nil, f.obf, f.an, rand.New(rand.NewSource(int64(90+c)))); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, clients)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for c, cl := range cls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[c] = cl.SearchCycle(context.Background(), f.topicQueryText((c+round)%8, 4))
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := opened.Load(); n > clients {
		t.Errorf("%d clients opened %d connections over %d rounds", clients, n, rounds)
	}
}
