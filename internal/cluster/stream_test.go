package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/frame"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// restart stops the shard the way a drained process stops — Close, which
// saves it and ends its streams — and opens a new instance over the same
// directory behind the same URL.
func (p *pShard) restart() {
	p.mu.Lock()
	sh := p.shard
	p.mu.Unlock()
	if err := sh.Close(); err != nil {
		p.t.Fatalf("close shard: %v", err)
	}
	p.start()
}

// openStreams is how many cycle streams s has open.
func (s *Shard) openStreams() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.streams)
}

// TestStreamsFollowShardRestart: a shard stopped and a new instance
// mounted at its URL, as the system benchmark reopens its cluster, leaves
// the router holding streams the old instance closed. Each is redialed
// once, in the cycle that finds it closed, so the next cycles are
// answered by the new instance, none degraded and each the answer of
// before; the old instance keeps no stream and no goroutine.
func TestStreamsFollowShardRestart(t *testing.T) {
	pc := newPCluster(t, vsm.BM25, 3, Config{})
	r := pc.router
	docs := synthDocs(t, 60, 31)
	if _, err := r.Add(docs...); err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	cycle := make([]vsm.Request, 6)
	for i := range cycle {
		cycle[i] = vsm.Request{Terms: an.Analyze(queryFrom(docs[i*9], i, 4)), K: 8}
	}
	search := func() []vsm.Response {
		t.Helper()
		resps, err := r.SearchBatch(context.Background(), cycle)
		if err != nil {
			t.Fatal(err)
		}
		if resps[0].Degraded {
			t.Fatalf("degraded cycle: %+v", resps[0].Shards)
		}
		return resps
	}
	want := search()
	// Cycles at once leave each shard several pooled streams.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.SearchBatch(context.Background(), cycle); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	before := runtime.NumGoroutine()
	p := pc.shards[1]
	old := p.shard
	if old.openStreams() == 0 {
		t.Fatal("the router holds no stream to the shard")
	}
	dials, redials := r.dials.Load(), r.redials.Load()
	p.restart()
	if n := old.openStreams(); n != 0 {
		t.Fatalf("the stopped instance still has %d streams open", n)
	}
	for i := 0; i < 8; i++ {
		got := search()
		for j := range got {
			if !reflect.DeepEqual(got[j].Hits, want[j].Hits) {
				t.Fatalf("cycle %d member %d after the restart: %v, before %v", i, j, got[j].Hits, want[j].Hits)
			}
		}
	}
	if p.shard == old || p.shard.openStreams() == 0 {
		t.Fatal("the new instance answered no cycle")
	}
	if r.redials.Load() == redials || r.dials.Load()-dials != r.redials.Load()-redials {
		t.Fatalf("after the restart: %d dials, %d of them redials of a closed stream; want every dial a redial, at least one",
			r.dials.Load()-dials, r.redials.Load()-redials)
	}

	deadlineAt := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadlineAt) {
			t.Fatalf("goroutines left behind: %d before the restart, %d after settle", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMutationStreamFollowsShardRestart: a shard stopped and a new
// instance mounted at its URL between two adds leaves the router holding
// a mutation stream and a control stream the old instance closed. The
// second add redials each once: its frame, addressed to the old
// instance, is refused with 412 on the new mutation stream, which stays
// open for the re-drive from the new instance's baseline, fetched on the
// new control stream. Every document lands exactly once, under the gid
// it was assigned.
func TestMutationStreamFollowsShardRestart(t *testing.T) {
	pc := newPCluster(t, vsm.BM25, 1, Config{})
	r := pc.router
	p := pc.shards[0]
	docs := synthDocs(t, 20, 37)
	first, err := r.Add(docs[:10]...)
	if err != nil {
		t.Fatal(err)
	}
	old := p.shard
	dials, redials := r.dials.Load(), r.redials.Load()
	p.restart()
	second, err := r.Add(docs[10:]...)
	if err != nil {
		t.Fatal(err)
	}
	if p.shard == old {
		t.Fatal("the shard did not restart")
	}
	if n, m := r.dials.Load()-dials, r.redials.Load()-redials; n != 2 || m != 2 {
		t.Fatalf("the add after the restart dialed %d streams, %d of them redials; want two redials", n, m)
	}
	gids := append(first, second...)
	for i, gid := range gids {
		if gid != corpus.DocID(i) {
			t.Fatalf("document %d was assigned gid %d", i, gid)
		}
		if got, ok := p.shard.store.Doc(gid); !ok || got.Text != docs[i].Text {
			t.Fatalf("gid %d on the new instance: ok=%v, text %q", gid, ok, got.Text)
		}
	}
	if n := p.shard.store.NumDocs(); n != len(docs) {
		t.Fatalf("the new instance holds %d documents, want %d", n, len(docs))
	}
	if next := p.shard.store.NextID(); next != corpus.DocID(len(docs)) {
		t.Fatalf("the new instance's next ID is %d, want %d", next, len(docs))
	}
}

// TestFaultTransportFaultsStreams: a fault plan applies to every frame
// exchange on a stream the transport dialed, pooled or fresh — a reset
// before the request frame is written, a delay, a reply cut after its
// header, a blackhole until the deadline — and disarmed it passes every
// exchange through.
func TestFaultTransportFaultsStreams(t *testing.T) {
	const deadline = 300 * time.Millisecond
	tc := newTestCluster(t, vsm.BM25, 2, Config{})
	docs := synthDocs(t, 30, 41)
	if _, err := tc.router.Add(docs...); err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	cycle := []vsm.Request{{Terms: an.Analyze(queryFrom(docs[4], 0, 4)), K: 5}}
	for _, tt := range []struct {
		name     string
		plan     FaultPlan
		degraded bool
		says     string
	}{
		{"reset", FaultPlan{Reset: 1}, true, "connection reset"},
		{"delay", FaultPlan{Delay: 1, DelayFor: 30 * time.Millisecond}, false, ""},
		{"partial", FaultPlan{Partial: 1}, true, "cut short"},
		{"blackhole", FaultPlan{Blackhole: 1}, true, "deadline"},
	} {
		ft := NewFaultTransport(nil, tt.plan)
		ft.Disarm()
		r, err := New(Config{Shards: routerShardNames(tc.router), Deadline: deadline, HTTPClient: &http.Client{Transport: ft}, Analyzer: an})
		if err != nil {
			t.Fatal(err)
		}
		// One clean cycle pools a stream per shard; the faults meet both
		// the pooled streams and any the cycle dials afresh.
		if resps, err := r.SearchBatch(context.Background(), cycle); err != nil || resps[0].Degraded {
			t.Fatalf("%s: disarmed cycle: %v %+v", tt.name, err, resps)
		}
		ft.mu.Lock()
		ft.armed = true
		ft.mu.Unlock()
		start := time.Now()
		resps, err := r.SearchBatch(context.Background(), cycle)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if resps[0].Degraded != tt.degraded {
			t.Fatalf("%s: degraded %v, want %v: %+v", tt.name, resps[0].Degraded, tt.degraded, resps[0].Shards)
		}
		for _, st := range resps[0].Shards {
			if tt.degraded && (st.OK || !strings.Contains(st.Err, tt.says)) {
				t.Errorf("%s: shard %s answered %q, want a failure saying %q", tt.name, st.Shard, st.Err, tt.says)
			}
		}
		if elapsed < tt.plan.DelayFor || elapsed > 6*deadline {
			t.Errorf("%s: the cycle took %v", tt.name, elapsed)
		}
		ft.Disarm()
		if resps, err := r.SearchBatch(context.Background(), cycle); err != nil || resps[0].Degraded {
			t.Fatalf("%s: disarmed again: %v %+v", tt.name, err, resps[0].Shards)
		}
		r.Close()
	}
}

// scriptConn is the router's end of a stream as a test scripts it: Read
// hands over one exchange's bytes at a time, the next exchange's only
// once the shard has written a reply — a router sends one frame at a
// time — and every write is kept, with the largest capacity a written
// slice had. Only Read, Write and Close are served.
type scriptConn struct {
	net.Conn
	exchanges [][]byte
	replied   bool
	out       bytes.Buffer
	maxCap    int
	closed    bool
}

func (c *scriptConn) Read(b []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	for len(c.exchanges) > 0 && len(c.exchanges[0]) == 0 {
		if !c.replied || len(c.exchanges) == 1 {
			return 0, io.EOF
		}
		c.exchanges, c.replied = c.exchanges[1:], false
	}
	if len(c.exchanges) == 0 {
		return 0, io.EOF
	}
	n := copy(b, c.exchanges[0])
	c.exchanges[0] = c.exchanges[0][n:]
	return n, nil
}

func (c *scriptConn) Write(b []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	c.replied = true
	c.maxCap = max(c.maxCap, cap(b))
	return c.out.Write(b)
}

func (c *scriptConn) Close() error {
	c.closed = true
	return nil
}

// splitExchanges cuts a stream's bytes where its frames end, as their
// headers say; the last piece is whatever follows the last whole frame.
// lost reports whether that piece loses the framing — cut short, or a
// length beyond bound — rather than being empty.
func splitExchanges(data []byte, bound int) (exchanges [][]byte, lost bool) {
	for len(data) >= frame.Header {
		length := binary.LittleEndian.Uint32(data)
		if int64(length) > int64(bound) || int64(len(data)) < frame.Header+int64(length) {
			break
		}
		exchanges = append(exchanges, data[:frame.Header+length])
		data = data[frame.Header+length:]
	}
	return append(exchanges, data), len(data) > 0
}

// FuzzShardStream drives a shard's cycle stream and its control stream
// with arbitrary bytes after the upgrade, one frame per exchange as a
// router sends them. Nothing may panic, and no frame may be buffered
// past its kind's bound. Each whole frame is answered in turn: one that
// fails its CRC with a 400 refusal that ends the stream; one whose
// payload does not decode, or whose cycle Request.Validate refuses, with
// a 400 refusal after which the stream still answers; a control request
// for a document the shard lacks with a 404 refusal; any other with a
// reply: a cycle's of its member count, the shard's stats table, or the
// document asked for. What follows the last whole frame, unless nothing
// does, is cut short or claims more than the kind's bound: a 400
// refusal, and the stream ends.
func FuzzShardStream(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	var frames [][]byte
	for i := 0; i < 4; i++ {
		frames = append(frames, genCycle(rng).encode())
	}
	good := testCycle{docs: 10, totalLen: 100, df: map[string]int{"shard": 3, "ingest": 5},
		members: []vsm.Request{{Terms: []string{"shard", "ingest"}, K: 3}, {Terms: []string{"rule"}, K: 1}}}.encode()
	unsealed := append([]byte(nil), good...)
	unsealed[len(unsealed)-1] ^= 1
	f.Add(good)
	f.Add(bytes.Join([][]byte{good, good, good}, nil))
	f.Add(bytes.Join([][]byte{good, frames[0], good}, nil))
	f.Add(bytes.Join([][]byte{good, unsealed, good}, nil))
	f.Add(bytes.Join([][]byte{good, good[:len(good)-2]}, nil))
	f.Add(bytes.Join([][]byte{good, brokenRequestFrames[1].frame, good}, nil))
	f.Add(append(append([]byte(nil), good...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))
	f.Add(benchCycle().encode())
	for _, fr := range frames {
		f.Add(fr)
	}
	for _, tt := range brokenRequestFrames {
		f.Add(append(append([]byte(nil), good...), tt.frame...))
	}
	f.Add([]byte(`{"queries":[]}`))
	f.Add([]byte{})
	stats, doc := appendControl(nil, ctlStats, 0), appendControl(nil, ctlDoc, 3)
	f.Add(bytes.Join([][]byte{stats, doc, appendControl(nil, ctlDoc, 99), stats}, nil))
	f.Add(bytes.Join([][]byte{doc, payloadFrame(2), payloadFrame(ctlDoc, 1<<31), payloadFrame(ctlStats, 0), doc}, nil))

	s := newMemShard(f)
	if code := sendMutation(s, addFrame(1, 0, 1, 2, 3, 4, 5, 6, 7)); code != http.StatusOK {
		f.Fatalf("preload: %d", code)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A mutated frame hardly ever passes its CRC, so the input is also
		// sealed as the payload of one frame, followed by a good one.
		checkStream(t, s, cycleStreams, data)
		checkStream(t, s, cycleStreams, append(payloadFrame(data), good...))
		checkStream(t, s, controlStreams, data)
		checkStream(t, s, controlStreams, append(payloadFrame(data), doc...))
	})
}

// checkStream is FuzzShardStream's property, for one stream of kind's
// bytes.
func checkStream(t *testing.T, s *Shard, kind *streamKind, data []byte) {
	t.Helper()
	exchanges, lost := splitExchanges(data, kind.maxRequest)
	conn := &scriptConn{exchanges: append([][]byte(nil), exchanges...)}
	s.serve(&shardStream{conn: conn, br: bufio.NewReader(conn)}, kind)
	if !conn.closed {
		t.Fatal("the stream ended without its connection closed")
	}
	// The shard writes each answer from the buffer its frame was read
	// into; a control answer is the preloaded shard's table, or one of its
	// documents, within 4 KiB.
	if c := conn.maxCap; c > frame.Header+max(kind.maxRequest, 4<<10) {
		t.Fatalf("the stream buffered %d bytes for a frame", c)
	}

	out := conn.out.Bytes()
	next := func() []byte {
		t.Helper()
		_, size, err := frame.Open(out, uint32(kind.maxReply))
		if err != nil {
			t.Fatalf("the shard wrote no whole frame: %v (%x)", err, out)
		}
		frame := out[:size]
		out = out[size:]
		return frame
	}
	refusal := func(frame []byte, status int, says string) {
		t.Helper()
		_, err := decodeReply(frame, kind.maxReply, func([]byte) (int, error) { return 0, errors.New("an answer") })
		var se *statusError
		if !errors.As(err, &se) || se.code != status || !strings.Contains(se.msg, says) {
			t.Fatalf("answer %v, want a %d refusal saying %q", err, status, says)
		}
	}
	ended := false
	for _, ex := range exchanges[:len(exchanges)-1] {
		answer := next()
		if _, _, err := frame.Open(ex, uint32(kind.maxRequest)); err != nil {
			refusal(answer, http.StatusBadRequest, "checksum")
			ended = true
			break
		}
		if kind == controlStreams {
			// The table for a stats request, the document or a 404 for a
			// document request.
			op, gid, err := decodeControl(ex)
			switch doc, held := s.store.Doc(gid); {
			case err != nil:
				refusal(answer, http.StatusBadRequest, "bad request")
			case op == ctlStats:
				f, err := decodeStats(answer)
				if docs, _ := s.store.LiveSize(); err != nil || f.stats.Docs != docs || len(f.entries) == 0 {
					t.Fatalf("a stats request answered %+v: %v", f.stats, err)
				}
			case !held:
				refusal(answer, http.StatusNotFound, "no document")
			default:
				if got, err := decodeDoc(answer); err != nil || got.ID != gid || got.Title != doc.Title || got.Text != doc.Text {
					t.Fatalf("document %d answered %+v: %v", gid, got, err)
				}
			}
			continue
		}
		reqs, err := decodeBatchRequest(ex)
		for i := 0; err == nil && i < len(reqs); i++ {
			err = reqs[i].Validate()
		}
		if err != nil {
			refusal(answer, http.StatusBadRequest, "bad request")
			continue
		}
		resps, err := decodeCycleReply(answer)
		if err != nil || len(resps) != len(reqs) {
			t.Fatalf("a valid cycle of %d members answered %d: %v", len(reqs), len(resps), err)
		}
	}
	if !ended && lost {
		refusal(next(), http.StatusBadRequest, "cut short or longer than its bound")
	}
	if len(out) != 0 {
		t.Fatalf("%d bytes written past the stream's last answer", len(out))
	}
}
