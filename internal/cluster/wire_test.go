package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/frame"
	"toppriv/internal/index"
	"toppriv/internal/segment"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// testCycle is a generated cycle and the collection it is scored
// against: what Router.SearchBatch holds when it builds the frame.
type testCycle struct {
	docs     int
	totalLen int64
	df       map[string]int
	members  []vsm.Request // Terms and K
}

func (c testCycle) encode() []byte {
	return appendBatchRequest(nil, c.docs, c.totalLen, c.members, func(t string) int { return c.df[t] })
}

// parentRequests is what a shard executed for this cycle before the
// frame existed — the shard's vsm.Request{Terms, K, Global} over the
// JSON body, whose Global the router's mergedStats built per member: the
// snapshot repeated, DF aligned with Terms, repeats repeating their df,
// nil Terms made empty.
func (c testCycle) parentRequests() []vsm.Request {
	reqs := make([]vsm.Request, len(c.members))
	for i, m := range c.members {
		g := &vsm.GlobalStats{Docs: c.docs, TotalLen: c.totalLen, DF: make([]int, len(m.Terms))}
		for j, t := range m.Terms {
			g.DF[j] = c.df[t]
		}
		terms := m.Terms
		if terms == nil {
			terms = []string{}
		}
		reqs[i] = vsm.Request{Terms: terms, K: m.K, Global: g}
	}
	return reqs
}

// genCycle draws a cycle of 1–64 members over a small vocabulary, so
// terms repeat within and across members; some members have no terms,
// some terms are unseen (df 0).
func genCycle(rng *rand.Rand) testCycle {
	c := testCycle{docs: 1 + rng.Intn(5000), df: map[string]int{}}
	c.totalLen = int64(c.docs) * int64(1+rng.Intn(300))
	vocab := make([]string, 2+rng.Intn(40))
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%d-%s", i, strings.Repeat("x", rng.Intn(12)))
		if rng.Intn(4) > 0 {
			c.df[vocab[i]] = 1 + rng.Intn(c.docs)
		}
	}
	c.members = make([]vsm.Request, 1+rng.Intn(64))
	for i := range c.members {
		m := &c.members[i]
		m.K = []int{1, 10, 1000}[rng.Intn(3)]
		switch rng.Intn(8) {
		case 0: // no terms, as a fully stopworded query analyzes to
		case 1:
			m.Terms = []string{}
		default:
			m.Terms = make([]string, 1+rng.Intn(9))
			for j := range m.Terms {
				m.Terms[j] = vocab[rng.Intn(len(vocab))]
			}
		}
	}
	return c
}

// reencodeRequests rebuilds a request frame from what one decoded to.
func reencodeRequests(reqs []vsm.Request) []byte {
	df := map[string]int{}
	for _, q := range reqs {
		for j, t := range q.Terms {
			df[t] = q.Global.DF[j]
		}
	}
	g := reqs[0].Global
	return appendBatchRequest(nil, g.Docs, g.TotalLen, reqs, func(t string) int { return df[t] })
}

// TestBatchRequestRoundTrip: a frame decodes to exactly the requests the
// JSON wire delivered, member for member in submission order, and its
// bytes are a function of the member sequence alone — permuting the
// members permutes what the shard rebuilds and changes nothing else, so
// the shard's view of a cycle is its members, once each, with nothing
// that marks one of them as the genuine query.
func TestBatchRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		c := genCycle(rng)
		frame := c.encode()
		got, err := decodeBatchRequest(frame)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := c.parentRequests()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: decoded\n%+v\nwant\n%+v", trial, got, want)
		}
		for i := range got {
			if err := got[i].Validate(); err != nil {
				t.Fatalf("trial %d member %d: %v", trial, i, err)
			}
		}
		if again := c.encode(); !bytes.Equal(again, frame) {
			t.Fatalf("trial %d: one cycle, two encodings", trial)
		}
		if back := reencodeRequests(got); !bytes.Equal(back, frame) {
			t.Fatalf("trial %d: decoded requests re-encode to other bytes", trial)
		}

		perm := rng.Perm(len(c.members))
		shuffled := c
		shuffled.members = make([]vsm.Request, len(perm))
		wantShuffled := make([]vsm.Request, len(perm))
		for to, from := range perm {
			shuffled.members[to] = c.members[from]
			wantShuffled[to] = want[from]
		}
		gotShuffled, err := decodeBatchRequest(shuffled.encode())
		if err != nil {
			t.Fatalf("trial %d, permuted: %v", trial, err)
		}
		if !reflect.DeepEqual(gotShuffled, wantShuffled) {
			t.Fatalf("trial %d: permuting the members did more than permute the decoded requests", trial)
		}
	}
}

// edgeScores are the float64 values a JSON number round-trips badly or
// not at all.
var edgeScores = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // the largest subnormal
	math.MaxFloat64, -math.MaxFloat64, math.Nextafter(1, 2), 1.0 / 3, math.Inf(1),
}

func genReply(rng *rand.Rand) []vsm.Response {
	resps := make([]vsm.Response, rng.Intn(65))
	for i := range resps {
		resps[i].Stats = vsm.ExecStats{
			DocsScored:    rng.Intn(1 << 20),
			DocsFiltered:  rng.Intn(1 << 10),
			Postings:      rng.Intn(1 << 30),
			BlocksDecoded: rng.Intn(1 << 16),
		}
		resps[i].Hits = make([]vsm.Result, rng.Intn(30))
		for j := range resps[i].Hits {
			score := rng.NormFloat64() * 20
			if rng.Intn(3) == 0 {
				score = edgeScores[rng.Intn(len(edgeScores))]
			}
			gid := corpus.DocID(rng.Int31())
			if rng.Intn(2) == 0 {
				gid = corpus.DocID(rng.Intn(300))
			}
			resps[i].Hits[j] = vsm.Result{Doc: gid, Score: score}
		}
	}
	return resps
}

// sameReplies compares scores by their bits: -0 is not +0 here.
func sameReplies(a, b []vsm.Response) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Stats != b[i].Stats || len(a[i].Hits) != len(b[i].Hits) {
			return false
		}
		for j, h := range a[i].Hits {
			if h.Doc != b[i].Hits[j].Doc || math.Float64bits(h.Score) != math.Float64bits(b[i].Hits[j].Score) {
				return false
			}
		}
	}
	return true
}

// TestBatchReplyRoundTrip: stats come back field for field and every
// score with the bits it left with.
func TestBatchReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		resps := genReply(rng)
		if trial == 0 {
			resps = []vsm.Response{{Hits: make([]vsm.Result, len(edgeScores))}}
			for j, s := range edgeScores {
				resps[0].Hits[j] = vsm.Result{Doc: math.MaxInt32 - corpus.DocID(j), Score: s}
			}
		}
		frame := appendBatchReply(nil, resps)
		got, err := decodeBatchReply(frame)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sameReplies(got, resps) {
			t.Fatalf("trial %d: decoded\n%+v\nwant\n%+v", trial, got, resps)
		}
		if back := appendBatchReply(nil, got); !bytes.Equal(back, frame) {
			t.Fatalf("trial %d: decoded replies re-encode to other bytes", trial)
		}
	}
}

// payloadFrame seals fields — uvarints, or raw bytes — into a frame.
func payloadFrame(fields ...interface{}) []byte {
	b := make([]byte, frame.Header)
	for _, f := range fields {
		switch f := f.(type) {
		case int:
			b = binary.AppendUvarint(b, uint64(f))
		case uint64:
			b = binary.AppendUvarint(b, f)
		case string:
			b = append(b, f...)
		case []byte:
			b = append(b, f...)
		}
	}
	frame.Seal(b)
	return b
}

var score8 = make([]byte, 8)

// brokenRequestFrames are well-sealed frames whose payload no encoder
// writes; every one must be refused, with an error naming the reason.
var brokenRequestFrames = []struct {
	name, says string
	frame      []byte
}{
	{"empty payload", "integer", payloadFrame()},
	{"no members", "no members", payloadFrame(40, 4000, 0, 0)},
	{"term count beyond the bytes left", "count", payloadFrame(40, 4000, 1<<40)},
	{"term length beyond the bytes left", "count", payloadFrame(40, 4000, 1, 200, "ab", 3, 1, 5, 1, 0)},
	{"member count beyond the bytes left", "count", payloadFrame(40, 4000, 1, 1, "a", 3, 1<<40, 5, 1, 0)},
	{"reference count beyond the bytes left", "count", payloadFrame(40, 4000, 1, 1, "a", 3, 1, 5, 1<<30, 0)},
	{"reference beyond the table", "refers to term 1", payloadFrame(40, 4000, 1, 1, "a", 3, 1, 5, 2, 0, 1)},
	{"references out of first-occurrence order", "refers to term 1", payloadFrame(40, 4000, 2, 1, "a", 3, 1, "b", 3, 1, 5, 2, 1, 0)},
	{"term never referenced", "never referenced", payloadFrame(40, 4000, 2, 1, "a", 3, 1, "b", 3, 1, 5, 1, 0)},
	{"term listed twice", "repeats", payloadFrame(40, 4000, 2, 1, "a", 3, 1, "a", 4, 1, 5, 2, 0, 1)},
	{"padded integer", "padded", payloadFrame([]byte{0x80 | 40, 0}, 4000, 1, 1, "a", 3, 1, 5, 1, 0)},
	{"integer beyond int64", "oversized", payloadFrame(uint64(math.MaxUint64), 4000, 1, 1, "a", 3, 1, 5, 1, 0)},
	{"unread payload bytes", "unread", payloadFrame(40, 4000, 1, 1, "a", 3, 1, 5, 1, 0, 0)},
	{"cut inside a member", "integer", payloadFrame(40, 4000, 1, 1, "a", 3, 2, 5, 1, 0, 5)},
}

var brokenReplyFrames = []struct {
	name, says string
	frame      []byte
}{
	{"empty payload", "integer", payloadFrame()},
	{"member count beyond the bytes left", "count", payloadFrame(1 << 40)},
	{"hit count beyond the bytes left", "count", payloadFrame(1, 0, 0, 0, 0, 1<<30, 7, score8)},
	{"gid beyond int32", "beyond int32", payloadFrame(1, 0, 0, 0, 0, 1, 1<<31, score8)},
	{"score cut short", "truncated score", payloadFrame(1, 0, 0, 0, 0, 1, 1<<21, score8[:6])},
	{"padded integer", "padded", payloadFrame(1, 0, 0, 0, 0, 1, []byte{0x87, 0}, score8)},
	{"unread payload bytes", "unread", payloadFrame(1, 0, 0, 0, 0, 0, 9)},
	{"cut inside the stats", "integer", payloadFrame(2, 0, 0, 0, 0, 0, 1<<40, 1<<40)},
}

// genAck draws a mutation ack: the statistics it carries (the index
// shape only in the fields an ack has) and 0–49 df entries, some of
// them 0.
func genAck(rng *rand.Rand) (shardStats, []segment.TermDF) {
	st := shardStats{
		Version:    rng.Uint64() >> rng.Intn(64),
		Instance:   rng.Uint64() | 1,
		Docs:       rng.Intn(1 << 20),
		TotalLen:   rng.Int63n(1 << 40),
		MaxGid:     corpus.DocID(rng.Intn(1<<20)) - 1,
		AppliedSeq: rng.Uint64() >> rng.Intn(64),
		DurableSeq: rng.Uint64() >> rng.Intn(64),
		Persistent: rng.Intn(2) == 0,
		Scoring:    []string{"bm25", "cosine", ""}[rng.Intn(3)],
		Index: index.Stats{
			NumPostings:    rng.Intn(1 << 30),
			MaxListLen:     rng.Intn(1 << 20),
			SizeBytes:      rng.Int63n(1 << 40),
			PostingsBytes:  rng.Int63n(1 << 40),
			ResidentBytes:  rng.Int63n(1 << 40),
			PaddedPIRBytes: rng.Int63n(1 << 50),
		},
	}
	changed := make([]segment.TermDF, rng.Intn(50))
	for i := range changed {
		changed[i] = segment.TermDF{
			Term: fmt.Sprintf("t%d%s", rng.Intn(1000), strings.Repeat("z", rng.Intn(6))),
			DF:   rng.Intn(3) * rng.Intn(5000),
		}
	}
	return st, changed
}

// TestMutationAckRoundTrip: an ack decodes to the statistics and df
// entries it was built from, field for field, extremes included, and
// re-encodes to its own bytes. An ack's version is at least 1.
func TestMutationAckRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		st, changed := genAck(rng)
		st.Version = max(st.Version, 1)
		switch trial {
		case 0:
			st.Version, st.Instance, st.AppliedSeq, st.DurableSeq = math.MaxUint64, math.MaxUint64, math.MaxUint64, math.MaxUint64
			st.MaxGid = math.MaxInt32 - 1
		case 1:
			st = shardStats{Version: 1, MaxGid: -1, Instance: 1}
			changed = changed[:0]
		}
		frame := appendStats(nil, &st, changed)
		got, err := decodeStats(frame)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got.stats, st) || !reflect.DeepEqual(got.entries, changed) {
			t.Fatalf("trial %d: decoded\n%+v %v\nwant\n%+v %v", trial, got.stats, got.entries, st, changed)
		}
		if back := appendStats(nil, &got.stats, got.entries); !bytes.Equal(back, frame) {
			t.Fatalf("trial %d: decoded ack re-encodes to other bytes", trial)
		}
	}
}

// ackHead is an ack's fields up to its entries: version 3 of instance
// 99, 10 documents of 400 tokens, max gid 10, nothing journaled, in
// memory, bm25, and an index shape.
var ackHead = []interface{}{3, 99, 10, 400, 11, 0, 0, 0, 4, "bm25", 60, 9, 0, 500, 500, 0}

// ackFrame seals ackHead followed by entries.
func ackFrame(entries ...interface{}) []byte {
	return payloadFrame(append(append([]interface{}{}, ackHead...), entries...)...)
}

var brokenAckFrames = []struct {
	name, says string
	frame      []byte
}{
	{"empty payload", "integer", payloadFrame()},
	{"docs beyond int64", "oversized", payloadFrame(3, 99, uint64(math.MaxUint64), 400, 11, 0, 0, 0, 4, "bm25", 60, 9, 0, 500, 500, 0, 0)},
	{"max gid beyond int32", "beyond int32", payloadFrame(3, 99, 10, 400, 1<<31+1, 0, 0, 0, 4, "bm25", 60, 9, 0, 500, 500, 0, 0)},
	{"persistent flag neither 0 nor 1", "persistent", payloadFrame(3, 99, 10, 400, 11, 0, 0, 2, 4, "bm25", 60, 9, 0, 500, 500, 0, 0)},
	{"scoring length beyond the bytes left", "count", payloadFrame(3, 99, 10, 400, 11, 0, 0, 0, 200, "bm25")},
	{"entry count beyond the bytes left", "count", ackFrame(1 << 40)},
	{"term length beyond the bytes left", "count", ackFrame(1, 200, "ab", 2)},
	{"padded integer", "padded", ackFrame(1, 1, "a", []byte{0x82, 0})},
	{"cut inside an entry", "integer", ackFrame(1, 1, "a")},
	{"unread payload bytes", "unread", ackFrame(1, 1, "a", 2, 0)},
}

// genMutation is a random mutation frame: an add of up to 20 documents
// in ascending gid order, or, one time in four, a delete.
func genMutation(rng *rand.Rand) []byte {
	seq, instance := rng.Uint64()>>rng.Intn(64), rng.Uint64()>>rng.Intn(64)
	if rng.Intn(4) == 0 {
		return appendMutation(nil, seq, instance, appendDelete(nil, corpus.DocID(rng.Int31())))
	}
	docs := make([]corpus.Document, rng.Intn(20))
	gid := corpus.DocID(rng.Intn(1000))
	for i := range docs {
		gid += corpus.DocID(1 + rng.Intn(100))
		docs[i] = corpus.Document{
			ID:    gid,
			Title: strings.Repeat("t", rng.Intn(3)),
			Text:  fmt.Sprintf("<doc %d> & %s", gid, strings.Repeat("word ", rng.Intn(40))),
		}
	}
	return appendMutation(nil, seq, instance, appendAdd(nil, docs))
}

var brokenMutationFrames = []struct {
	name, says string
	frame      []byte
}{
	{"empty payload", "integer", payloadFrame()},
	{"op neither add nor delete", "op 2", payloadFrame(7, 0, 2, 5)},
	{"delete of a gid beyond int32", "beyond int32", payloadFrame(7, 0, opDelete, uint64(1<<31))},
	{"added gid beyond int32", "beyond int32", payloadFrame(7, 0, opAdd, 1, uint64(1<<31), 0, 0)},
	{"document count beyond the bytes left", "count", payloadFrame(7, 0, opAdd, 1<<40)},
	{"text length beyond the bytes left", "count", payloadFrame(7, 0, opAdd, 1, 5, 1, "t", 200, "ab")},
	{"padded integer", "padded", payloadFrame(7, []byte{0x80, 0}, opDelete, 5)},
	{"cut inside a document", "integer", payloadFrame(7, 0, opAdd, 1, 5, 1, "t")},
	{"unread payload bytes", "unread", payloadFrame(7, 0, opDelete, 5, 0)},
}

// TestBatchFramesRefuseMalformed runs the hand-broken frames, every
// truncation and every one-byte corruption of a good frame through every
// frame decoder — the batch request and reply, the mutation and its ack: each is
// an error, never a panic — and a count a frame merely claims never
// sizes an allocation.
func TestBatchFramesRefuseMalformed(t *testing.T) {
	goodRequest := genCycle(rand.New(rand.NewSource(1))).encode()
	goodReply := appendBatchReply(nil, genReply(rand.New(rand.NewSource(1))))
	ackStats, ackChanged := genAck(rand.New(rand.NewSource(1)))
	goodAck := appendStats(nil, &ackStats, ackChanged)
	goodMutation := appendMutation(nil, 9, 99, appendAdd(nil, []corpus.Document{{ID: 4, Title: "t", Text: "<a> & b"}, {ID: 6, Text: "c"}}))
	for _, side := range []struct {
		name   string
		good   []byte
		decode func([]byte) (int, error)
		broken []struct {
			name, says string
			frame      []byte
		}
	}{
		{"request", goodRequest, func(b []byte) (int, error) { r, err := decodeBatchRequest(b); return len(r), err }, brokenRequestFrames},
		{"reply", goodReply, func(b []byte) (int, error) { r, err := decodeBatchReply(b); return len(r), err }, brokenReplyFrames},
		{"ack", goodAck, func(b []byte) (int, error) { a, err := decodeStats(b); return len(a.entries), err }, brokenAckFrames},
		{"mutation", goodMutation, func(b []byte) (int, error) { m, err := decodeMutation(b); return len(m.docs), err }, brokenMutationFrames},
	} {
		if _, err := side.decode(side.good); err != nil {
			t.Fatalf("%s: good frame refused: %v", side.name, err)
		}
		for _, tt := range side.broken {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := side.decode(tt.frame)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tt.says) {
				t.Errorf("%s, %s: error %v, want one saying %q", side.name, tt.name, err, tt.says)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Errorf("%s, %s: decoding %d bytes allocated %d", side.name, tt.name, len(tt.frame), grew)
			}
		}
		for cut := 0; cut < len(side.good); cut++ {
			if _, err := side.decode(side.good[:cut]); err == nil {
				t.Fatalf("%s: frame cut to %d of %d bytes decoded", side.name, cut, len(side.good))
			}
		}
		if _, err := side.decode(append(append([]byte(nil), side.good...), 0)); err == nil || !strings.Contains(err.Error(), "after the frame") {
			t.Errorf("%s: a byte after the frame: %v", side.name, err)
		}
		for i := range side.good {
			bad := append([]byte(nil), side.good...)
			bad[i] ^= 0x41
			if _, err := side.decode(bad); err == nil {
				t.Fatalf("%s: byte %d corrupted, frame still decoded", side.name, i)
			}
			// Past the checksum, the parser is on its own.
			if i >= frame.Header {
				frame.Seal(bad)
				side.decode(bad)
			}
		}
	}
}

// checkRequestFrame is the fuzz property of the request decoder, run on
// data as it is and on data sealed as a payload (a mutated frame hardly
// ever passes its CRC, so the parser would go unfuzzed): no panic; every
// decoded element paid for by at least one input byte; and whatever
// decodes re-encodes to the same bytes — there is one frame per cycle.
func checkRequestFrame(t *testing.T, frame []byte) {
	reqs, err := decodeBatchRequest(frame)
	if err != nil {
		return
	}
	elems := len(reqs)
	for _, q := range reqs {
		elems += len(q.Terms)
		if len(q.Global.DF) != len(q.Terms) || cap(q.Terms) != len(q.Terms) {
			t.Fatalf("member windows misaligned or open-ended: %+v", q)
		}
	}
	if elems > len(frame) {
		t.Fatalf("%d-byte frame decoded to %d members and terms", len(frame), elems)
	}
	if back := reencodeRequests(reqs); !bytes.Equal(back, frame) {
		t.Fatalf("decoded frame re-encodes to other bytes:\n%x\n%x", frame, back)
	}
}

func checkReplyFrame(t *testing.T, frame []byte) {
	resps, err := decodeBatchReply(frame)
	if err != nil {
		return
	}
	elems := len(resps)
	for _, r := range resps {
		elems += len(r.Hits)
	}
	if elems > len(frame) {
		t.Fatalf("%d-byte frame decoded to %d members and hits", len(frame), elems)
	}
	if back := appendBatchReply(nil, resps); !bytes.Equal(back, frame) {
		t.Fatalf("decoded frame re-encodes to other bytes:\n%x\n%x", frame, back)
	}
}

func FuzzDecodeBatchRequest(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		fr := genCycle(rng).encode()
		f.Add(fr)
		f.Add(fr[frame.Header:])
	}
	f.Add(benchCycle().encode())
	for _, tt := range brokenRequestFrames {
		f.Add(tt.frame)
		f.Add(tt.frame[frame.Header:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRequestFrame(t, data)
		checkRequestFrame(t, payloadFrame(data))
	})
}

func FuzzDecodeBatchReply(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		fr := appendBatchReply(nil, genReply(rng))
		f.Add(fr)
		f.Add(fr[frame.Header:])
	}
	for _, tt := range brokenReplyFrames {
		f.Add(tt.frame)
		f.Add(tt.frame[frame.Header:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplyFrame(t, data)
		checkReplyFrame(t, payloadFrame(data))
	})
}

// checkAckFrame is the fuzz property of the ack decoder: no panic, every
// decoded entry paid for by input bytes, and one encoding per ack.
func checkAckFrame(t *testing.T, frame []byte) {
	a, err := decodeStats(frame)
	if err != nil {
		return
	}
	if 2*len(a.entries) > len(frame) {
		t.Fatalf("%d-byte frame decoded to %d entries", len(frame), len(a.entries))
	}
	if back := appendStats(nil, &a.stats, a.entries); !bytes.Equal(back, frame) {
		t.Fatalf("decoded ack re-encodes to other bytes:\n%x\n%x", frame, back)
	}
}

func FuzzDecodeMutationAck(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		st, changed := genAck(rng)
		fr := appendStats(nil, &st, changed)
		f.Add(fr)
		f.Add(fr[frame.Header:])
	}
	for _, tt := range brokenAckFrames {
		f.Add(tt.frame)
		f.Add(tt.frame[frame.Header:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAckFrame(t, data)
		checkAckFrame(t, payloadFrame(data))
	})
}

// checkMutationFrame is the fuzz property of the mutation decoder: no
// panic, every decoded document paid for by input bytes, and one
// encoding per mutation, so a truncated or padded frame never decodes.
func checkMutationFrame(t *testing.T, frame []byte) {
	m, err := decodeMutation(frame)
	if err != nil {
		return
	}
	if 3*len(m.docs) > len(frame) {
		t.Fatalf("%d-byte frame decoded to %d documents", len(frame), len(m.docs))
	}
	body := appendDelete(nil, m.gid)
	if !m.del {
		body = appendAdd(nil, m.docs)
	}
	if back := appendMutation(nil, m.seq, m.ifInstance, body); !bytes.Equal(back, frame) {
		t.Fatalf("decoded mutation re-encodes to other bytes:\n%x\n%x", frame, back)
	}
}

func FuzzDecodeMutation(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		fr := genMutation(rng)
		f.Add(fr)
		f.Add(fr[frame.Header:])
	}
	for _, tt := range brokenMutationFrames {
		f.Add(tt.frame)
		f.Add(tt.frame[frame.Header:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMutationFrame(t, data)
		checkMutationFrame(t, payloadFrame(data))
	})
}

// TestRouterBoundsMalformedReply: a shard that answers a request frame
// on its stream with anything but one well-formed frame of the request's
// member count — or never stops answering — is an error for that shard
// alone: the cycle degrades to the survivors' bit-identical results, as
// it does for a dead shard, and the shard is back the moment it behaves.
func TestRouterBoundsMalformedReply(t *testing.T) {
	tc := newTestCluster(t, vsm.BM25, 3, Config{})
	var mangle atomic.Value // func(io.Writer, []byte)
	inner := tc.servers[2]
	front := serveNamed(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if streamKindOf(r.Header.Get("Upgrade")) != cycleStreams {
			proxyTo(t, inner.URL, w, r)
			return
		}
		// A mangled reply ends the relayed stream, as a broken shard's
		// connection would end.
		proxyStream(inner.URL, w, cycleStreams, nil, func(w io.Writer, reply []byte) bool {
			m, _ := mangle.Load().(func(io.Writer, []byte))
			if m == nil {
				return false
			}
			m(w, reply)
			return true
		})
	}))
	defer front.Close()
	r, err := New(Config{Shards: []string{tc.servers[0].URL, tc.servers[1].URL, front.URL}, Analyzer: textproc.NewAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	docs := synthDocs(t, 40, 5)
	gids, err := r.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	an := textproc.NewAnalyzer()
	reqs := []vsm.Request{
		{Terms: an.Analyze(queryFrom(docs[3], 2, 4)), K: len(gids)},
		{Terms: an.Analyze(queryFrom(docs[9], 0, 5)), K: len(gids)},
	}
	full, err := r.SearchBatch(context.Background(), reqs)
	if err != nil || full[0].Degraded {
		t.Fatalf("healthy baseline failed: err=%v degraded=%v", err, full[0].Degraded)
	}
	for i := range reqs {
		reqs[i].K = k
	}
	dead := ownedBy(r, gids, 2)

	write := func(f func(good []byte) []byte) func(io.Writer, []byte) {
		return func(w io.Writer, good []byte) { w.Write(f(append([]byte(nil), good...))) }
	}
	oneMember := appendBatchReply(nil, make([]vsm.Response, 1))
	for _, tt := range []struct {
		name, says string
		mangle     func(io.Writer, []byte)
	}{
		{"bad CRC", "checksum", write(func(b []byte) []byte { b[len(b)-1] ^= 1; return b })},
		{"truncated", "cut short", write(func(b []byte) []byte { return b[:len(b)-5] })},
		{"trailing bytes", "after the frame", write(func(b []byte) []byte { return append(b, 0) })},
		{"a length beyond the cap", "longer than its bound", write(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, maxBatchReply+1)
			return b
		})},
		{"another cycle's member count", "answered 1 members for 2", write(func([]byte) []byte { return oneMember })},
		{"gid beyond int32", "beyond int32", write(func([]byte) []byte {
			return payloadFrame(2, 0, 0, 0, 0, 1, 1<<31, score8, 0, 0, 0, 0, 0)
		})},
		{"hit count beyond the bytes left", "count", write(func([]byte) []byte {
			return payloadFrame(2, 0, 0, 0, 0, 1<<30, 7, score8, 0, 0, 0, 0, 0)
		})},
		{"JSON", "cut short", write(func([]byte) []byte { return []byte(`{"responses":[]}`) })},
		{"a reply that never ends", "batch frame", func(w io.Writer, _ []byte) {
			chunk := make([]byte, 64<<10)
			for {
				if _, err := w.Write(chunk); err != nil {
					return
				}
			}
		}},
	} {
		mangle.Store(tt.mangle)
		resps, err := r.SearchBatch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("%s: the cycle failed: %v", tt.name, err)
		}
		for i := range resps {
			checkDegradedResults(t, resps[i], degradedWant(full[i].Hits, dead, k), front.URL)
			for _, st := range resps[i].Shards {
				if !st.OK && !strings.Contains(st.Err, tt.says) {
					t.Errorf("%s: shard error %q does not say %q", tt.name, st.Err, tt.says)
				}
			}
		}
	}
	mangle.Store((func(io.Writer, []byte))(nil))
	resps, err := r.SearchBatch(context.Background(), reqs)
	if err != nil || resps[0].Degraded {
		t.Fatalf("well-behaved again, still degraded: err=%v %+v", err, resps[0].Shards)
	}
}

// benchCycle is a cycle of the shape the system benchmark's client
// emits: 10 members (υ ≈ 9.7) of 3–6 terms over a 30-term pool — one
// masking topic's worth of overlap — asking 10 hits each.
func benchCycle() testCycle {
	rng := rand.New(rand.NewSource(42))
	c := testCycle{docs: 6000, totalLen: 6000 * 180, df: map[string]int{}}
	pool := strings.Fields("market trading stock finance bank credit loan equity bond yield " +
		"portfolio hedge asset audit ledger invoice payroll budget forecast revenue " +
		"merger tender vendor contract clause liability patent license royalty dividend")
	for _, w := range pool {
		c.df[w] = 1 + rng.Intn(c.docs/4)
	}
	c.members = make([]vsm.Request, 10)
	for i := range c.members {
		terms := make([]string, 3+rng.Intn(4))
		for j := range terms {
			terms[j] = pool[rng.Intn(len(pool))]
		}
		c.members[i] = vsm.Request{Terms: terms, K: 10}
	}
	return c
}

// BenchmarkBatchWire is the wire work of one cycle over three shards,
// engine excluded: the router encodes the request frame once, each shard
// decodes it and encodes its 10 × 10-hit reply, the router decodes the
// three replies. allocs/op is the machine-independent figure; bytes/cycle
// is every frame of the cycle added up.
func BenchmarkBatchWire(b *testing.B) {
	const shards = 3
	c := benchCycle()
	rng := rand.New(rand.NewSource(7))
	replies := make([][]vsm.Response, shards)
	for s := range replies {
		replies[s] = make([]vsm.Response, len(c.members))
		for i := range replies[s] {
			hits := make([]vsm.Result, 10)
			for j := range hits {
				hits[j] = vsm.Result{Doc: corpus.DocID(rng.Intn(6000)), Score: 25 * rng.Float64()}
			}
			replies[s][i] = vsm.Response{Hits: hits, Stats: vsm.ExecStats{
				DocsScored: 900 + rng.Intn(200), Postings: 2000 + rng.Intn(500), BlocksDecoded: 20 + rng.Intn(10)}}
		}
	}
	df := func(t string) int { return c.df[t] }
	var request, reply []byte
	wireBytes := 0
	b.ReportAllocs()
	for b.Loop() {
		wireBytes = 0
		request = appendBatchRequest(request[:0], c.docs, c.totalLen, c.members, df)
		for s := 0; s < shards; s++ {
			reqs, err := decodeBatchRequest(request)
			if err != nil || len(reqs) != len(c.members) {
				b.Fatal(err)
			}
			reply = appendBatchReply(reply[:0], replies[s])
			resps, err := decodeBatchReply(reply)
			if err != nil || len(resps) != len(c.members) {
				b.Fatal(err)
			}
			wireBytes += len(request) + len(reply)
		}
	}
	b.ReportMetric(float64(wireBytes), "bytes/cycle")
}
