package search

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/telemetry"
	"toppriv/internal/vsm"
)

// The recordings under testdata were made at d2e2055 — encoding/json on
// both sides — from a router over three BM25 shards holding 300
// corpusgen documents, three of them retitled to exercise the string
// rules: batch_reply_10x10.json is a 10-member cycle at k = 10 (titles,
// stats, three shard statuses per member), batch_reply_degraded.json two
// members answered with one shard down (degraded, a quoted err string).
func recordedReply(t testing.TB, name string) ([]byte, []SearchResponse) {
	t.Helper()
	body, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	var br BatchSearchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	return body, br.Responses
}

// oracle is what the parent wrote for a /search/batch reply.
func oracle(rs []SearchResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(BatchSearchResponse{Responses: rs})
	return buf.Bytes(), err
}

// checkAgainstOracle holds both reply encoders to json.Encoder on rs:
// the same bytes, or an error on both sides.
func checkAgainstOracle(t *testing.T, rs []SearchResponse) {
	t.Helper()
	want, wantErr := oracle(rs)
	got, gotErr := appendBatchResponse(nil, rs)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("batch: encoder error %v, json.Encoder error %v", gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("batch reply differs from json.Encoder:\n got %s\nwant %s", got, want)
	}
	for i := range rs {
		var buf bytes.Buffer
		wantErr := json.NewEncoder(&buf).Encode(rs[i])
		got, gotErr := appendResponse(nil, &rs[i])
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("member %d: encoder error %v, json.Encoder error %v", i, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(append(got, '\n'), buf.Bytes()) {
			t.Fatalf("member %d differs from json.Encoder:\n got %s\nwant %s", i, got, buf.Bytes())
		}
	}
}

// TestAppendReproducesRecordedReplies: replies the parent's server wrote
// come back out of the hand-written encoder byte for byte.
func TestAppendReproducesRecordedReplies(t *testing.T) {
	for _, name := range []string{"batch_reply_10x10.json", "batch_reply_degraded.json"} {
		body, rs := recordedReply(t, name)
		got, err := appendBatchResponse(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, '\n'); !bytes.Equal(got, body) {
			t.Errorf("%s: re-encoded reply differs from the recording:\n got %s\nwant %s", name, got, body)
		}
		checkAgainstOracle(t, rs)
	}
}

// fillNonZero sets every field reachable from v to a non-zero value, so
// that no omitempty drops it.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(v.Index(i))
		}
	case reflect.String:
		v.SetString("x<y")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint64:
		v.SetUint(7)
	case reflect.Float64:
		v.SetFloat(1.5)
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
}

// TestAppendCoversEveryField fails when SearchResponse, SearchHit,
// vsm.ExecStats or vsm.ShardStatus gains a field the hand-written
// encoder does not know: with every field set, json.Encoder writes it
// and appendResponse does not.
func TestAppendCoversEveryField(t *testing.T) {
	var r SearchResponse
	fillNonZero(reflect.ValueOf(&r).Elem())
	checkAgainstOracle(t, []SearchResponse{r})
}

// awkward scores: the boundaries of json's float format.
var awkwardScores = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1e-9, 1.5e-10,
	1e20, 1e21, -1e21, 1.7e300, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 8.829823945058243,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// awkward strings: every branch of the string rules. U+2028/9 and the
// invalid sequences are spelled in bytes.
var awkwardStrings = []string{
	"", "plain title", `Q&A: <markets> "up" \ down`, "tab\there\nnewline\rcr\bbs\fff",
	"nul\x00 unit\x1f del\x7f", "na\xc3\xafve \xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e",
	"line\xe2\x80\xa8sep para\xe2\x80\xa9sep", "bad\xffbyte", "cut\xe2\x80", "\x80lead", "\xed\xa0\x80surrogate",
	"emoji \xf0\x9f\x94\x8d", "\xef\xbf\xbdreal replacement char",
}

// buildReplies shapes one fuzz input into a batch reply. The shape bits
// choose, independently: nil / empty / filled hits, stats absent or
// present, which omitempty counters are zero, trace, degraded, shards
// nil / empty / filled, a nil response list, and 1–4 members.
func buildReplies(title, shard, errText string, scoreBits uint64, doc int32, n int64, shape uint16) []SearchResponse {
	if shape&(1<<11) != 0 {
		return nil
	}
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	score := math.Float64frombits(scoreBits)
	pick := func(on bool, v int) int {
		if on {
			return v
		}
		return 0
	}
	rs := make([]SearchResponse, 1+int(shape>>12)&3)
	for m := range rs {
		r := &rs[m]
		switch {
		case bit(0):
		case bit(1):
			r.Hits = []SearchHit{}
		default:
			r.Hits = []SearchHit{
				{Doc: corpus.DocID(doc), Score: score, Title: title},
				{Doc: corpus.DocID(-doc), Score: -score},
				{Doc: corpus.DocID(m), Score: score / 3, Title: errText},
			}
		}
		if !bit(2) {
			r.Stats = &vsm.ExecStats{
				DocsScored:    pick(bit(3), int(n)),
				DocsPruned:    pick(bit(4), m+1),
				DocsFiltered:  pick(bit(5), int(-n)),
				Postings:      pick(bit(6), int(n>>7)),
				BlocksDecoded: pick(bit(7), 3),
			}
		}
		if bit(8) {
			r.Trace = &telemetry.PhaseTrace{Seq: uint64(n), Scorer: shard, Mode: "batch", Terms: 4, K: 10, Batch: pick(bit(3), 9), TotalNS: n}
		}
		r.Degraded = bit(9)
		switch {
		case bit(10):
			r.Shards = []vsm.ShardStatus{{Shard: shard, OK: true}, {Shard: title, OK: false, Err: errText}, {}}
		case bit(3):
			r.Shards = []vsm.ShardStatus{}
		}
	}
	return rs
}

// FuzzAppendResponse holds the reply encoder to json.Encoder byte for
// byte — and error for error on NaN and ±Inf — over fuzzer-built
// replies.
func FuzzAppendResponse(f *testing.F) {
	_, rs := recordedReply(f, "batch_reply_10x10.json")
	_, degraded := recordedReply(f, "batch_reply_degraded.json")
	for _, r := range append(rs, degraded...) {
		sh := r.Shards[len(r.Shards)-1]
		for _, h := range r.Hits[:2] {
			f.Add(h.Title, sh.Shard, sh.Err, math.Float64bits(h.Score), int32(h.Doc), int64(r.Stats.Postings), uint16(0x4f8))
		}
	}
	for i, s := range awkwardStrings {
		next := awkwardStrings[(i+1)%len(awkwardStrings)]
		f.Add(s, next, s+next, math.Float64bits(awkwardScores[i%len(awkwardScores)]), int32(math.MinInt32), int64(math.MinInt64), uint16(0x17f8)|1<<10)
	}
	for i, s := range awkwardScores {
		f.Add("t", "s", "", math.Float64bits(s), int32(i), int64(i), uint16(i&1)<<9)
	}
	for shape := 0; shape < 1<<12; shape += 37 {
		f.Add("t", "s", "e", math.Float64bits(0.25), int32(1), int64(1), uint16(shape))
	}
	f.Fuzz(func(t *testing.T, title, shard, errText string, scoreBits uint64, doc int32, n int64, shape uint16) {
		checkAgainstOracle(t, buildReplies(title, shard, errText, scoreBits, doc, n, shape))
	})
}

// brokenBodies are hand-broken replies: each must be refused, or read
// as holding no responses.
var brokenBodies = []string{
	``, ` `, `null`, `[]`, `5`, `"responses"`, `{`, `{"responses"`, `{"responses":`, `{"responses":[`, `{"responses":[{`,
	`{"responses":[{}]`, `{"responses":[{}]}x`, `{"responses":[{}]}{}`, `{"responses":[{},]}`, `{"responses":[,{}]}`,
	`{"responses":[{}],}`, `{"responses" [{}]}`, `{responses:[{}]}`, `{"responses":[{"hits":[{"doc":01}]}]}`,
	`{"responses":[{"hits":[{"score":1.}]}]}`, `{"responses":[{"hits":[{"score":-}]}]}`, `{"responses":[{"hits":[{"score":2e}]}]}`,
	`{"responses":[{"title":"a` + "\x01" + `"}]}`, `{"responses":[{"title":"\x41"}]}`, `{"responses":[{"title":"\u12g4"}]}`,
	`{"responses":[{"title":"\u12"}]}`, `{"responses":[tru]}`, `{"responses":[nul]}`, `{"responses":[falsy]}`,
	`{"Responses":[{}]}`, `{"\u0072esponses":[{}]}`, `{"responses":null}`, `{"responses":{}}`, `{"responses":7}`,
	`{"responses":[{}],"responses":null}`, `{"responses":[{}],"responses":[{},{}]}`, "\t{ \"responses\" : [ { } , null ] }\r\n",
}

// FuzzBatchMembers holds the reply walker to encoding/json: it accepts
// a body exactly when json.Valid does and the body is an object; what
// it records as the elements of "responses" are the elements
// encoding/json sees; and over any body the encoder can emit,
// decodeBatch returns what json.Unmarshal returns — all of it for only
// = -1, element i alone for only = i.
func FuzzBatchMembers(f *testing.F) {
	for _, name := range []string{"batch_reply_10x10.json", "batch_reply_degraded.json"} {
		body, _ := recordedReply(f, name)
		f.Add(body)
		f.Add(body[:len(body)/2])
		f.Add(bytes.Replace(body, []byte(`"score":`), []byte(`"score":-`), 3))
	}
	for _, b := range brokenBodies {
		f.Add([]byte(b))
	}
	f.Add([]byte(`{"responses":[` + strings.Repeat("[", 200) + strings.Repeat("]", 200) + `]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spans := make([]span, 8)
		n, err := batchMembers(body, spans)
		trimmed := bytes.TrimLeft(body, " \t\r\n")
		valid := json.Valid(body) && len(trimmed) > 0 && trimmed[0] == '{'
		if (err == nil) != valid {
			t.Fatalf("batchMembers error %v, but json.Valid ∧ object = %v", err, valid)
		}
		if !valid {
			return
		}
		// Elements: where the body spells the key once and only literally,
		// a map decode finds the same value the walker found.
		if bytes.Count(body, []byte("esponses")) == 1 && !bytes.Contains(body, []byte(`\u00`)) {
			var top map[string]json.RawMessage
			if err := json.Unmarshal(body, &top); err != nil {
				t.Fatal(err)
			}
			var elems []json.RawMessage
			if raw := top["responses"]; len(raw) > 0 && raw[0] == '[' {
				if err := json.Unmarshal(raw, &elems); err != nil {
					t.Fatal(err)
				}
			}
			if n != len(elems) {
				t.Fatalf("walker counted %d responses, encoding/json %d", n, len(elems))
			}
			for i := 0; i < n && i < len(spans); i++ {
				if got := body[spans[i].start:spans[i].end]; !bytes.Equal(got, elems[i]) {
					t.Fatalf("element %d: walker recorded %q, encoding/json %q", i, got, elems[i])
				}
			}
		}
		// Any body the encoder can emit: decode what this one means to
		// encoding/json, re-encode it, and hold decodeBatch to json.Unmarshal.
		var br BatchSearchResponse
		if json.Unmarshal(body, &br) != nil {
			return
		}
		emitted, err := appendBatchResponse(nil, br.Responses)
		if err != nil {
			t.Fatal(err) // a decoded float is never NaN or Inf
		}
		var want BatchSearchResponse
		if err := json.Unmarshal(emitted, &want); err != nil {
			t.Fatalf("encoder emitted what encoding/json refuses: %v\n%s", err, emitted)
		}
		all, err := decodeBatch(emitted, len(want.Responses), -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) > 0 && !reflect.DeepEqual(all, want.Responses) {
			t.Fatalf("decodeBatch(-1) = %+v\njson.Unmarshal = %+v", all, want.Responses)
		}
		for i := range want.Responses {
			one, err := decodeBatch(emitted, len(want.Responses), i)
			if err != nil {
				t.Fatal(err)
			}
			for j := range one {
				wantJ := SearchResponse{}
				if j == i {
					wantJ = want.Responses[i]
				}
				if !reflect.DeepEqual(one[j], wantJ) {
					t.Fatalf("decodeBatch(only=%d)[%d] = %+v, want %+v", i, j, one[j], wantJ)
				}
			}
		}
		if _, err := decodeBatch(emitted, len(want.Responses)+1, -1); err == nil {
			t.Fatal("a count mismatch went unnoticed")
		}
	})
}

// TestBatchMembersAllocatesNothing: validating a reply and locating its
// members costs no heap, so what the client allocates per cycle is the
// member it keeps.
func TestBatchMembersAllocatesNothing(t *testing.T) {
	body, rs := recordedReply(t, "batch_reply_10x10.json")
	spans := make([]span, len(rs))
	if allocs := testing.AllocsPerRun(20, func() {
		if n, err := batchMembers(body, spans); err != nil || n != len(rs) {
			t.Fatalf("batchMembers = %d, %v", n, err)
		}
	}); allocs != 0 {
		t.Errorf("batchMembers allocated %v times", allocs)
	}
}

// nanEngine answers every member with one hit whose score has no JSON
// form.
type nanEngine struct{}

func (nanEngine) SearchRequest(ctx context.Context, req vsm.Request) (vsm.Response, error) {
	return vsm.Response{Hits: []vsm.Result{{Doc: 1, Score: math.NaN()}}}, nil
}

func (e nanEngine) SearchBatch(ctx context.Context, reqs []vsm.Request) ([]vsm.Response, error) {
	out := make([]vsm.Response, len(reqs))
	for i := range out {
		out[i], _ = e.SearchRequest(ctx, reqs[i])
	}
	return out, nil
}

// TestUnencodableScoreIs500: a score with no JSON form is a clean 500
// on both endpoints — no 200 status line, no partial body.
func TestUnencodableScoreIs500(t *testing.T) {
	srv, err := NewServer(nanEngine{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for path, body := range map[string]string{
		"/search":       `{"query":"a"}`,
		"/search/batch": `{"queries":[{"query":"a"},{"query":"b"}]}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(msg.String(), "unsupported value: NaN") {
			t.Errorf("%s: status %d, body %q; want a 500 naming the value", path, resp.StatusCode, msg.String())
		}
	}
}

var benchSink int

// BenchmarkPublicWire is the machine-independent figure for the public
// hop: one recorded 10-member × 10-hit cycle reply (titles, stats, three
// shard statuses a member) encoded as the server does it and decoded as
// SearchCycle (keep-one) and SubmitBatch (keep-all) do it. allocs/op is
// gated in CI (cmd/benchjson); bytes/cycle is the reply's size.
func BenchmarkPublicWire(b *testing.B) {
	body, rs := recordedReply(b, "batch_reply_10x10.json")
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 2*len(body))
		for i := 0; i < b.N; i++ {
			out, err := appendBatchResponse(buf[:0], rs)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(out)
		}
		b.ReportMetric(float64(len(body)), "bytes/cycle")
	})
	for _, mode := range []struct {
		name string
		only int
	}{{"decode/keep-one", 4}, {"decode/keep-all", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := decodeBatch(body, len(rs), mode.only)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(out)
			}
			b.ReportMetric(float64(len(body)), "bytes/cycle")
		})
	}
}
