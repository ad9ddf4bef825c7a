package search

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// brokenBodies are hand-broken replies, and replies that spell or
// repeat "responses" in ways the server never writes.
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

// replySeeds are /search reply bodies — batch members — that take every
// branch of the reply decoder: folded and duplicate keys, a second
// array over the first one's elements, null over each kind, escapes,
// range edges and wrong types.
var replySeeds = []string{
	`{"hits":[{"doc":1,"score":0.5,"title":"a"}],"stats":{"docs_scored":3},"degraded":true,"shards":[{"shard":"s","ok":true}]}`,
	`{"HITS":[{"DOC":2,"Score":1}],"\u0073tats":{"DOCS_SCORED":1,"bloc\u212as_decoded":2},"Shard\u017f":[{"OK":true,"ERR":"e"}]}`,
	`{"hits":[{"doc":1},{"doc":2},{"doc":3}],"hits":[{"score":1}],"hits":[{},{},{},{}]}`,
	`{"hits":[{"doc":1}],"hits":[],"hits":[{"score":2}]}`,
	`{"hits":[{"doc":1}],"hits":null,"hits":[{}]}`,
	`{"hits":[null,{"doc":1,"doc":null,"title":null,"score":null}]}`,
	`{"stats":{"docs_scored":1},"stats":{"postings":2}}`, `{"stats":{"docs_scored":1},"stats":null,"stats":{"docs_pruned":3}}`,
	`{"trace":{"seq":1,"mode":"batch","total_ns":5},"trace":{"terms":2},"trace":null,"trace":{"k":1}}`,
	`{"trace":[1]}`, `{"trace":{"seq":-1}}`, `{"trace":{"seq":1.5}}`,
	`{"hits":[{"doc":2147483647,"score":-0}]}`, `{"hits":[{"doc":-2147483648}]}`, `{"hits":[{"doc":2147483648}]}`,
	`{"hits":[{"score":1e308}]}`, `{"hits":[{"score":1e309}]}`, `{"hits":[{"score":-1e400}]}`, `{"hits":[{"score":1e-400}]}`,
	`{"hits":[{"score":4.9e-324,"doc":-0}]}`, `{"hits":[{"doc":1.0}]}`, `{"hits":[{"doc":1e2}]}`, `{"hits":[{"doc":"1"}]}`,
	`{"hits":[{"title":"\ud83d\ude00 \ud800 \udc00x \ud800\u0041 \u00e9 \/ \b\f\n\r\t \"\\ \u003c"}]}`,
	"{\"hits\":[{\"title\":\"a\xff\xc3b\xed\xa0\x80 na\xc3\xafve\"}]}",
	`{"hits":{}}`, `{"hits":"x"}`, `{"stats":[]}`, `{"stats":7}`, `{"degraded":1}`, `{"degraded":"true"}`, `{"shards":[7]}`,
	`{"shards":[{"ok":null,"shard":null}],"x":[{"y":[true,false,null,-1.5e3,"z"]}],"degraded":false}`,
	`null`, ` {} `, `{} x`, `{}{}`, `[]`, `5`, `"x"`, `{"hits":[{"doc":1}]`, `{"hits":[{"doc":01}]}`, `{"hits" [1]}`,
}

// batchSeeds repeat "responses" — the second array shorter, then
// longer, under a folded spelling, not an array at all, or replacing
// members that do not decode — so that which occurrence names the
// members is encoding/json's choice.
var batchSeeds = []string{
	`{"responses":[{"hits":[{"doc":1}]},{"hits":[{"doc":2}]}],"responses":[{"stats":{"postings":1}}]}`,
	`{"responses":[{"hits":[{"doc":1}]}],"responses":[{"degraded":true},{"hits":[{"doc":2}]},{}]}`,
	`{"Responses":[{"hits":[]},{}],"responses":[{"degraded":true}]}`,
	`{"responses":[{"degraded":true}],"Responses":[{"hits":[]},{}]}`,
	`{"RESPONSES":[{}],"re\u0073ponses":[{"hits":null},{}]}`,
	`{"responses":[{"hits":[]}],"responses":7}`, `{"responses":[{"hits":[]}],"responses":{}}`,
	`{"responses":[{"hits":[]}],"responses":null}`, `{"responses":7,"responses":[{}]}`,
	`{"responses":{},"responses":[{}]}`, `{"responses":null,"responses":[{"hits":[{"doc":3}]}]}`,
	`{"responses":[{"hits":5}],"responses":[{}]}`, `{"responses":[{},{"stats":[]}],"responses":null}`,
	`{"responses":[7,{"hits":[{"doc":"1"}]}],"responses":[{},{"hits":[{"doc":1}]}]}`,
	`{"responses":[{"hits":5}],"responses":[{"degraded":1}]}`, `{"responses":[{"hits":[01]}],"responses":[{}]}`,
}

// rawBatch is how encoding/json reads a /search/batch reply when each
// member is left raw.
type rawBatch struct{ Responses []json.RawMessage }

// decodeBatchRef is decodeBatch by encoding/json alone: the body must be
// valid JSON and an object, its members are what a rawBatch reads, and
// each kept member is json.Unmarshal'd. n is how many members it holds,
// -1 if the body is refused before they are counted.
func decodeBatchRef(body []byte, want, only int) (out []SearchResponse, n int, err error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if !json.Valid(body) || trimmed[0] != '{' {
		return nil, -1, fmt.Errorf("not a valid JSON object")
	}
	var raw rawBatch
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, -1, err
	}
	if len(raw.Responses) != want {
		return nil, len(raw.Responses), fmt.Errorf("server returned %d responses for %d queries", len(raw.Responses), want)
	}
	out = make([]SearchResponse, want)
	for i, m := range raw.Responses {
		if only >= 0 && i != only {
			continue
		}
		if err := json.Unmarshal(m, &out[i]); err != nil {
			return nil, want, err
		}
	}
	return out, want, nil
}

// checkReplyDecoders holds the reply decoders to encoding/json on body:
// decodeResponse to json.Unmarshal of the whole body, and decodeBatch,
// for every member kept and for all of them, to decodeBatchRef — the
// same verdict, and on success the same values.
func checkReplyDecoders(t *testing.T, body []byte) {
	t.Helper()
	var got, want SearchResponse
	gotErr, wantErr := decodeResponse(body, &got), json.Unmarshal(body, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decodeResponse error %v, json.Unmarshal error %v\n%q", gotErr, wantErr, body)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeResponse = %+v\njson.Unmarshal = %+v\n%q", got, want, body)
	}
	_, n, err := decodeBatchRef(body, 0, -1)
	if n < 0 {
		if _, gotErr := decodeBatch(body, 0, -1); gotErr == nil {
			t.Fatalf("decodeBatch accepted a body encoding/json refuses (%v)\n%q", err, body)
		}
		return
	}
	for only := -1; only < n; only++ {
		got, gotErr := decodeBatch(body, n, only)
		want, _, wantErr := decodeBatchRef(body, n, only)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeBatch(only=%d) error %v, json.Unmarshal error %v\n%q", only, gotErr, wantErr, body)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeBatch(only=%d) = %+v\njson.Unmarshal = %+v\n%q", only, got, want, body)
		}
	}
	if _, err := decodeBatch(body, n+1, -1); err == nil {
		t.Fatal("a count mismatch went unnoticed")
	}
}

// recordedMember is member i of a recorded reply, as its bytes stand.
func recordedMember(t testing.TB, body []byte, i int) []byte {
	t.Helper()
	var raw rawBatch
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	return raw.Responses[i]
}

// FuzzBatchMembers holds the client's reply decoders to encoding/json.
// Over any body — and over what the encoder emits for whatever
// encoding/json reads in it — decodeResponse is json.Unmarshal, and
// decodeBatch is decodeBatchRef — json.Valid ∧ object, the members a
// rawBatch reads, json.Unmarshal of those it keeps — for every choice of
// member, error for error and value for value.
func FuzzBatchMembers(f *testing.F) {
	for _, name := range []string{"batch_reply_10x10.json", "batch_reply_degraded.json"} {
		body, _ := recordedReply(f, name)
		f.Add(body)
		f.Add(body[:len(body)/2])
		f.Add(bytes.Replace(body, []byte(`"score":`), []byte(`"score":-`), 3))
		f.Add(recordedMember(f, body, 0))
	}
	for _, b := range brokenBodies {
		f.Add([]byte(b))
	}
	for _, r := range replySeeds {
		f.Add([]byte(r))
		f.Add([]byte(`{"responses":[` + r + `,{"hits":[]}]}`))
	}
	f.Add([]byte(`{"responses":[` + strings.Repeat("[", 200) + strings.Repeat("]", 200) + `]}`))
	f.Add([]byte(`{"hits":[{"x":` + strings.Repeat("[", maxNesting-3) + strings.Repeat("]", maxNesting-3) + `}]}`))
	f.Add([]byte(`{"hits":[{"x":` + strings.Repeat("[", maxNesting-2) + strings.Repeat("]", maxNesting-2) + `}]}`))
	for _, b := range batchSeeds {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkReplyDecoders(t, body)
		// What the encoder emits for what this body means to encoding/json.
		var br BatchSearchResponse
		if json.Unmarshal(body, &br) != nil {
			return
		}
		emitted, err := appendBatchResponse(nil, br.Responses)
		if err != nil {
			t.Fatal(err) // a decoded float is never NaN or Inf
		}
		checkReplyDecoders(t, emitted)
		// And on what the encoder emits, decodeBatch is json.Unmarshal of
		// the whole body, not only of the members it keeps.
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

// requestSeeds take every branch of the request decoders: encoding/json's
// key folding, duplicate and unknown keys, null, escapes and invalid
// UTF-8, the integer rules for "k", wrong types, trailing bytes, and a
// second "queries" array over the first one's elements.
var requestSeeds = []string{
	`{"query":"market shares","k":10}`, `{"query":"a","k":3,"trace":true}`,
	`{"QUERY":"a","K":2,"TRACE":true}`, `{"\u212a":5,"query":"kelvin"}`, "{\"\xe2\x84\xaa\":6,\"query\":\"x\"}",
	`{"querie\u017f":[{"query":"long s"}]}`, "{\"querie\xc5\xbf\":[{\"Query\":\"x\"}]}", `{"\u0071uery":"escaped key"}`,
	`{"quer\u0130es":[{"query":"dotted I"}]}`, `{"quer\u0131es":[{"query":"dotless i"}]}`, `{"query\u0000":"x"}`, "{\"qu\xffery\":\"x\"}",
	`{"query":"a","query":"b","k":1,"k":2}`, `{"query":"a","k":4,"trace":true,"query":null,"k":null,"trace":null}`,
	`{"exec":"batch","x":[1,{"y":null}],"z":{"a":[true,false]},"n":-1.5e3,"query":"a","queries":7}`,
	`{"query":"\ud83d\ude00 \ud800 \udc00x \ud800\u0041 \ud800\ud800 \u00e9 \/ \b\f\n\r\t \"\\ \u003c"}`,
	"{\"query\":\"a\xff\xc3b\xed\xa0\x80 na\xc3\xafve \xf0\x9f\x94\x8d\"}", "{\"query\":\"tab\there\"}",
	`{"k":1.0}`, `{"k":1e2}`, `{"k":9223372036854775808}`, `{"k":-9223372036854775809}`, `{"k":-9223372036854775808}`,
	`{"k":9223372036854775807}`, `{"k":-0}`, `{"k":"5"}`, `{"k":true}`, `{"k":[]}`, `{"k":{}}`, `{"k":01}`, `{"k":-}`,
	`{"query":5}`, `{"query":true}`, `{"query":{}}`, `{"query":[]}`, `{"trace":1}`, `{"trace":"true"}`, `{"trace":tru}`,
	`{"query":"a"} garbage`, `{"query":"a"}{`, `{"query":"a"}]`, `null x`, `nullx`, `nul`, `{}`, ` {} `,
	``, ` `, `null`, `5`, `"x"`, `[]`, `true`, `{`, `{"query"`, `{"query":"a"`, `{"query":"a",}`, `{"query" "a"}`, `{'query':'a'}`,
	`{"queries":[{"query":"a","k":5}],"queries":[{"query":"b"}]}`,
	`{"queries":[{"query":"a"},{"query":"b"},{"query":"c"}],"queries":[{}],"queries":[{},{},{},{},{}]}`,
	`{"queries":[{"k":1}],"queries":[],"queries":[{}]}`, `{"queries":[{"k":1}],"queries":null,"queries":[{}]}`,
	`{"queries":null}`, `{"queries":[]}`, `{"queries":[null,{"query":"a"}]}`, `{"queries":{}}`, `{"queries":[1]}`,
	`{"Queries":[{"QUERY":"x","\u212a":3}]}`, `{"queries":[{"query":"a"},]}`, `{"queries":[{"query":"a"}}`,
}

// FuzzDecodeRequest holds the server's request decoders to
// json.NewDecoder(…).Decode, the reader they replaced: over any body
// under the cap, the same accept or refuse decision, and on acceptance
// reflect.DeepEqual values.
func FuzzDecodeRequest(f *testing.F) {
	golden, err := os.ReadFile("testdata/batch_request.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, r := range requestSeeds {
		f.Add([]byte(r))
	}
	for _, depth := range []int{maxNesting - 1, maxNesting, maxNesting + 1} {
		f.Add([]byte(`{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `,"query":"a"}`))
		f.Add([]byte(`{"queries":[{"x":` + strings.Repeat("[", depth-3) + strings.Repeat("]", depth-3) + `}]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxSearchBody {
			return
		}
		var got, want SearchRequest
		gotErr := decodeSearchRequest(bytes.NewReader(body), &got)
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeSearchRequest error %v, json.Decoder error %v\n%q", gotErr, wantErr, body)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeSearchRequest = %+v\njson.Decoder = %+v\n%q", got, want, body)
		}
		var gotBatch, wantBatch BatchSearchRequest
		gotErr = decodeBatchRequest(bytes.NewReader(body), &gotBatch)
		wantErr = json.NewDecoder(bytes.NewReader(body)).Decode(&wantBatch)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeBatchRequest error %v, json.Decoder error %v\n%q", gotErr, wantErr, body)
		}
		if gotErr == nil && !reflect.DeepEqual(gotBatch, wantBatch) {
			t.Fatalf("decodeBatchRequest = %+v\njson.Decoder = %+v\n%q", gotBatch, wantBatch, body)
		}
	})
}

// TestDecodeCoversEveryField fails when SearchRequest,
// BatchSearchRequest, SearchResponse, SearchHit, vsm.ExecStats or
// vsm.ShardStatus gains a field the hand-written decoders do not read:
// with every field set, json.Marshal writes it and the decoder leaves it
// zero.
func TestDecodeCoversEveryField(t *testing.T) {
	var r SearchResponse
	fillNonZero(reflect.ValueOf(&r).Elem())
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got SearchResponse
	if err := decodeResponse(body, &got); err != nil || !reflect.DeepEqual(got, r) {
		t.Errorf("decodeResponse(%s) = %+v, %v", body, got, err)
	}
	var batch BatchSearchRequest
	fillNonZero(reflect.ValueOf(&batch).Elem())
	if body, err = json.Marshal(batch); err != nil {
		t.Fatal(err)
	}
	var gotBatch BatchSearchRequest
	if err := decodeBatchRequest(bytes.NewReader(body), &gotBatch); err != nil || !reflect.DeepEqual(gotBatch, batch) {
		t.Errorf("decodeBatchRequest(%s) = %+v, %v", body, gotBatch, err)
	}
	if body, err = json.Marshal(batch.Queries[0]); err != nil {
		t.Fatal(err)
	}
	var gotReq SearchRequest
	if err := decodeSearchRequest(bytes.NewReader(body), &gotReq); err != nil || !reflect.DeepEqual(gotReq, batch.Queries[0]) {
		t.Errorf("decodeSearchRequest(%s) = %+v, %v", body, gotReq, err)
	}
}

// TestRequestBodyCaps pins the body ceilings of both search endpoints:
// a body of exactly the cap is served, one a byte past it is a 400 that
// logs nothing — also when its first JSON value ends well before the
// cap and only white space runs past it, a body json.Decoder could
// answer (see wire.go).
func TestRequestBodyCaps(t *testing.T) {
	f := getFixture(t)
	for _, ep := range []struct {
		path string
		max  int
		body func(pad string) string
		logs int
	}{
		{"/search", maxSearchBody, func(pad string) string { return `{"query":"market","pad":"` + pad + `"}` }, 1},
		{"/search/batch", maxBatchBody, func(pad string) string {
			return `{"queries":[{"query":"market"},{"query":"shares"}],"pad":"` + pad + `"}`
		}, 2},
	} {
		fill := ep.max - len(ep.body(""))
		for _, tc := range []struct {
			name, body string
			status     int
		}{
			{"at the cap", ep.body(strings.Repeat("x", fill)), http.StatusOK},
			{"a byte past the cap", ep.body(strings.Repeat("x", fill+1)), http.StatusBadRequest},
			{"first value inside the cap, white space past it", ep.body("") + strings.Repeat(" ", fill+1), http.StatusBadRequest},
		} {
			f.server.ResetLog()
			resp, err := http.Post(f.ts.URL+ep.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("%s %s: %v", ep.path, tc.name, err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			wantLogs := ep.logs
			if tc.status != http.StatusOK {
				wantLogs = 0
				if !strings.Contains(string(msg), "bad request: http: request body too large") {
					t.Errorf("%s %s: body %q", ep.path, tc.name, msg)
				}
			}
			if resp.StatusCode != tc.status || len(f.server.QueryLog()) != wantLogs {
				t.Errorf("%s %s (%d bytes): status %d and %d log entries, want %d and %d",
					ep.path, tc.name, len(tc.body), resp.StatusCode, len(f.server.QueryLog()), tc.status, wantLogs)
			}
		}
	}
}

// TestQueryLogNeverAliasesARequestBuffer: request bodies are read into
// pooled buffers — the pool replies are built in — and the query log,
// the adversary's artifact, must read what was posted after later
// requests reuse them. A decoder that handed out views of the buffer
// instead of copies fails here.
func TestQueryLogNeverAliasesARequestBuffer(t *testing.T) {
	f := getFixture(t)
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(f.ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	want := []string{"market shares", "stock trading", "apache helicopter"}
	post("/search/batch", `{"queries":[{"query":"`+want[0]+`"},{"query":"`+want[1]+`"}]}`)
	post("/search", `{"query":"`+want[2]+`"}`)
	logged := f.server.QueryLog()
	for round := 0; round < 8; round++ {
		post("/search/batch", `{"queries":[{"query":"zzzzzz zzzzzz"},{"query":"yyyyy yyyyyyy"}]}`)
		post("/search", `{"query":"xxxxxx xxxxxxxxxx"}`)
	}
	now := f.server.QueryLog()
	for i, q := range want {
		if logged[i].Query != q || now[i].Query != q {
			t.Fatalf("log entry %d reads %q, then %q; %q was posted", i, logged[i].Query, now[i].Query, q)
		}
	}
}

// TestDecodeBatchAllocatesOnlyTheKeptMember: checking a whole reply and
// skipping its ghosts costs no heap, so keep-one allocates what
// decodeResponse of the kept member does, and the result slice.
func TestDecodeBatchAllocatesOnlyTheKeptMember(t *testing.T) {
	body, rs := recordedReply(t, "batch_reply_10x10.json")
	member := recordedMember(t, body, 4)
	alone := testing.AllocsPerRun(20, func() {
		var sr SearchResponse
		if err := decodeResponse(member, &sr); err != nil {
			t.Fatal(err)
		}
	})
	keepOne := testing.AllocsPerRun(20, func() {
		if _, err := decodeBatch(body, len(rs), 4); err != nil {
			t.Fatal(err)
		}
	})
	if keepOne > alone+1 {
		t.Errorf("decodeBatch keeping one member allocated %v times; the member alone takes %v, and the result slice 1", keepOne, alone)
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
// SearchCycle (keep-one) and SubmitBatch (keep-all) do it; one member of
// it decoded as a /search reply (plain); and the golden 7-member cycle
// request decoded as the server does it (request). allocs/op is gated in
// CI (cmd/benchjson); bytes/cycle is the reply's size.
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
	b.Run("decode/plain", func(b *testing.B) {
		member := recordedMember(b, body, 4)
		plain := append(member[:len(member):len(member)], '\n')
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sr SearchResponse
			if err := decodeResponse(plain, &sr); err != nil {
				b.Fatal(err)
			}
			benchSink += len(sr.Hits)
		}
		b.ReportMetric(float64(len(plain)), "bytes/reply")
	})
	b.Run("decode/request", func(b *testing.B) {
		request, err := os.ReadFile("testdata/batch_request.golden")
		if err != nil {
			b.Fatal(err)
		}
		r := bytes.NewReader(request)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(request)
			var batch BatchSearchRequest
			if err := decodeBatchRequest(r, &batch); err != nil {
				b.Fatal(err)
			}
			benchSink += len(batch.Queries)
		}
		b.ReportMetric(float64(len(request)), "bytes/request")
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
