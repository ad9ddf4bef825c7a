package search

// The public hop's JSON, written and read without reflection.
//
// POST /search and POST /search/batch are the public API and stay JSON:
// the struct tags on SearchRequest, BatchSearchRequest, SearchResponse,
// SearchHit, vsm.ExecStats and vsm.ShardStatus remain the documented
// schema, and encoding/json is the oracle this file is held to, in its
// tests only. FuzzAppendResponse compares every reply written here with
// json.Encoder's byte for byte; FuzzDecodeRequest holds the request
// decoders to json.Decoder and FuzzBatchMembers the reply decoders to
// json.Unmarshal, verdict for verdict and value for value;
// TestAppendCoversEveryField and TestDecodeCoversEveryField fail when
// one of those structs gains a field this file does not write or read.
// A cycle is υ ≈ 10 members out and υ hit lists back, of which the
// client keeps one (Step 4 of Fig. 1).
//
// Encoders (appendResponse, appendBatchResponse, appendBatchRequest).
// The rules are encoding/json's, copied:
//
//   - Strings: HTML escaping is on, as it is for json.Encoder and
//     json.Marshal — '<', '>' and '&' become \u003c, \u003e, \u0026; '"'
//     and '\' are backslash-escaped; \b \f \n \r \t use their short
//     forms and every other byte below 0x20 is \u00XX; a byte that is
//     not valid UTF-8 becomes the six characters \ufffd; U+2028 and
//     U+2029 become \u2028 and \u2029; everything else, DEL included, is
//     copied.
//   - Floats: the shortest representation that round-trips, in 'f'
//     form, except 'e' form below 1e-6 and from 1e21 up, where a
//     two-digit negative exponent loses its leading zero (e-09 → e-9;
//     positive exponents keep theirs, e+21). NaN and ±Inf have no JSON
//     form: the encoder returns an error and the handler answers 500
//     before a byte is written, as json.Encoder did.
//   - Shape: a nil slice is null and an empty one [] where the tag has
//     no omitempty ("hits"); omitempty drops zero numbers, false, empty
//     strings, nil pointers and empty slices; fields come in struct
//     order; a reply ends in the newline json.Encoder appends.
//
// Decoders (decodeSearchRequest, decodeBatchRequest on the server,
// decodeResponse and decodeBatch on the client). One hand-written
// decoder per type, validating as it goes with skipValue, skipString and
// skipNumber, with encoding/json's rules copied:
//
//   - Keys: matched as encoding/json matches them, exactly or else
//     under bytes.EqualFold ("QUERY", "\u212a" — the Kelvin sign — for
//     "k", "querie\u017f" with a long s), after their escapes are
//     decoded. Unknown keys of any type are skipped; the last of
//     duplicate keys wins.
//   - null leaves a string, number, bool or struct as it was, and sets
//     a slice or pointer to nil. A second array for the same slice key
//     is decoded into the elements already there, and a pointer's
//     second object into the struct already allocated, as reflection
//     does it.
//   - Strings: \u escapes decode, surrogate pairs combine, a lone
//     surrogate and each byte that is not valid UTF-8 become U+FFFD.
//     Every string is copied out of the buffer it was read from:
//     nothing decoded aliases a pooled buffer, so a query-log entry
//     never changes under a later request.
//   - Numbers: an integer field takes only an integer literal in its
//     type's range (1.0, 1e2 and 9223372036854775808 are refused for
//     "k"); a float takes what strconv.ParseFloat takes without a
//     range error. Any value of the wrong type is refused.
//   - Nesting deeper than 10 000 is refused, as the scanner refuses it.
//
// The opt-in "trace" member is cold: the encoder hands it to
// json.Marshal and the decoder its span to json.Unmarshal.
//
// Server side. A request body is read whole into a pooled buffer under
// maxSearchBody or maxBatchBody, and its first JSON value decoded;
// bytes after that value are ignored, as json.Decoder ignored them. One
// deliberate tightening: a body past the cap is refused whole (400, and
// nothing logged), even when its first value ends before the cap, where
// json.Decoder answered it if that value happened to arrive in a read
// that stopped short of the cap. A refusal is a 400 as before; only the
// text after "bad request: " differs from encoding/json's.
//
// Client side. A reply is read to EOF under maxReplyBody and decoded
// whole, by the same rules, refused as json.Unmarshal refuses it if
// anything but white space follows it. A /search/batch reply must be an
// object; its "responses" key folds like every other, and the last
// "responses" array names the members, as encoding/json reads it into
// []json.RawMessage. Only the members the caller keeps are decoded —
// a ghost's hits are checked by skipValue and never built.
//
// Nothing here is visible to the engine's log: request and reply bytes
// are what encoding/json produced, and which member the client decodes
// never leaves the client.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"toppriv/internal/vsm"
)

// maxReplyBody bounds what the client reads of one reply: the largest
// batch a default server accepts at its largest k, DefaultMaxBatch ×
// DefaultMaxK = 64 000 hit rows, at 256 bytes a row — 58 for the
// longest {"doc":…,"score":…,"title":""}, and ≈ 200 of escaped title —
// with the per-member stats and shard statuses lost in the rounding:
// 16 384 000 bytes. A server configured past both defaults with long
// titles can exceed it; the client then reports the cap instead of
// growing without limit.
const maxReplyBody = DefaultMaxBatch * DefaultMaxK * 256

// wireBufs pools the buffers replies are built in and requests read
// into (server), and replies are read into (client). A request body the
// client sends is never pooled: net/http may still be reading it after
// Do returns.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeWire answers a search endpoint with what encode appends and the
// newline json.Encoder ends a value with, from a pooled buffer and with
// Content-Length set, so the reply is one write and not chunked. A value
// with no JSON form is a 500 with nothing written.
func writeWire(w http.ResponseWriter, encode func([]byte) ([]byte, error)) {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	var err error
	if *bp, err = encode((*bp)[:0]); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	*bp = append(*bp, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	// A write error means the client went away; there is no one to tell.
	_, _ = w.Write(*bp)
}

const hexDigits = "0123456789abcdef"

// appendEscaped appends s escaped as the inside of a JSON string.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...)
}

func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendEscaped(dst, s)
	return append(dst, '"')
}

func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendOmitEmpty appends ,"name":v for a non-zero v.
func appendOmitEmpty(dst []byte, name string, v int) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, name...)
	return strconv.AppendInt(dst, int64(v), 10)
}

func appendStats(dst []byte, st *vsm.ExecStats) []byte {
	dst = append(dst, `{"docs_scored":`...)
	dst = strconv.AppendInt(dst, int64(st.DocsScored), 10)
	dst = appendOmitEmpty(dst, `,"docs_pruned":`, st.DocsPruned)
	dst = appendOmitEmpty(dst, `,"docs_filtered":`, st.DocsFiltered)
	dst = appendOmitEmpty(dst, `,"postings":`, st.Postings)
	dst = appendOmitEmpty(dst, `,"blocks_decoded":`, st.BlocksDecoded)
	return append(dst, '}')
}

// appendResponse appends r as json.Marshal writes it.
func appendResponse(dst []byte, r *SearchResponse) ([]byte, error) {
	dst = append(dst, `{"hits":`...)
	if r.Hits == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Hits {
			h := &r.Hits[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"doc":`...)
			dst = strconv.AppendInt(dst, int64(h.Doc), 10)
			dst = append(dst, `,"score":`...)
			var err error
			if dst, err = appendFloat(dst, h.Score); err != nil {
				return dst, err
			}
			if h.Title != "" {
				dst = append(dst, `,"title":`...)
				dst = appendString(dst, h.Title)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if r.Stats != nil {
		dst = append(dst, `,"stats":`...)
		dst = appendStats(dst, r.Stats)
	}
	if r.Trace != nil {
		trace, err := json.Marshal(r.Trace)
		if err != nil {
			return dst, err
		}
		dst = append(dst, `,"trace":`...)
		dst = append(dst, trace...)
	}
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if len(r.Shards) > 0 {
		dst = append(dst, `,"shards":[`...)
		for i := range r.Shards {
			sh := &r.Shards[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"shard":`...)
			dst = appendString(dst, sh.Shard)
			dst = append(dst, `,"ok":`...)
			dst = strconv.AppendBool(dst, sh.OK)
			if sh.Err != "" {
				dst = append(dst, `,"err":`...)
				dst = appendString(dst, sh.Err)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendBatchResponse appends BatchSearchResponse{Responses: rs} as
// json.Marshal writes it.
func appendBatchResponse(dst []byte, rs []SearchResponse) ([]byte, error) {
	dst = append(dst, `{"responses":`...)
	if rs == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendResponse(dst, &rs[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// appendRequest appends SearchRequest{Query: <terms, sorted, space-
// joined>, K: k} as json.Marshal writes it. The terms are sorted in
// scratch, which is returned for the next member to reuse.
func appendRequest(dst []byte, scratch, terms []string, k int) ([]byte, []string) {
	scratch = append(scratch[:0], terms...)
	slices.Sort(scratch)
	dst = append(dst, `{"query":"`...)
	for i, term := range scratch {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = appendEscaped(dst, term)
	}
	dst = append(dst, '"')
	dst = appendOmitEmpty(dst, `,"k":`, k)
	return append(dst, '}'), scratch
}

// appendBatchRequest appends the BatchSearchRequest of one cycle. The
// bytes are a function of the members and their order alone.
func appendBatchRequest(dst []byte, queries [][]string, k int) []byte {
	dst = append(dst, `{"queries":[`...)
	var scratch []string
	for i, terms := range queries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst, scratch = appendRequest(dst, scratch, terms, k)
	}
	return append(dst, "]}"...)
}

// readAll reads r to EOF into buf. The buffer grows as bytes arrive,
// never ahead of them.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeBatch decodes body as a /search/batch reply of want members:
// member only, or every member when only < 0; the others stay zero.
// Nothing returned aliases body.
func decodeBatch(body []byte, want, only int) ([]SearchResponse, error) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, fmt.Errorf("reply is not a JSON object")
	}
	br := batchReply{out: make([]SearchResponse, want), only: only}
	i, err := decodeObject(body, i, 0, &br, batchReplyFields, responsesField)
	if err != nil {
		return nil, err
	}
	if i = skipSpace(body, i); i != len(body) {
		return nil, fmt.Errorf("reply has trailing bytes after the JSON object at byte %d", i)
	}
	if br.n != want {
		return nil, fmt.Errorf("server returned %d responses for %d queries", br.n, want)
	}
	if br.err != nil {
		return nil, br.err
	}
	return br.out, nil
}

// batchReply is what decodeBatch has read: the members it decoded, how
// many the last "responses" array held, and its first member error.
type batchReply struct {
	out     []SearchResponse
	n, only int
	err     error
}

// responsesField reads a "responses" value, first clearing what an
// earlier one decoded, so that the last names the members: member n is
// decoded into out[n] when it is kept, and skipped otherwise. As with
// encoding/json, a kept member's type error counts (br.err) only if no
// later "responses" replaces its array; a syntax error counts anywhere.
func responsesField(b []byte, i, depth, _ int, br *batchReply) (int, error) {
	clear(br.out)
	br.n, br.err = 0, nil
	if isNull(b, i) {
		return i + 4, nil
	}
	if i == len(b) || b[i] != '[' {
		return i, wrongType(b, i, depth, "an array")
	}
	i, done := enter(b, i, ']')
	var err error
	for ; !done; br.n++ {
		var end int
		kept := br.n < len(br.out) && (br.only < 0 || br.n == br.only)
		if kept {
			end, err = decodeObject(b, i, depth+1, &br.out[br.n], responseFields, responseField)
			if err != nil && br.err == nil {
				br.err = fmt.Errorf("response %d: %w", br.n, err)
			}
		}
		if !kept || err != nil {
			if end, err = skipValue(b, i, depth+1); err != nil {
				return end, err
			}
		}
		i = end
		if i, done, err = after(b, i, ']'); err != nil {
			return i, err
		}
	}
	return i, nil
}

// maxNesting is json.Valid's bound on open objects and arrays.
const maxNesting = 10000

func nestingError(i int) error {
	return fmt.Errorf("JSON nests deeper than %d at byte %d", maxNesting, i)
}

func syntaxError(i int) error {
	return fmt.Errorf("invalid JSON at byte %d", i)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// enter steps past the bracket at b[i] that opens an object or array
// closed by closer: next is its first member, or, for an empty one
// (done), the byte after closer.
func enter(b []byte, i int, closer byte) (next int, done bool) {
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == closer {
		return i + 1, true
	}
	return i, false
}

// after steps past what follows a member ending at b[i]: a comma (next
// is the following member) or closer (done; next is the byte after it).
func after(b []byte, i int, closer byte) (next int, done bool, err error) {
	i = skipSpace(b, i)
	switch {
	case i == len(b):
		return i, false, syntaxError(i)
	case b[i] == ',':
		return skipSpace(b, i+1), false, nil
	case b[i] == closer:
		return i + 1, true, nil
	}
	return i, false, syntaxError(i)
}

// skipKey steps over an object key at b[i] and its colon, to the value
// at next. raw is what lies between the key's quotes, escapes as they
// are.
func skipKey(b []byte, i int) (raw []byte, next int, err error) {
	if i == len(b) || b[i] != '"' {
		return nil, i, syntaxError(i)
	}
	end, err := skipString(b, i)
	if err != nil {
		return nil, end, err
	}
	if next = skipSpace(b, end); next == len(b) || b[next] != ':' {
		return nil, next, syntaxError(next)
	}
	return b[i+1 : end-1], skipSpace(b, next+1), nil
}

// skipValue steps over the JSON value that starts at b[i], depth open
// containers down, and returns the index of the byte after it. It
// accepts what json.Valid accepts.
func skipValue(b []byte, i, depth int) (int, error) {
	if i == len(b) {
		return i, syntaxError(i)
	}
	var err error
	switch c := b[i]; {
	case c == '{' || c == '[':
		if depth == maxNesting {
			return i, nestingError(i)
		}
		closer := c + 2 // '{'+2 == '}', '['+2 == ']'
		i, done := enter(b, i, closer)
		for !done {
			if c == '{' {
				if _, i, err = skipKey(b, i); err != nil {
					return i, err
				}
			}
			if i, err = skipValue(b, i, depth+1); err != nil {
				return i, err
			}
			if i, done, err = after(b, i, closer); err != nil {
				return i, err
			}
		}
		return i, nil
	case c == '"':
		return skipString(b, i)
	case c == '-' || '0' <= c && c <= '9':
		return skipNumber(b, i)
	case c == 't':
		return skipLiteral(b, i, "true")
	case c == 'f':
		return skipLiteral(b, i, "false")
	case c == 'n':
		return skipLiteral(b, i, "null")
	}
	return i, syntaxError(i)
}

func skipLiteral(b []byte, i int, lit string) (int, error) {
	if !bytes.HasPrefix(b[i:], []byte(lit)) {
		return i, syntaxError(i)
	}
	return i + len(lit), nil
}

// skipString steps over the string whose opening quote is b[i]. Like
// json.Valid it checks escapes and control bytes, not UTF-8.
func skipString(b []byte, i int) (int, error) {
	for i++; i < len(b); i++ {
		if plainInString[b[i]] {
			continue
		}
		switch c := b[i]; {
		case c == '"':
			return i + 1, nil
		case c < 0x20:
			return i, syntaxError(i)
		case c == '\\':
			i++
			if i == len(b) {
				return i, syntaxError(i)
			}
			switch b[i] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
			case 'u':
				for end := i + 4; i < end; {
					i++
					if i == len(b) || !isHex(b[i]) {
						return i, syntaxError(i)
					}
				}
			default:
				return i, syntaxError(i)
			}
		}
	}
	return i, syntaxError(i)
}

// plainInString marks the bytes a string holds as they are: all but
// '"', '\' and those below 0x20.
var plainInString = func() (t [256]bool) {
	for c := 0x20; c < len(t); c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skipNumber steps over -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// at b[i].
func skipNumber(b []byte, i int) (int, error) {
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return i, syntaxError(i)
	}
	if i < len(b) && b[i] == '.' {
		start := i + 1
		if i = skipDigits(b, start); i == start {
			return i, syntaxError(i)
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = skipDigits(b, start); i == start {
			return i, syntaxError(i)
		}
	}
	return i, nil
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// decodeSearchRequest reads a /search body to EOF into a pooled buffer
// and decodes its first JSON value into req, as json.Decoder.Decode
// does. The caller bounds body (http.MaxBytesReader at maxSearchBody).
func decodeSearchRequest(body io.Reader, req *SearchRequest) error {
	return readRequest(body, req, decodeRequest)
}

// decodeBatchRequest is decodeSearchRequest for a /search/batch body
// (maxBatchBody).
func decodeBatchRequest(body io.Reader, batch *BatchSearchRequest) error {
	return readRequest(body, batch, decodeBatchObject)
}

// readRequest reads body whole into a pooled buffer and decodes its
// first JSON value into v. Nothing decoded aliases the buffer.
func readRequest[T any](body io.Reader, v *T, decode func(b []byte, i, depth int, v *T) (int, error)) error {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	var err error
	if *bp, err = readAll(body, *bp); err != nil {
		return err
	}
	// What follows the first value is not read.
	_, err = decode(*bp, skipSpace(*bp, 0), 0, v)
	return err
}

// decodeResponse decodes one /search reply, or one member of a
// /search/batch reply, into r as json.Unmarshal does: the whole of b,
// white space aside, must be the one value.
func decodeResponse(b []byte, r *SearchResponse) error {
	i, err := decodeObject(b, skipSpace(b, 0), 0, r, responseFields, responseField)
	if err != nil {
		return err
	}
	if i = skipSpace(b, i); i != len(b) {
		return syntaxError(i)
	}
	return nil
}

// The field names of each decoded struct, in the order its field
// function numbers them.
var (
	requestFields    = []string{"query", "k", "trace"}
	batchFields      = []string{"queries"}
	batchReplyFields = []string{"responses"}
	responseFields   = []string{"hits", "stats", "trace", "degraded", "shards"}
	hitFields        = []string{"doc", "score", "title"}
	statsFields      = []string{"docs_scored", "docs_pruned", "docs_filtered", "postings", "blocks_decoded"}
	shardFields      = []string{"shard", "ok", "err"}
)

func decodeRequest(b []byte, i, depth int, req *SearchRequest) (int, error) {
	return decodeObject(b, i, depth, req, requestFields, requestField)
}

func requestField(b []byte, i, depth, f int, req *SearchRequest) (int, error) {
	switch f {
	case 0:
		return decodeString(b, i, depth, &req.Query)
	case 1:
		return decodeInt(b, i, depth, &req.K)
	}
	return decodeBool(b, i, depth, &req.Trace)
}

func decodeBatchObject(b []byte, i, depth int, batch *BatchSearchRequest) (int, error) {
	return decodeObject(b, i, depth, batch, batchFields, batchField)
}

func batchField(b []byte, i, depth, _ int, batch *BatchSearchRequest) (int, error) {
	return decodeArray(b, i, depth, &batch.Queries, decodeRequest)
}

func responseField(b []byte, i, depth, f int, r *SearchResponse) (int, error) {
	switch f {
	case 0:
		return decodeArray(b, i, depth, &r.Hits, decodeHit)
	case 1:
		return decodePointer(b, i, depth, &r.Stats, decodeStats)
	case 2:
		end, err := skipValue(b, i, depth)
		if err != nil {
			return end, err
		}
		if err := json.Unmarshal(b[i:end], &r.Trace); err != nil {
			return i, err
		}
		return end, nil
	case 3:
		return decodeBool(b, i, depth, &r.Degraded)
	}
	return decodeArray(b, i, depth, &r.Shards, decodeShard)
}

func decodeHit(b []byte, i, depth int, h *SearchHit) (int, error) {
	return decodeObject(b, i, depth, h, hitFields, hitField)
}

func hitField(b []byte, i, depth, f int, h *SearchHit) (int, error) {
	switch f {
	case 0:
		return decodeInt(b, i, depth, &h.Doc)
	case 1:
		return decodeFloat(b, i, depth, &h.Score)
	}
	return decodeString(b, i, depth, &h.Title)
}

func decodeStats(b []byte, i, depth int, st *vsm.ExecStats) (int, error) {
	return decodeObject(b, i, depth, st, statsFields, statsField)
}

func statsField(b []byte, i, depth, f int, st *vsm.ExecStats) (int, error) {
	dst := [...]*int{&st.DocsScored, &st.DocsPruned, &st.DocsFiltered, &st.Postings, &st.BlocksDecoded}[f]
	return decodeInt(b, i, depth, dst)
}

func decodeShard(b []byte, i, depth int, sh *vsm.ShardStatus) (int, error) {
	return decodeObject(b, i, depth, sh, shardFields, shardField)
}

func shardField(b []byte, i, depth, f int, sh *vsm.ShardStatus) (int, error) {
	switch f {
	case 0:
		return decodeString(b, i, depth, &sh.Shard)
	case 1:
		return decodeBool(b, i, depth, &sh.OK)
	}
	return decodeString(b, i, depth, &sh.Err)
}

// decodeObject decodes the object at b[i], inside depth open
// containers, into v: field(b, at, depth, f, v) decodes the value at
// b[at] of the key that matched names[f], and every other key's value
// is skipped. null leaves v as it was. It returns the index of the byte
// after the value.
func decodeObject[T any](b []byte, i, depth int, v *T, names []string, field func(b []byte, i, depth, f int, v *T) (int, error)) (int, error) {
	if isNull(b, i) {
		return i + 4, nil
	}
	if i == len(b) || b[i] != '{' {
		return i, wrongType(b, i, depth, "an object")
	}
	if depth == maxNesting {
		return i, nestingError(i)
	}
	i, done := enter(b, i, '}')
	var err error
	for !done {
		var f int
		if f, i, err = objectKey(b, i, names); err != nil {
			return i, err
		}
		if f < 0 {
			i, err = skipValue(b, i, depth+1)
		} else {
			i, err = field(b, i, depth+1, f, v)
		}
		if err != nil {
			return i, err
		}
		if i, done, err = after(b, i, '}'); err != nil {
			return i, err
		}
	}
	return i, nil
}

// decodeArray decodes the array at b[i] into *s as reflection does:
// element n is decoded into (*s)[n] where it exists, so a second array
// for the same key lands on the first one's elements, and the slice is
// then cut to the array's length — to a new empty slice for [], to nil
// for null.
func decodeArray[T any](b []byte, i, depth int, s *[]T, elem func(b []byte, i, depth int, v *T) (int, error)) (int, error) {
	if isNull(b, i) {
		*s = nil
		return i + 4, nil
	}
	if i == len(b) || b[i] != '[' {
		return i, wrongType(b, i, depth, "an array")
	}
	if depth == maxNesting {
		return i, nestingError(i)
	}
	v, n := *s, 0
	i, done := enter(b, i, ']')
	var err error
	for !done {
		if n == len(v) {
			if n == cap(v) {
				// Growing only a full slice keeps what lies past its
				// length, so the policy need not be reflection's. The
				// first allocation takes a default cycle's 10 hits in
				// two steps, a router's shard list in one.
				v = slices.Grow(v, max(n, 8))
			}
			v = v[:n+1]
		}
		if i, err = elem(b, i, depth+1, &v[n]); err != nil {
			return i, err
		}
		n++
		if i, done, err = after(b, i, ']'); err != nil {
			return i, err
		}
	}
	if n == 0 {
		v = []T{}
	}
	*s = v[:n]
	return i, nil
}

// decodePointer decodes the object at b[i] into **p, allocating *p only
// when it is nil; null sets *p to nil.
func decodePointer[T any](b []byte, i, depth int, p **T, decode func(b []byte, i, depth int, v *T) (int, error)) (int, error) {
	if isNull(b, i) {
		*p = nil
		return i + 4, nil
	}
	if i == len(b) || b[i] != '{' {
		return i, wrongType(b, i, depth, "an object")
	}
	if *p == nil {
		*p = new(T)
	}
	return decode(b, i, depth, *p)
}

// decodeString decodes the string at b[i] into a copy in *dst.
func decodeString(b []byte, i, depth int, dst *string) (int, error) {
	if i == len(b) || b[i] != '"' {
		if isNull(b, i) {
			return i + 4, nil
		}
		return i, wrongType(b, i, depth, "a string")
	}
	end, err := skipString(b, i)
	if err != nil {
		return end, err
	}
	raw := b[i+1 : end-1]
	for _, c := range raw {
		if c == '\\' || c >= utf8.RuneSelf {
			var scratch [64]byte
			*dst = string(appendUnquoted(scratch[:0], raw))
			return end, nil
		}
	}
	*dst = string(raw)
	return end, nil
}

// decodeInt decodes the integer literal at b[i] into *dst. A fraction,
// an exponent or a value outside T's range is the wrong type, as for
// json.Unmarshal.
func decodeInt[T ~int | ~int32](b []byte, i, depth int, dst *T) (int, error) {
	if isNull(b, i) {
		return i + 4, nil
	}
	if i == len(b) || b[i] != '-' && (b[i] < '0' || b[i] > '9') {
		return i, wrongType(b, i, depth, "an integer")
	}
	end, err := skipNumber(b, i)
	if err != nil {
		return end, err
	}
	n, ok := parseInt(b[i:end])
	if !ok || int64(T(n)) != n {
		return i, wrongType(b, i, depth, "an integer in range")
	}
	*dst = T(n)
	return end, nil
}

// parseInt is strconv.ParseInt(lit, 10, 64) over a JSON number literal.
func parseInt(lit []byte) (int64, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range lit {
		d := uint64(c - '0')
		if d > 9 || u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// decodeFloat decodes the number at b[i] into *dst; one out of
// float64's range is the wrong type, as for json.Unmarshal.
func decodeFloat(b []byte, i, depth int, dst *float64) (int, error) {
	if isNull(b, i) {
		return i + 4, nil
	}
	if i == len(b) || b[i] != '-' && (b[i] < '0' || b[i] > '9') {
		return i, wrongType(b, i, depth, "a number")
	}
	end, err := skipNumber(b, i)
	if err != nil {
		return end, err
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil {
		return i, wrongType(b, i, depth, "a number in range")
	}
	*dst = f
	return end, nil
}

func decodeBool(b []byte, i, depth int, dst *bool) (int, error) {
	switch {
	case bytes.HasPrefix(b[i:], []byte("true")):
		*dst = true
		return i + 4, nil
	case bytes.HasPrefix(b[i:], []byte("false")):
		*dst = false
		return i + 5, nil
	case isNull(b, i):
		return i + 4, nil
	}
	return i, wrongType(b, i, depth, "a boolean")
}

func isNull(b []byte, i int) bool {
	return len(b)-i >= 4 && string(b[i:i+4]) == "null"
}

// wrongType refuses the value at b[i] for its type — or for its syntax,
// when it is not valid JSON either.
func wrongType(b []byte, i, depth int, want string) error {
	if _, err := skipValue(b, i, depth); err != nil {
		return err
	}
	return fmt.Errorf("JSON value at byte %d is not %s", i, want)
}

// objectKey reads the object key at b[i] and its colon. f is the index
// in names of the field it matches — exactly, or else, its escapes
// decoded, under bytes.EqualFold, which is encoding/json's rule — or
// -1; next is where the value starts.
func objectKey(b []byte, i int, names []string) (f, next int, err error) {
	raw, next, err := skipKey(b, i)
	if err != nil {
		return -1, next, err
	}
	for f, name := range names {
		if string(raw) == name {
			return f, next, nil
		}
	}
	var scratch [32]byte
	key := appendUnquoted(scratch[:0], raw)
	for f, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return f, next, nil
		}
	}
	return -1, next, nil
}

// appendUnquoted appends the string whose inside is raw — already
// checked by skipString — with its escapes decoded: a surrogate pair
// combines, a lone surrogate and each byte that is not valid UTF-8
// become U+FFFD.
func appendUnquoted(dst, raw []byte) []byte {
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			switch e := raw[r+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				cp := hex4(raw[r+2:])
				r += 6
				if utf16.IsSurrogate(cp) && r+1 < len(raw) && raw[r] == '\\' && raw[r+1] == 'u' {
					if pair := utf16.DecodeRune(cp, hex4(raw[r+2:])); pair != unicode.ReplacementChar {
						cp = pair
						r += 6
					}
				}
				// A lone surrogate is not a rune: AppendRune writes U+FFFD.
				dst = utf8.AppendRune(dst, cp)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			cp, n := utf8.DecodeRune(raw[r:])
			dst = utf8.AppendRune(dst, cp)
			r += n
		}
	}
	return dst
}

// hex4 is the code point spelled by the four hex digits at h[0:4].
func hex4(h []byte) rune {
	var cp rune
	for _, c := range h[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		cp = cp<<4 | rune(c)
	}
	return cp
}
