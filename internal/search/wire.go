package search

// The public hop's JSON, written and read without reflection.
//
// POST /search and POST /search/batch are the public API and stay JSON:
// the struct tags on SearchRequest, SearchResponse, SearchHit,
// vsm.ExecStats and vsm.ShardStatus remain the documented schema, and
// they are the oracle this file is held to — FuzzAppendResponse compares
// every reply written here with json.Encoder's byte for byte, and
// TestAppendCoversEveryField fails when one of those structs gains a
// field the encoder does not write. A cycle is υ ≈ 10 members out and υ
// hit lists back, of which the client keeps one (Step 4 of Fig. 1), so
// the two costs worth removing are the server reflecting over every hit
// row and the client materialising nine hit lists it drops.
//
// Server half (appendResponse, appendBatchResponse). The rules are
// encoding/json's, copied:
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
// The opt-in "trace" member goes through json.Marshal: it is cold.
//
// Client half (batchMembers, decodeBatch). The reply is read to EOF
// under maxReplyBody, validated in full by a walker that accepts exactly
// what json.Valid accepts of a top-level object (FuzzBatchMembers), and
// only the members the caller keeps are handed to json.Unmarshal — so a
// kept member is decoded by encoding/json as it always was, and a
// ghost's hits are checked for syntax and never built. One deliberate
// tightening: the walker finds the member list under the literal
// lower-case key "responses", the spelling the server writes, where
// encoding/json would also take "Responses" or "\u0072esponses"; a body
// spelled that way now reads as zero responses. Bytes after the object
// other than white space are refused, where json.Decoder left them
// unread.
//
// Request bodies are appended with the same string rules and are the
// bytes json.Marshal wrote. The server's request decoder is *not*
// hand-written: it parses untrusted input from anyone who can reach the
// port, encoding/json's decoder is the hardened one, and at ≈ 0.5 s of
// 21 s in the client_bound profile it is not where the hop's time goes.
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

// wireBufs pools the buffers replies are built in (server) and read
// into (client). A request body is never pooled: net/http may still be
// reading it after Do returns.
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

// readReply reads one reply body into buf, to EOF — so that the
// keep-alive connection is reused — and refuses one past limit bytes
// (maxReplyBody for every reply but a document's). The buffer grows as
// bytes arrive, never ahead of them.
func readReply(r io.Reader, buf []byte, limit int) ([]byte, error) {
	// One byte past the cap, so that an over-long reply is seen to be
	// one instead of being cut to something that might parse.
	r = io.LimitReader(r, int64(limit)+1)
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf, fmt.Errorf("reply exceeds the client's cap of %d bytes", limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// unmarshalReply reads a reply body through a pooled buffer, under
// maxReplyBody, and unmarshals it into v.
func unmarshalReply(body io.Reader, v any) error {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	var err error
	if *bp, err = readReply(body, *bp, maxReplyBody); err != nil {
		return err
	}
	return json.Unmarshal(*bp, v)
}

// decodeBatch validates body as a /search/batch reply of want members
// and decodes member only, or every member when only < 0; the others
// stay zero. Nothing returned aliases body.
func decodeBatch(body []byte, want, only int) ([]SearchResponse, error) {
	spans := make([]span, want)
	n, err := batchMembers(body, spans)
	if err != nil {
		return nil, err
	}
	if n != want {
		return nil, fmt.Errorf("server returned %d responses for %d queries", n, want)
	}
	out := make([]SearchResponse, want)
	for i, sp := range spans {
		if only >= 0 && i != only {
			continue
		}
		if err := json.Unmarshal(body[sp.start:sp.end], &out[i]); err != nil {
			return nil, fmt.Errorf("response %d: %w", i, err)
		}
	}
	return out, nil
}

// span is the byte range [start, end) of one JSON value in a reply.
type span struct{ start, end int }

// maxNesting is json.Valid's bound on open objects and arrays.
const maxNesting = 10000

func syntaxError(i int) error {
	return fmt.Errorf("invalid JSON in reply at byte %d", i)
}

// batchMembers checks that body is one JSON object and nothing else —
// by json.Valid's grammar, all of it — and records where each element
// of its "responses" array lies: the first len(spans) in spans, and
// how many there are in n (of the last such key, if a hostile body has
// several; 0 if its value is not an array). It allocates nothing.
func batchMembers(body []byte, spans []span) (n int, err error) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return 0, fmt.Errorf("reply is not a JSON object")
	}
	i, done := enter(body, i, '}')
	for !done {
		isResponses := bytes.HasPrefix(body[i:], []byte(`"responses"`))
		if i, err = skipKey(body, i); err != nil {
			return 0, err
		}
		if isResponses {
			n = 0
		}
		if isResponses && i < len(body) && body[i] == '[' {
			var last bool
			i, last = enter(body, i, ']')
			for !last {
				start := i
				// Depth 2: inside the reply object and this array.
				if i, err = skipValue(body, i, 2); err != nil {
					return 0, err
				}
				if n < len(spans) {
					spans[n] = span{start, i}
				}
				n++
				if i, last, err = after(body, i, ']'); err != nil {
					return 0, err
				}
			}
		} else if i, err = skipValue(body, i, 1); err != nil {
			return 0, err
		}
		if i, done, err = after(body, i, '}'); err != nil {
			return 0, err
		}
	}
	if i = skipSpace(body, i); i != len(body) {
		return 0, fmt.Errorf("reply has trailing bytes after the JSON object at byte %d", i)
	}
	return n, nil
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

// skipKey steps over an object key at b[i] and its colon, to the value.
func skipKey(b []byte, i int) (int, error) {
	if i == len(b) || b[i] != '"' {
		return i, syntaxError(i)
	}
	i, err := skipString(b, i)
	if err != nil {
		return i, err
	}
	if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
		return i, syntaxError(i)
	}
	return skipSpace(b, i+1), nil
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
			return i, fmt.Errorf("reply nests deeper than %d at byte %d", maxNesting, i)
		}
		closer := c + 2 // '{'+2 == '}', '['+2 == ']'
		i, done := enter(b, i, closer)
		for !done {
			if c == '{' {
				if i, err = skipKey(b, i); err != nil {
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
