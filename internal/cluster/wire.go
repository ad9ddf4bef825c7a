package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"toppriv/internal/corpus"
	"toppriv/internal/frame"
	"toppriv/internal/index"
	"toppriv/internal/segment"
	"toppriv/internal/vsm"
)

// The /cluster/* wire schema. Shards speak pre-analyzed terms, global
// document IDs and cluster-merged statistics; raw query text never
// reaches a shard (the router analyzes once), and store-local document
// IDs never leave one.
//
// A router reaches a shard one way: it opens a stream with GET
// /cluster/stream, Connection: Upgrade, and an Upgrade token naming the
// stream's kind (streamKind): toppriv-cycle for query cycles,
// toppriv-mutation for mutations, toppriv-control for the shard's stats
// table and its documents. The shard answers 101 Switching Protocols and
// takes the connection over. From then on the connection carries one
// exchange at a time, one request frame (package frame) from the router
// and one reply frame back, and the router keeps it open for later
// exchanges. A mutation is one frame (see appendMutation) answered with
// one stats frame (see appendStats); a control request is one frame (see
// appendControl) answered with the whole stats table or one document. A
// cycle's request carries what a cycle is: one collection, the cycle's
// distinct terms, and the members as references into them.
//
// Request payload:
//
//	uvarint docs           merged live document count N    ┐ the statistics snapshot,
//	uvarint total_len      merged analyzed token count     ┘ once for the whole cycle
//	uvarint terms          number of distinct terms
//	terms × {
//	    uvarint n, n bytes the term
//	    uvarint df         its merged document frequency (0: unseen)
//	}                      in order of first occurrence over the members
//	uvarint members
//	members × {            in submission order
//	    uvarint k
//	    uvarint refs
//	    refs × uvarint     index into the term table: the member's terms
//	}                      in wire order, repeats included
//
// Reply payload:
//
//	uvarint members        the request's, in the request's order
//	members × {
//	    uvarint docs_scored, docs_filtered, postings, blocks_decoded
//	    uvarint hits
//	    hits × {
//	        uvarint gid
//	        8 bytes        math.Float64bits(score), little-endian
//	    }                  best first
//	}
//
// A request the shard cannot answer — a frame whose payload does not
// decode, a member that fails Request.Validate, a mutation the shard
// refuses, a document it does not hold, a scan that fails — is answered
// with a refusal frame, and the stream stays open:
//
//	uvarint 0              no members, version 0 or gid 0: a frame is read as a refusal once it fails as a reply
//	uvarint status         the HTTP status of the refusal: 400 for the request, 500 for the shard, …
//	uvarint n, n bytes     the message
//
// A frame cut short, longer than its kind's bound, failing its CRC, or
// followed by bytes before its reply was written (a router never sends
// any) loses the stream's framing: the shard answers it with a refusal
// and closes the stream.
//
// A frame has one encoding: a padded uvarint, a term listed twice or out
// of first-occurrence order or never referenced, and bytes after the
// payload are all refused, so equal terms carry equal df by construction
// and the bytes are a function of the member sequence alone. Nothing in
// a frame tells the genuine query from its ghosts.
//
// There is one version and no negotiation: a shard answers
// GET /cluster/stream with any other Upgrade token, or none, with 426
// Upgrade Required, so a router and its shards upgrade together.

const (
	// maxBatchRequest and maxBatchReply bound the frame a shard reads
	// from a router and a router from a shard. A cycle of 64 members
	// asking 1000 hits each answers in under 1 MiB.
	maxBatchRequest = 4 << 20
	maxBatchReply   = 16 << 20
)

// A streamKind is what the streams of one Upgrade token carry: the name
// their frames go by in errors, the shard's handler for a request frame
// (see Shard.serve), and the payload bounds of a request and a reply.
type streamKind struct {
	token, name          string
	handle               func(s *Shard, frame []byte) ([]byte, int, error)
	maxRequest, maxReply int
	// bufs pools the buffers the kind's frames are read into and replies
	// built in: a cycle never takes one a mutation's documents grew.
	bufs sync.Pool
}

var (
	cycleStreams = &streamKind{token: "toppriv-cycle", name: "batch", handle: (*Shard).cycle,
		maxRequest: maxBatchRequest, maxReply: maxBatchReply, bufs: sync.Pool{New: newBuf}}
	mutationStreams = &streamKind{token: "toppriv-mutation", name: "mutation", handle: (*Shard).mutate,
		maxRequest: maxMutation, maxReply: maxStats, bufs: sync.Pool{New: newBuf}}
	controlStreams = &streamKind{token: "toppriv-control", name: "control", handle: (*Shard).control,
		maxRequest: maxControl, maxReply: maxStats, bufs: sync.Pool{New: newBuf}}
	streamKinds = map[string]*streamKind{cycleStreams.token: cycleStreams, mutationStreams.token: mutationStreams,
		controlStreams.token: controlStreams}
)

func newBuf() any { return new([]byte) }

// streamKindOf returns the kind an Upgrade token names, nil for none.
func streamKindOf(token string) *streamKind { return streamKinds[strings.ToLower(token)] }

// appendBatchRequest appends the request frame of one cycle: members
// supplies each member's Terms and K, df a term's merged document
// frequency, asked once per distinct term.
func appendBatchRequest(dst []byte, docs int, totalLen int64, members []vsm.Request, df func(term string) int) []byte {
	// Sized for the few terms a query has; cycles share most of them.
	refs := make(map[string]uint64, 4*len(members))
	table := make([]string, 0, 4*len(members))
	for i := range members {
		for _, t := range members[i].Terms {
			if _, ok := refs[t]; !ok {
				refs[t] = uint64(len(table))
				table = append(table, t)
			}
		}
	}
	start := len(dst)
	dst = append(dst, make([]byte, frame.Header)...)
	dst = binary.AppendUvarint(dst, uint64(docs))
	dst = binary.AppendUvarint(dst, uint64(totalLen))
	dst = binary.AppendUvarint(dst, uint64(len(table)))
	for _, t := range table {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = append(dst, t...)
		dst = binary.AppendUvarint(dst, uint64(df(t)))
	}
	dst = binary.AppendUvarint(dst, uint64(len(members)))
	for i := range members {
		dst = binary.AppendUvarint(dst, uint64(members[i].K))
		dst = binary.AppendUvarint(dst, uint64(len(members[i].Terms)))
		for _, t := range members[i].Terms {
			dst = binary.AppendUvarint(dst, refs[t])
		}
	}
	frame.Seal(dst[start:])
	return dst
}

// decodeBatchRequest rebuilds the cycle of a request frame as the
// requests a shard's store executes: every member's Terms and Global.DF
// are windows of one backing array each, and every Global carries the
// frame's one snapshot. Nothing returned aliases b. What comes back
// is well-formed, not yet valid: Request.Validate still judges k and
// the statistics.
func decodeBatchRequest(b []byte) ([]vsm.Request, error) {
	r, err := frame.OpenReader(b, maxBatchRequest, "cluster: batch frame")
	if err != nil {
		return nil, err
	}
	docs := r.Num()
	totalLen := r.Num()
	// Every count is checked against the bytes its elements must still
	// occupy before anything is sized by it.
	nTerms := r.Count(2)
	if r.Err != nil {
		return nil, r.Err
	}
	// One copy of the rest of the payload holds every term's bytes; the
	// terms are substrings of it.
	text := string(r.B)
	terms := make([]string, nTerms)
	dfs := make([]int, nTerms)
	seen := make(map[string]struct{}, nTerms)
	for i := range terms {
		n := r.Count(1)
		if r.Err != nil {
			return nil, r.Err
		}
		at := len(text) - len(r.B)
		terms[i] = text[at : at+n]
		r.B = r.B[n:]
		dfs[i] = r.Num()
		if _, dup := seen[terms[i]]; dup {
			r.Failf("term %d repeats an earlier term", i)
			return nil, r.Err
		}
		seen[terms[i]] = struct{}{}
	}
	nMembers := r.Count(2)
	if r.Err == nil && nMembers == 0 {
		// Not a cycle, and nothing to hang its snapshot on.
		r.Failf("no members")
	}
	if r.Err != nil {
		return nil, r.Err
	}
	// A reference takes a byte at least, a member two more.
	maxRefs := len(r.B) - 2*nMembers
	reqs := make([]vsm.Request, nMembers)
	globals := make([]vsm.GlobalStats, nMembers)
	flatTerms := make([]string, 0, maxRefs)
	flatDF := make([]int, 0, maxRefs)
	next := 0
	for i := range reqs {
		k := r.Num()
		n := r.Count(1)
		lo := len(flatTerms)
		for j := 0; j < n && r.Err == nil; j++ {
			ref := r.Num()
			if ref > next || ref >= nTerms {
				r.Failf("member %d refers to term %d, out of range or out of first-occurrence order", i, ref)
				break
			}
			if ref == next {
				next++
			}
			flatTerms = append(flatTerms, terms[ref])
			flatDF = append(flatDF, dfs[ref])
		}
		if r.Err != nil {
			return nil, r.Err
		}
		hi := len(flatTerms)
		globals[i] = vsm.GlobalStats{Docs: docs, TotalLen: int64(totalLen), DF: flatDF[lo:hi:hi]}
		reqs[i] = vsm.Request{Terms: flatTerms[lo:hi:hi], K: k, Global: &globals[i]}
	}
	if next != nTerms {
		r.Failf("%d of %d terms are never referenced", nTerms-next, nTerms)
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return reqs, nil
}

// appendBatchReply appends the reply frame for a cycle's responses,
// whose hits already carry global document IDs.
func appendBatchReply(dst []byte, resps []vsm.Response) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frame.Header)...)
	dst = binary.AppendUvarint(dst, uint64(len(resps)))
	for i := range resps {
		st := &resps[i].Stats
		dst = binary.AppendUvarint(dst, uint64(st.DocsScored))
		dst = binary.AppendUvarint(dst, uint64(st.DocsFiltered))
		dst = binary.AppendUvarint(dst, uint64(st.Postings))
		dst = binary.AppendUvarint(dst, uint64(st.BlocksDecoded))
		dst = binary.AppendUvarint(dst, uint64(len(resps[i].Hits)))
		for _, h := range resps[i].Hits {
			dst = binary.AppendUvarint(dst, uint64(h.Doc))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.Score))
		}
	}
	frame.Seal(dst[start:])
	return dst
}

// appendRefusal appends the refusal frame a shard answers a request it
// cannot serve with: status and msg, as a non-2xx reply carries them.
func appendRefusal(dst []byte, status int, msg string) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frame.Header)...)
	dst = binary.AppendUvarint(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(status))
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	dst = append(dst, msg...)
	frame.Seal(dst[start:])
	return dst
}

// decodeReply reads the reply frame of a stream exchange with decode; a
// frame decode refuses is read as the shard's refusal, a *statusError.
func decodeReply[T any](b []byte, maxPayload int, decode func([]byte) (T, error)) (T, error) {
	out, err := decode(b)
	if err == nil {
		return out, nil
	}
	r, ferr := frame.OpenReader(b, uint32(maxPayload), "")
	if ferr != nil || len(r.B) < 2 || r.B[0] != 0 {
		return out, err
	}
	r.B = r.B[1:]
	status, msg := r.Num(), r.Str()
	if r.End() != nil || status < 400 || status > 599 {
		return out, err
	}
	return out, &statusError{code: status, msg: msg}
}

// replyHitMin is the least a hit occupies: one gid byte and the score.
const replyHitMin = 1 + 8

// decodeBatchReply reads a reply frame into one response per member —
// Hits (windows of one backing array, in the order MergeTopK consumes)
// and Stats (the counters ExecStats.Add sums). Nothing returned aliases
// b.
func decodeBatchReply(b []byte) ([]vsm.Response, error) {
	r, err := frame.OpenReader(b, maxBatchReply, "cluster: batch frame")
	if err != nil {
		return nil, err
	}
	nMembers := r.Count(5)
	if r.Err != nil {
		return nil, r.Err
	}
	resps := make([]vsm.Response, nMembers)
	hits := make([]vsm.Result, 0, len(r.B)/replyHitMin)
	for i := range resps {
		st := &resps[i].Stats
		st.DocsScored = r.Num()
		st.DocsFiltered = r.Num()
		st.Postings = r.Num()
		st.BlocksDecoded = r.Num()
		n := r.Count(replyHitMin)
		if r.Err != nil {
			return nil, r.Err
		}
		lo := len(hits)
		for j := 0; j < n; j++ {
			gid, score := r.Gid(), r.Float("score")
			if r.Err != nil {
				return nil, r.Err
			}
			hits = append(hits, vsm.Result{Doc: gid, Score: score})
		}
		resps[i].Hits = hits[lo:len(hits):len(hits)]
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return resps, nil
}

// A mutation is one shard's share of a record in the router's mutation
// log: documents to add, or one document to delete. It is one frame on
// a mutation stream, and its body is what the router's journal keeps of
// the share (journal.go):
//
//	uvarint seq            the record's log sequence (0: the shard refuses it)
//	uvarint if_instance    the shard instance it is for (0: any)
//	body:
//	uvarint op             0: add, 1: delete
//	op 0: uvarint docs
//	      docs × record    frame.AppendDoc's (gid, title, text), ascending by gid
//	op 1: uvarint gid      the document to tombstone
//
// A saved segment's documents file holds the same document records.
// Like every frame a mutation has one encoding: a padded uvarint, an op
// other than 0 or 1, a gid beyond int32, a count beyond the bytes left
// and bytes after the payload are refused; gid order is the shard's to
// judge. The router
// refuses a share over maxMutationBody before it logs the record, and a
// shard reads no more than the largest frame a router sends.

const (
	// maxMutation bounds a mutation frame's payload: the 32 MiB a public
	// /index body may take, and room for the frame's own fields. Nothing
	// is escaped, and a document's fields cost at most 13 bytes, no more
	// than its JSON spends on field names, so what /index accepts fits
	// unless it holds empty documents or invalid UTF-8 (which decodes
	// longer); Router.Add refuses a share that does not fit before
	// logging it.
	maxMutation = 32<<20 + 64
	// maxMutationBody leaves room in a frame for seq and if_instance.
	maxMutationBody = maxMutation - 2*binary.MaxVarintLen64

	opAdd    = 0
	opDelete = 1
)

// mutation is a decoded mutation frame.
type mutation struct {
	seq, ifInstance uint64
	// del marks a delete of gid; otherwise docs are the documents to add,
	// each ID its gid.
	del  bool
	gid  corpus.DocID
	docs []corpus.Document
}

// appendAdd appends the body of an add of docs, whose IDs are their gids.
func appendAdd(dst []byte, docs []corpus.Document) []byte {
	dst = append(dst, opAdd)
	dst = binary.AppendUvarint(dst, uint64(len(docs)))
	for i := range docs {
		dst = frame.AppendDoc(dst, &docs[i])
	}
	return dst
}

// appendDelete appends the body of a delete of gid.
func appendDelete(dst []byte, gid corpus.DocID) []byte {
	return binary.AppendUvarint(append(dst, opDelete), uint64(gid))
}

// appendMutation appends the frame delivering body under log sequence
// seq to the shard instance ifInstance (0: any).
func appendMutation(dst []byte, seq, ifInstance uint64, body []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frame.Header)...)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, ifInstance)
	dst = append(dst, body...)
	frame.Seal(dst[start:])
	return dst
}

// decodeMutation reads a mutation frame. Every string comes back in an
// allocation of its own, so a document the store keeps holds only its
// own bytes.
func decodeMutation(b []byte) (mutation, error) {
	r, err := frame.OpenReader(b, maxMutation, "cluster: mutation frame")
	if err != nil {
		return mutation{}, err
	}
	var m mutation
	m.seq = r.U64()
	m.ifInstance = r.U64()
	m.decodeBody(&r)
	if err := r.End(); err != nil {
		return mutation{}, err
	}
	return m, nil
}

// decodeBody reads a mutation body from r into m.
func (m *mutation) decodeBody(r *frame.Reader) {
	switch op := r.Num(); {
	case r.Err != nil:
	case op == opDelete:
		m.del = true
		m.gid = r.Gid()
	case op != opAdd:
		r.Failf("op %d is neither add nor delete", op)
	default:
		n := r.Count(frame.DocMin)
		if r.Err != nil {
			return
		}
		m.docs = make([]corpus.Document, n)
		for i := range m.docs {
			m.docs[i] = r.Doc()
		}
	}
}

// A stats frame carries a shard's statistics: the ack of a mutation,
// with only the df entries the mutation changed, or a control stream's
// answer to a stats request, with every live df entry.
//
//	uvarint version        the shard's stats version: 1 + the mutations applied by its instance
//	uvarint instance       the shard process's nonce
//	uvarint docs, total_len
//	uvarint max_gid + 1    0: nothing ever ingested
//	uvarint applied_seq, durable_seq
//	uvarint persistent     0 or 1
//	uvarint n, n bytes     the scoring function's name
//	uvarint num_postings, max_list_len, size_bytes, postings_bytes,
//	        resident_bytes, padded_pir_bytes
//	                       the index shape the router aggregates
//	uvarint entries
//	entries × {            each term once: every distinct term of an ack's
//	    uvarint n, n bytes the term       mutation, every live term of a table
//	    uvarint df         its live df (0, in an ack: no live document holds it)
//	}
//
// Like a batch frame it has one encoding: a padded uvarint, a flag other
// than 0 or 1, a count beyond the bytes left and bytes after the payload
// are refused, and so is version 0, a refusal's first field. The router
// judges the table as it installs it (shardConn.install).
//
// A control request is one frame, answered with a stats frame, a
// document frame holding one frame.AppendDoc record, or a 404 refusal:
//
//	uvarint op             0: the stats table, 1: a document
//	op 1: uvarint gid      the document

const (
	// maxStats bounds a stats frame and a document frame: an ack is a few
	// times its mutation at most, a table spends a few bytes on each term
	// besides the term, and a document fits in a mutation.
	maxStats = 64 << 20
	// maxControl bounds a control request: an op and a gid.
	maxControl = 2 * binary.MaxVarintLen64

	ctlStats = 0
	ctlDoc   = 1
)

// statsFrame is a decoded stats frame: its statistics, DF nil, and entries.
type statsFrame struct {
	stats   shardStats
	entries []segment.TermDF
}

// appendStats appends the stats frame of st: its fields, then as its
// entries st.DF's and those of changed.
func appendStats(dst []byte, st *shardStats, changed []segment.TermDF) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frame.Header)...)
	dst = binary.AppendUvarint(dst, st.Version)
	dst = binary.AppendUvarint(dst, st.Instance)
	dst = binary.AppendUvarint(dst, uint64(st.Docs))
	dst = binary.AppendUvarint(dst, uint64(st.TotalLen))
	dst = binary.AppendUvarint(dst, uint64(int64(st.MaxGid)+1))
	dst = binary.AppendUvarint(dst, st.AppliedSeq)
	dst = binary.AppendUvarint(dst, st.DurableSeq)
	persistent := uint64(0)
	if st.Persistent {
		persistent = 1
	}
	dst = binary.AppendUvarint(dst, persistent)
	dst = binary.AppendUvarint(dst, uint64(len(st.Scoring)))
	dst = append(dst, st.Scoring...)
	ix := &st.Index
	for _, v := range [...]int64{int64(ix.NumPostings), int64(ix.MaxListLen), ix.SizeBytes, ix.PostingsBytes, ix.ResidentBytes, ix.PaddedPIRBytes} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.DF)+len(changed)))
	entry := func(term string, df int) {
		dst = binary.AppendUvarint(dst, uint64(len(term)))
		dst = append(dst, term...)
		dst = binary.AppendUvarint(dst, uint64(df))
	}
	for term, df := range st.DF {
		entry(term, df)
	}
	for _, e := range changed {
		entry(e.Term, e.DF)
	}
	frame.Seal(dst[start:])
	return dst
}

// decodeStats reads a stats frame. Every string comes back in an
// allocation of its own: the router keeps terms as table keys, and a key
// that shared memory with the rest of its frame would keep the whole
// frame alive.
func decodeStats(b []byte) (statsFrame, error) {
	r, err := frame.OpenReader(b, maxStats, "cluster: stats frame")
	if err != nil {
		return statsFrame{}, err
	}
	var f statsFrame
	st := &f.stats
	if st.Version = r.U64(); st.Version == 0 {
		r.Failf("version 0: a refusal, not a stats frame")
	}
	st.Instance = r.U64()
	st.Docs = r.Num()
	st.TotalLen = int64(r.Num())
	if maxGid := r.Num(); maxGid > math.MaxInt32+1 {
		r.Failf("max gid %d beyond int32", maxGid-1)
	} else {
		st.MaxGid = corpus.DocID(maxGid - 1)
	}
	st.AppliedSeq = r.U64()
	st.DurableSeq = r.U64()
	switch r.Num() {
	case 0:
	case 1:
		st.Persistent = true
	default:
		r.Failf("persistent flag is neither 0 nor 1")
	}
	st.Scoring = r.Str()
	ix := &st.Index
	ix.NumPostings = r.Num()
	ix.MaxListLen = r.Num()
	ix.SizeBytes = int64(r.Num())
	ix.PostingsBytes = int64(r.Num())
	ix.ResidentBytes = int64(r.Num())
	ix.PaddedPIRBytes = int64(r.Num())
	// An entry takes a length byte and a df byte at least.
	n := r.Count(2)
	if r.Err != nil {
		return statsFrame{}, r.Err
	}
	f.entries = make([]segment.TermDF, n)
	for i := range f.entries {
		f.entries[i].Term = r.Str()
		f.entries[i].DF = r.Num()
	}
	if err := r.End(); err != nil {
		return statsFrame{}, err
	}
	return f, nil
}

// appendControl appends the control request for op, asking for document
// gid when op is ctlDoc.
func appendControl(dst []byte, op int, gid corpus.DocID) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frame.Header)...)
	dst = binary.AppendUvarint(dst, uint64(op))
	if op == ctlDoc {
		dst = binary.AppendUvarint(dst, uint64(gid))
	}
	frame.Seal(dst[start:])
	return dst
}

// decodeControl reads a control request: its op, and the gid a document
// request asks for.
func decodeControl(b []byte) (op int, gid corpus.DocID, err error) {
	r, err := frame.OpenReader(b, maxControl, "cluster: control frame")
	if err != nil {
		return 0, 0, err
	}
	if op = r.Num(); op == ctlDoc {
		gid = r.Gid()
	} else if op != ctlStats {
		r.Failf("op %d is neither stats nor document", op)
	}
	return op, gid, r.End()
}

// appendDoc appends the document frame of d.
func appendDoc(dst []byte, d *corpus.Document) []byte {
	start := len(dst)
	dst = frame.AppendDoc(append(dst, make([]byte, frame.Header)...), d)
	frame.Seal(dst[start:])
	return dst
}

// decodeDoc reads a document frame.
func decodeDoc(b []byte) (corpus.Document, error) {
	r, err := frame.OpenReader(b, maxStats, "cluster: document frame")
	if err != nil {
		return corpus.Document{}, err
	}
	return r.Doc(), r.End()
}

// readFrame reads the frame at the head of a stream into buf's storage:
// the header, then as many payload bytes as it claims, up to maxPayload.
// buf grows as bytes arrive, never ahead of them and never past the
// frame, and nothing after the frame is read. A stream that ends between
// two frames is io.EOF; one that ends inside a frame, or claims more
// than maxPayload, is frame.ErrTorn; a whole frame that fails its CRC is
// frame.ErrChecksum. After either of the last two the stream's framing is
// lost.
func readFrame(r io.Reader, buf []byte, maxPayload int) ([]byte, error) {
	buf = buf[:0]
	need := frame.Header
	for len(buf) < need {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(max(2*cap(buf), 512), need))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), need)])
		buf = buf[:len(buf)+n]
		if need == frame.Header && len(buf) == frame.Header {
			length := binary.LittleEndian.Uint32(buf)
			if int64(length) > int64(maxPayload) {
				return buf, frame.ErrTorn
			}
			need += int(length)
		}
		switch {
		case err == nil || len(buf) == need:
		case err == io.EOF && len(buf) == 0:
			return buf, io.EOF
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			return buf, frame.ErrTorn
		default:
			return buf, err
		}
	}
	_, _, err := frame.Open(buf, uint32(maxPayload))
	return buf, err
}

// shardStats is a shard's live collection statistics, keyed by term
// string because shards have independent vocabularies: what a stats
// frame carries. A mutation's ack carries only the df entries the
// mutation changed, so the router's merged tables stay exact without
// extra round-trips.
type shardStats struct {
	// Version is 1 + the mutations this shard instance has applied; the
	// table a frame carries is the one after exactly that many. The
	// router folds an ack into its copy of the table only when the ack's
	// version is the next one.
	Version uint64
	// Docs and TotalLen are the shard's live document count and
	// analyzed token count.
	Docs     int
	TotalLen int64
	// DF maps term → live document frequency (zero-df terms omitted).
	DF map[string]int
	// MaxGid is the largest global ID ever ingested on this shard (-1
	// when empty); a restarting router resumes gid assignment above the
	// cluster-wide maximum.
	MaxGid corpus.DocID
	// AppliedSeq is the highest router log sequence number this shard
	// has applied (in memory); DurableSeq is the highest it had applied
	// as of its last completed save — the high-water a journaled router
	// prunes its log against (a router without a journal prunes a record
	// once its drive has run). An in-memory shard reports DurableSeq 0
	// forever: it can lose everything, so the journal must retain
	// everything.
	AppliedSeq uint64
	DurableSeq uint64
	// Instance is a random nonce drawn at shard process start. A change
	// between two stats reports is how the router counts shard restarts.
	Instance uint64
	// Persistent reports whether the shard saves to disk at all.
	Persistent bool
	// Scoring is the shard's scoring function; the router refuses
	// mixed-scoring clusters.
	Scoring string
	// Index is the shard's index-shape statistics, for aggregation.
	Index index.Stats
}

// check refuses a table no shard reports: a negative count, a max gid
// outside [-1, MaxInt32-1] (a store refuses ID MaxInt32, and the router's
// next gid would wrap past it), or, withDF, a df outside [1, docs]. The
// router installs no table that fails it: every cycle merges each table
// in, and one shard's negative count would fail every cycle of the
// cluster.
func (st *shardStats) check(withDF bool) error {
	ix := &st.Index
	if min(int64(st.Docs), st.TotalLen, int64(ix.NumPostings), int64(ix.MaxListLen),
		ix.SizeBytes, ix.PostingsBytes, ix.ResidentBytes, ix.PaddedPIRBytes) < 0 {
		return errors.New("cluster: stats: a negative count")
	}
	if st.MaxGid < -1 || st.MaxGid >= math.MaxInt32 {
		return fmt.Errorf("cluster: stats: max gid %d outside [-1, %d]", st.MaxGid, math.MaxInt32-1)
	}
	if !withDF {
		return nil
	}
	for term, df := range st.DF {
		if df < 1 || df > st.Docs {
			return fmt.Errorf("cluster: stats: term %q has df %d, outside [1, %d]", term, df, st.Docs)
		}
	}
	return nil
}
