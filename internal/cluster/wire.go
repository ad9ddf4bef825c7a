package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/segment"
	"toppriv/internal/vsm"
)

// The /cluster/* wire schema. Shards speak pre-analyzed terms, global
// document IDs and cluster-merged statistics; raw query text never
// reaches a shard (the router analyzes once), and store-local document
// IDs never leave one.
//
// The control plane's requests and GET /cluster/stats are JSON, the
// structs at the bottom of this file. The query path, POST
// /cluster/batch, is one binary frame each way, Content-Type
// batchContentType: the framing of frame.go (uint32 length, uint32
// CRC-32 over length + payload) around a payload of uvarints
// (encoding/binary's, shortest form only), term bytes and raw float64
// bits. It carries what a cycle is: one collection, the cycle's distinct
// terms, and the members as references into them. A mutation's ack is
// one such frame too (see appendMutationAck).
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
// A frame has one encoding: a padded uvarint, a term listed twice or out
// of first-occurrence order or never referenced, and bytes after the
// payload are all refused, so equal terms carry equal df by construction
// and the bytes are a function of the member sequence alone. Nothing in
// a frame tells the genuine query from its ghosts.
//
// There is one version and no negotiation: a shard answers any other
// Content-Type with 415, so a router and its shards upgrade together.

const (
	batchContentType = "application/x-toppriv-cycle"
	// maxBatchRequest and maxBatchReply bound the frame a shard reads
	// from a router and a router from a shard. A cycle of 64 members
	// asking 1000 hits each answers in under 1 MiB.
	maxBatchRequest = 4 << 20
	maxBatchReply   = 16 << 20
)

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
	dst = append(dst, make([]byte, frameHeader)...)
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
	sealFrame(dst[start:])
	return dst
}

// decodeBatchRequest rebuilds the cycle of a request frame as the
// requests a shard's store executes: every member's Terms and Global.DF
// are windows of one backing array each, and every Global carries the
// frame's one snapshot. Nothing returned aliases frame. What comes back
// is well-formed, not yet valid: Request.Validate still judges k and
// the statistics.
func decodeBatchRequest(frame []byte) ([]vsm.Request, error) {
	r, err := openFrameReader(frame, maxBatchRequest, "batch")
	if err != nil {
		return nil, err
	}
	docs := r.num()
	totalLen := r.num()
	// Every count is checked against the bytes its elements must still
	// occupy before anything is sized by it.
	nTerms := r.count(2)
	if r.err != nil {
		return nil, r.err
	}
	// One copy of the rest of the payload holds every term's bytes; the
	// terms are substrings of it.
	text := string(r.b)
	terms := make([]string, nTerms)
	dfs := make([]int, nTerms)
	seen := make(map[string]struct{}, nTerms)
	for i := range terms {
		n := r.count(1)
		if r.err != nil {
			return nil, r.err
		}
		at := len(text) - len(r.b)
		terms[i] = text[at : at+n]
		r.b = r.b[n:]
		dfs[i] = r.num()
		if _, dup := seen[terms[i]]; dup {
			r.failf("term %d repeats an earlier term", i)
			return nil, r.err
		}
		seen[terms[i]] = struct{}{}
	}
	nMembers := r.count(2)
	if r.err == nil && nMembers == 0 {
		// Not a cycle, and nothing to hang its snapshot on.
		r.failf("no members")
	}
	if r.err != nil {
		return nil, r.err
	}
	// A reference takes a byte at least, a member two more.
	maxRefs := len(r.b) - 2*nMembers
	reqs := make([]vsm.Request, nMembers)
	globals := make([]vsm.GlobalStats, nMembers)
	flatTerms := make([]string, 0, maxRefs)
	flatDF := make([]int, 0, maxRefs)
	next := 0
	for i := range reqs {
		k := r.num()
		n := r.count(1)
		lo := len(flatTerms)
		for j := 0; j < n && r.err == nil; j++ {
			ref := r.num()
			if ref > next || ref >= nTerms {
				r.failf("member %d refers to term %d, out of range or out of first-occurrence order", i, ref)
				break
			}
			if ref == next {
				next++
			}
			flatTerms = append(flatTerms, terms[ref])
			flatDF = append(flatDF, dfs[ref])
		}
		if r.err != nil {
			return nil, r.err
		}
		hi := len(flatTerms)
		globals[i] = vsm.GlobalStats{Docs: docs, TotalLen: int64(totalLen), DF: flatDF[lo:hi:hi]}
		reqs[i] = vsm.Request{Terms: flatTerms[lo:hi:hi], K: k, Global: &globals[i]}
	}
	if next != nTerms {
		r.failf("%d of %d terms are never referenced", nTerms-next, nTerms)
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return reqs, nil
}

// appendBatchReply appends the reply frame for a cycle's responses,
// whose hits already carry global document IDs.
func appendBatchReply(dst []byte, resps []vsm.Response) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
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
	sealFrame(dst[start:])
	return dst
}

// replyHitMin is the least a hit occupies: one gid byte and the score.
const replyHitMin = 1 + 8

// decodeBatchReply reads a reply frame into one response per member —
// Hits (windows of one backing array, in the order MergeTopK consumes)
// and Stats (the counters ExecStats.Add sums). Nothing returned aliases
// frame.
func decodeBatchReply(frame []byte) ([]vsm.Response, error) {
	r, err := openFrameReader(frame, maxBatchReply, "batch")
	if err != nil {
		return nil, err
	}
	nMembers := r.count(5)
	if r.err != nil {
		return nil, r.err
	}
	resps := make([]vsm.Response, nMembers)
	hits := make([]vsm.Result, 0, len(r.b)/replyHitMin)
	for i := range resps {
		st := &resps[i].Stats
		st.DocsScored = r.num()
		st.DocsFiltered = r.num()
		st.Postings = r.num()
		st.BlocksDecoded = r.num()
		n := r.count(replyHitMin)
		if r.err != nil {
			return nil, r.err
		}
		lo := len(hits)
		for j := 0; j < n; j++ {
			gid, score := r.num(), r.float()
			if r.err == nil && gid > math.MaxInt32 {
				r.failf("member %d hit %d: gid %d beyond int32", i, j, gid)
			}
			if r.err != nil {
				return nil, r.err
			}
			hits = append(hits, vsm.Result{Doc: corpus.DocID(gid), Score: score})
		}
		resps[i].Hits = hits[lo:len(hits):len(hits)]
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return resps, nil
}

// A mutation — POST /cluster/index, DELETE /cluster/doc/{gid} — is
// acknowledged with one frame, Content-Type ackContentType: the shard's
// statistics once the mutation is in, with only the df entries the
// mutation changed (GET /cluster/stats carries the whole table).
//
//	uvarint version        the shard's stats version: mutations applied by its instance
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
//	entries × {            every distinct term of the mutation's documents, once
//	    uvarint n, n bytes the term
//	    uvarint df         its live df afterwards (0: no live document holds it)
//	}
//
// Like a batch frame it has one encoding: a padded uvarint, a flag other
// than 0 or 1, a count beyond the bytes left and bytes after the payload
// are refused.

const (
	ackContentType = "application/x-toppriv-ack"
	// maxMutationAck bounds the ack a router reads. An ack names each
	// distinct term of the mutation's documents once, so it is no larger
	// than a few times the JSON that ingested them, which a shard caps at
	// 32 MiB a request.
	maxMutationAck = 64 << 20
)

// mutationAck is a decoded ack: the shard's statistics, DF nil, and the
// df entries the mutation changed.
type mutationAck struct {
	stats   shardStats
	changed []segment.TermDF
}

// appendMutationAck appends the ack frame of a mutation: st's fields but
// DF, then changed.
func appendMutationAck(dst []byte, st *shardStats, changed []segment.TermDF) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
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
	dst = binary.AppendUvarint(dst, uint64(len(changed)))
	for _, e := range changed {
		dst = binary.AppendUvarint(dst, uint64(len(e.Term)))
		dst = append(dst, e.Term...)
		dst = binary.AppendUvarint(dst, uint64(e.DF))
	}
	sealFrame(dst[start:])
	return dst
}

// decodeMutationAck reads an ack frame. Every string comes back in an
// allocation of its own: the router keeps terms as table keys, and a
// key that shared memory with the rest of its ack would keep the whole
// ack alive.
func decodeMutationAck(frame []byte) (mutationAck, error) {
	r, err := openFrameReader(frame, maxMutationAck, "ack")
	if err != nil {
		return mutationAck{}, err
	}
	var a mutationAck
	st := &a.stats
	st.Version = r.u64()
	st.Instance = r.u64()
	st.Docs = r.num()
	st.TotalLen = int64(r.num())
	if maxGid := r.num(); maxGid > math.MaxInt32+1 {
		r.failf("max gid %d beyond int32", maxGid-1)
	} else {
		st.MaxGid = corpus.DocID(maxGid - 1)
	}
	st.AppliedSeq = r.u64()
	st.DurableSeq = r.u64()
	switch r.num() {
	case 0:
	case 1:
		st.Persistent = true
	default:
		r.failf("persistent flag is neither 0 nor 1")
	}
	st.Scoring = r.str()
	ix := &st.Index
	ix.NumPostings = r.num()
	ix.MaxListLen = r.num()
	ix.SizeBytes = int64(r.num())
	ix.PostingsBytes = int64(r.num())
	ix.ResidentBytes = int64(r.num())
	ix.PaddedPIRBytes = int64(r.num())
	// An entry takes a length byte and a df byte at least.
	n := r.count(2)
	if r.err != nil {
		return mutationAck{}, r.err
	}
	a.changed = make([]segment.TermDF, n)
	for i := range a.changed {
		a.changed[i].Term = r.str()
		a.changed[i].DF = r.num()
	}
	if err := r.end(); err != nil {
		return mutationAck{}, err
	}
	return a, nil
}

// frameReader consumes a payload field by field; the first malformed
// field sticks in err and every later read returns zero.
type frameReader struct {
	b    []byte
	err  error
	kind string // the frame's name in errors: "batch" or "ack"
}

// openFrameReader checks a frame that must be the whole of its input.
func openFrameReader(frame []byte, maxPayload uint32, kind string) (frameReader, error) {
	payload, size, err := openFrame(frame, maxPayload)
	if err != nil {
		return frameReader{}, fmt.Errorf("cluster: %s frame: %w", kind, err)
	}
	if size != len(frame) {
		return frameReader{}, fmt.Errorf("cluster: %s frame: %d bytes after the frame", kind, len(frame)-size)
	}
	return frameReader{b: payload, kind: kind}, nil
}

// failf records the first malformed field.
func (r *frameReader) failf(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("cluster: %s frame: %s", r.kind, fmt.Sprintf(format, args...))
	}
}

// u64 reads one shortest-form uvarint.
func (r *frameReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.failf("truncated, padded or oversized integer")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// num reads one shortest-form uvarint that fits an int.
func (r *frameReader) num() int {
	v := r.u64()
	if v > math.MaxInt {
		r.failf("truncated, padded or oversized integer")
		return 0
	}
	return int(v)
}

// str reads a length-prefixed string into an allocation of its own.
func (r *frameReader) str() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// float reads a float64 from the 8 little-endian bytes of its bits.
func (r *frameReader) float() float64 {
	if r.err == nil && len(r.b) < 8 {
		r.failf("truncated score")
	}
	if r.err != nil {
		return 0
	}
	bits := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return math.Float64frombits(bits)
}

// count reads the number of elements that follow, each at least min
// bytes long, and refuses one the remaining bytes cannot hold — so a
// claimed count never sizes an allocation the input did not pay for.
func (r *frameReader) count(min int) int {
	n := r.num()
	if r.err == nil && n > len(r.b)/min {
		r.failf("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return n
}

// end reports the first error, or payload bytes nothing consumed.
func (r *frameReader) end() error {
	if r.err == nil && len(r.b) != 0 {
		r.failf("%d unread payload bytes", len(r.b))
	}
	return r.err
}

// wireBufs pools the buffers /cluster/batch frames are read into and
// replies built in. A request frame is never pooled: net/http may still
// be reading it after Do returns, and a cycle's shard goroutines share
// it.
var wireBufs = sync.Pool{New: func() interface{} { return new([]byte) }}

// readBody reads r to EOF into buf — to EOF so that a keep-alive
// connection is reused — growing it as bytes arrive, never ahead of
// them.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
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

// shardStats is the GET /cluster/stats reply: the shard's live
// collection statistics, keyed by term string because shards have
// independent vocabularies. A mutation's ack carries the same fields
// with only the df entries the mutation changed, so the router's merged
// tables stay exact without extra round-trips.
type shardStats struct {
	// Version counts the mutations this shard instance has applied; the
	// table a reply carries is the one after exactly that many. The
	// router folds an ack into its copy of the table only when the ack's
	// version is the next one.
	Version uint64 `json:"version"`
	// Docs and TotalLen are the shard's live document count and
	// analyzed token count.
	Docs     int   `json:"docs"`
	TotalLen int64 `json:"total_len"`
	// DF maps term → live document frequency (zero-df terms omitted).
	DF map[string]int `json:"df"`
	// MaxGid is the largest global ID ever ingested on this shard (-1
	// when empty); a restarting router resumes gid assignment above the
	// cluster-wide maximum.
	MaxGid corpus.DocID `json:"max_gid"`
	// AppliedSeq is the highest router journal sequence number this
	// shard has applied (in memory); DurableSeq is the highest it had
	// applied as of its last completed save — the high-water the router
	// prunes journaled mutations against. An in-memory shard reports
	// DurableSeq 0 forever: it can lose everything, so the journal must
	// retain everything.
	AppliedSeq uint64 `json:"applied_seq"`
	DurableSeq uint64 `json:"durable_seq"`
	// Instance is a random nonce drawn at shard process start. A change
	// between two stats reports is how the router counts shard restarts.
	Instance uint64 `json:"instance"`
	// Persistent reports whether the shard saves to disk at all.
	Persistent bool `json:"persistent"`
	// Scoring is the shard's scoring function; the router refuses
	// mixed-scoring clusters.
	Scoring string `json:"scoring"`
	// Index is the shard's index-shape statistics, for aggregation.
	Index index.Stats `json:"index"`
}

// ingestRequest is the POST /cluster/index payload: documents with
// router-assigned global IDs, in ascending gid order. Ascending order
// is load-bearing — the shard's store assigns dense local IDs in
// arrival order, and local order mirroring gid order is what keeps
// shard-local score tie-breaks identical to a single index's.
type ingestRequest struct {
	Docs []ingestDoc `json:"docs"`
	// Seq is the router's journal sequence number for this mutation
	// (0 = unjournaled). The shard tracks the high-water of applied
	// seqs and persists it with each save, so the router can tell
	// exactly which journal records a restarted shard still needs.
	Seq uint64 `json:"seq,omitempty"`
	// IfInstance, when nonzero, makes the ingest conditional on the
	// shard's process nonce: a shard whose instance differs rejects
	// with 412. That closes the restart race — the router's in-order
	// catch-up baseline is only valid for the instance it was read
	// from, so delivery to any other instance must bounce back to a
	// fresh reconciliation instead of applying out of order.
	IfInstance uint64 `json:"if_instance,omitempty"`
}

type ingestDoc struct {
	Gid corpus.DocID    `json:"gid"`
	Doc corpus.Document `json:"doc"`
}
