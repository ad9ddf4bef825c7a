package vsm

import (
	"context"
	"fmt"

	"toppriv/internal/corpus"
	"toppriv/internal/telemetry"
)

// Request is one structured similarity query — the unit the engine,
// the live store, the HTTP server and the trusted client all speak.
// The paper's system model (§III, Fig. 1) submits each obfuscation
// cycle's υ queries together; Request is the per-member shape and
// SearchBatch the cycle-at-a-time entry point.
type Request struct {
	// Query is the raw query text, resolved when Terms is nil to the
	// dictionary IDs of what the engine's analyzer makes of it, through
	// the engine's token memo. Ignored when Terms is set.
	Query string
	// Terms is the query already analyzed into index terms; takes
	// precedence over Query. Callers that analyzed once (the trusted
	// client canonicalizes word order before submission) pass Terms so
	// the text pipeline runs exactly once per query.
	Terms []string
	// K is the number of results wanted. Must be positive (Validate).
	K int
	// Keep, when non-nil, restricts results to documents for which it
	// returns true, asked about the ID a hit would be reported under
	// (store-wide, on a live store). It is consulted at most once per
	// document a query term occurs in — never for a tombstoned one —
	// before the document can enter the top-k, in no particular order.
	// It is an in-process knob and never crosses the HTTP surface.
	Keep func(corpus.DocID) bool
	// Trace asks for the per-phase timing breakdown of this request in
	// Response.Trace. It works with or without engine-level metrics and
	// costs a handful of monotonic clock reads. The trace carries no
	// query content — term count and work counters only.
	Trace bool
	// Global, when non-nil, overrides the collection statistics this
	// request scores with: a scatter-gather router injects the merged
	// statistics of the whole cluster so every shard scores exactly as
	// a single index over all documents would, while postings and norms
	// stay shard-local. Requires Terms (DF aligns with it); in-process
	// engines and stores leave it nil.
	Global *GlobalStats
}

// GlobalStats carries cluster-merged collection statistics for one
// request — the distributed form of the segment store's global-
// statistics discipline (store-wide N, df, avgdl over part-local
// postings). The router computes them from the shards' reported local
// statistics; every shard of a cycle receives the identical struct, so
// query-side weights and the cosine query norm agree across shards and
// the merged ranking equals a single-node build's.
type GlobalStats struct {
	// Docs is the merged live document count N.
	Docs int `json:"docs"`
	// TotalLen is the merged analyzed token count; the scorer derives
	// avgdl as TotalLen/Docs, the same division a single index performs.
	TotalLen int64 `json:"total_len"`
	// DF aligns with Request.Terms: DF[i] is the merged live document
	// frequency of Terms[i] (repeated terms repeat their df).
	DF []int `json:"df"`
}

// Validate rejects malformed requests. Empty queries are not an
// error — a fully-stopworded query legitimately matches nothing and
// returns an empty Response — but a non-positive K is a caller bug.
// Every execution layer (engine, store, HTTP server) applies the same
// check.
func (r *Request) Validate() error {
	if r.K <= 0 {
		return fmt.Errorf("vsm: request k = %d, must be positive", r.K)
	}
	if g := r.Global; g != nil {
		if r.Terms == nil {
			return fmt.Errorf("vsm: global stats require pre-analyzed Terms")
		}
		if len(g.DF) != len(r.Terms) {
			return fmt.Errorf("vsm: global df has %d entries for %d terms", len(g.DF), len(r.Terms))
		}
		if g.Docs < 0 || g.TotalLen < 0 {
			return fmt.Errorf("vsm: negative global stats")
		}
		// A df outside [0, Docs] turns idf negative or NaN, and the
		// ranking with it. A term that occurs somewhere in a collection
		// of no tokens is no collection: BM25's avgdl would be 0 and
		// every contribution 0 or NaN, which the flat scan relies on
		// never seeing.
		for i, df := range g.DF {
			if df < 0 || df > g.Docs {
				return fmt.Errorf("vsm: global df[%d] = %d, outside [0, %d docs]", i, df, g.Docs)
			}
			if df > 0 && g.TotalLen == 0 {
				return fmt.Errorf("vsm: global total_len = 0 with df[%d] = %d", i, df)
			}
		}
	}
	return nil
}

// Response is the engine's reply to one Request: the ranked hits plus
// the execution counters.
type Response struct {
	// Hits are the top-k documents, best first (descending score,
	// ascending DocID on ties).
	Hits []Result
	// Stats counts the work this query performed (documents scored and
	// filtered, postings, blocks decoded). Always populated.
	Stats ExecStats
	// Trace is the per-phase timing breakdown, populated only when the
	// request set Trace. Batch members served by the shared traversal
	// receive the cycle-level trace (Batch > 0) since their phases
	// cannot be attributed individually.
	Trace *telemetry.PhaseTrace
	// Degraded reports that a distributed deployment assembled these
	// hits without every shard: at least one shard was down or missed
	// its deadline, so the ranking covers the surviving shards only.
	// Always false from in-process engines and stores.
	Degraded bool
	// Shards is the per-shard outcome of a scatter-gather execution,
	// populated by a router (nil everywhere else) so callers can tell
	// exactly which part of the corpus a degraded response is missing.
	Shards []ShardStatus
}

// ShardStatus is one shard's outcome within a routed response.
type ShardStatus struct {
	// Shard is the shard's base URL.
	Shard string `json:"shard"`
	// OK reports whether the shard answered within its deadline.
	OK bool `json:"ok"`
	// Err is the failure, present when OK is false.
	Err string `json:"err,omitempty"`
}

// RequestSearcher is the query surface shared by the static Engine, the
// live segment.Store and the cluster router: context-aware,
// error-returning, with per-request knobs and execution stats. Server
// and facade code depend on this interface so any backend can serve
// them.
type RequestSearcher interface {
	// SearchRequest executes one request — a batch of one. The context
	// cancels mid-execution between postings blocks.
	SearchRequest(ctx context.Context, req Request) (Response, error)
	// SearchBatch executes a batch — typically one obfuscation
	// cycle — sharing term resolution and postings buffers across
	// members. Responses align with reqs by index, and each member's
	// hits are bit-identical to what SearchRequest would return for it
	// alone.
	SearchBatch(ctx context.Context, reqs []Request) ([]Response, error)
}
