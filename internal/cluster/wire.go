package cluster

import (
	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/vsm"
)

// The /cluster/* wire schema. Shards speak pre-analyzed terms, global
// document IDs and cluster-merged statistics; raw query text never
// reaches a shard (the router analyzes once), and store-local document
// IDs never leave one.

// batchRequest is the POST /cluster/batch payload: one obfuscation
// cycle, every member carrying the identical merged statistics.
type batchRequest struct {
	Queries []wireQuery `json:"queries"`
}

// wireQuery is one cycle member as a shard executes it. The shard's
// engine has one execution strategy; a "mode" field, which a
// router one release behind may still send, is ignored.
type wireQuery struct {
	// Terms is the analyzed query in wire order; Global.DF aligns with
	// it, and cosine shards derive the query norm from it, so every
	// shard of a cycle computes the identical norm.
	Terms []string `json:"terms"`
	K     int      `json:"k"`
	// Global is the router's merged N/totalLen/df for this query.
	Global *vsm.GlobalStats `json:"global"`
}

// batchResponse is the POST /cluster/batch reply; Responses align with
// the request's Queries.
type batchResponse struct {
	Responses []wireResponse `json:"responses"`
}

// wireResponse is one member's shard-local result: hits carry global
// document IDs and raw scores. Titles stay off this path — the router
// resolves display titles from its ingest-time cache.
type wireResponse struct {
	Hits  []wireHit     `json:"hits"`
	Stats vsm.ExecStats `json:"stats"`
}

type wireHit struct {
	Gid   corpus.DocID `json:"gid"`
	Score float64      `json:"score"`
}

// shardStats is the GET /cluster/stats reply and the refreshed-stats
// section of every mutation reply: the shard's live collection
// statistics, keyed by term string because shards have independent
// vocabularies. Mutation replies carry it synchronously so the
// router's merged tables are exact without extra round-trips.
type shardStats struct {
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

// ingestResponse acknowledges an ingest with the shard's refreshed
// statistics.
type ingestResponse struct {
	Stats shardStats `json:"stats"`
}

// deleteResponse acknowledges a DELETE /cluster/doc/{gid} with the
// shard's refreshed statistics.
type deleteResponse struct {
	Stats shardStats `json:"stats"`
}
