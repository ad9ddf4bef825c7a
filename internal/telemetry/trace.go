package telemetry

import (
	"sync"
	"sync/atomic"
)

// PhaseTrace is the timed breakdown of one executed query. It
// deliberately carries no query text and no document identifiers —
// the query log is the adversary-visible surface in the paper's
// threat model, and traces must not become a second copy of it. Term
// count, k, mode and scorer describe the shape of the work, not its
// content.
type PhaseTrace struct {
	// Seq is the trace's position in the ring's lifetime, assigned at
	// Record time; 0 until recorded.
	Seq uint64 `json:"seq"`
	// Scorer and Mode identify the scoring function and how the query
	// ran: "exhaustive" for one query scanned alone, "batch" for a cycle
	// scanned together — over a static index or a live segment store
	// alike.
	Scorer string `json:"scorer,omitempty"`
	Mode   string `json:"mode,omitempty"`
	// Terms is the number of query terms after analysis; K the result
	// budget. Batch is the member count for a cycle-level batch trace,
	// zero for single-query traces.
	Terms int `json:"terms"`
	K     int `json:"k"`
	Batch int `json:"batch,omitempty"`

	// Phase durations in nanoseconds. Resolve covers term→TermID
	// lookup and weighting, Fetch iterator/postings setup, Traverse
	// the main scoring loop, Merge heap drain and result
	// materialization. TotalNS is wall time for the whole call and can
	// slightly exceed the phase sum (inter-phase bookkeeping).
	ResolveNS  int64 `json:"resolve_ns"`
	FetchNS    int64 `json:"fetch_ns"`
	TraverseNS int64 `json:"traverse_ns"`
	MergeNS    int64 `json:"merge_ns"`
	TotalNS    int64 `json:"total_ns"`

	// Work counters, copied from ExecStats at completion.
	DocsScored    int `json:"docs_scored"`
	Postings      int `json:"postings"`
	BlocksDecoded int `json:"blocks_decoded,omitempty"`
}

// DefaultTraceCap is how many completed traces the ring retains.
const DefaultTraceCap = 256

// TraceRing keeps the last-N completed phase traces. Record is a
// short critical section (sequence assignment plus one slot write);
// it is off the hot path proper — traces are recorded once per query,
// after the response is built.
type TraceRing struct {
	mu   sync.Mutex
	buf  []PhaseTrace
	next int
	full bool
	seq  atomic.Uint64
}

// NewTraceRing returns a ring holding up to cap traces. Non-positive
// cap falls back to DefaultTraceCap.
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &TraceRing{buf: make([]PhaseTrace, capacity)}
}

// Record stamps the trace with the next sequence number and stores it,
// evicting the oldest entry once the ring is full. It returns the
// assigned sequence.
func (r *TraceRing) Record(t PhaseTrace) uint64 {
	seq := r.seq.Add(1)
	t.Seq = seq
	r.mu.Lock()
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
	return seq
}

// Snapshot returns the retained traces, oldest first.
func (r *TraceRing) Snapshot() []PhaseTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]PhaseTrace(nil), r.buf[:r.next]...)
	}
	out := make([]PhaseTrace, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len reports how many traces are currently retained.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}
