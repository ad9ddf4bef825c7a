package search

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"time"

	"toppriv/internal/core"
	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/telemetry"
	"toppriv/internal/textproc"
)

// Client is the trusted client module of Fig. 1. Each user query is
// analyzed, obfuscated into a cycle (Step 2), submitted query-by-query
// to the search engine (Step 3), and only the genuine query's results
// are returned (Step 4) — ghost traffic is transparent to the user.
//
// Word order within each submitted query is sorted before submission:
// the engine treats queries as bags of words, and canonical ordering
// removes any stylistic tell that could differentiate ghosts (§IV-C).
type Client struct {
	baseURL string
	httpc   *http.Client
	an      *textproc.Analyzer
	rng     *rand.Rand
	obf     interface {
		Obfuscate([]string, *rand.Rand) (*core.Cycle, error)
	}

	// K is the default result count per query.
	K int
	// AdminToken, when non-empty, is sent as a bearer token on the
	// requests the server gates behind one (AddDocuments, DeleteDocument,
	// Traces); required there when the server was started with an admin
	// token.
	AdminToken string
	// Retry bounds automatic retries of transient transport errors. The
	// zero value — the default — retries nothing. Reads and query
	// submissions replay on any refused or reset connection (they are
	// idempotent); the mutations (AddDocuments, DeleteDocument) target
	// the single-node /index surface, which is NOT idempotent, so they
	// replay only connection-refused failures — the one error proving
	// the server never saw the request and cannot have applied it. See
	// RetryPolicy.
	Retry RetryPolicy
	// Jitter, when positive, inserts a uniform random delay up to this
	// duration before each query submission. Submitting a whole cycle
	// back-to-back leaves a timing signature (υ requests in one burst);
	// jitter smears the cycle over time the way TrackMeNot schedules
	// ghosts. Zero disables it.
	Jitter time.Duration
	// sleep is injectable for tests; defaults to time.Sleep.
	sleep func(time.Duration)
	// lastCycle retains the most recent cycle for inspection by tests
	// and examples (not part of the privacy surface).
	lastCycle *core.Cycle
}

// defaultHTTP is the client NewClient and NewAdminClient use when they
// are given none, built at first use. http.DefaultTransport keeps two
// idle connections per host, so a process running more cycles than
// that at once would dial and close a connection per extra cycle; this
// transport, a clone of it, keeps maxIdleConnsPerHost. A program that
// has replaced http.DefaultTransport with another RoundTripper gets
// http.DefaultClient, which follows it.
var defaultHTTP = sync.OnceValue(func() *http.Client {
	base, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return http.DefaultClient
	}
	tr := base.Clone()
	tr.MaxIdleConnsPerHost = maxIdleConnsPerHost
	return &http.Client{Transport: tr}
})

// maxIdleConnsPerHost is the idle connections defaultHTTP keeps to one
// server: as many as the benchmark's clients keep, so that what it
// measures is what a nil httpc gets.
const maxIdleConnsPerHost = 8

// NewClient builds a trusted client talking to baseURL. obf is a
// *core.Obfuscator, or a *core.Session for a sticky decoy profile
// across the client's queries. A nil httpc uses a shared client whose
// transport keeps up to 8 idle connections per host; a nil analyzer
// uses the repository default. The RNG seeds the obfuscation decisions
// and must not be shared with the server.
func NewClient(baseURL string, httpc *http.Client, obf interface {
	Obfuscate([]string, *rand.Rand) (*core.Cycle, error)
}, an *textproc.Analyzer, rng *rand.Rand) (*Client, error) {
	if v := reflect.ValueOf(obf); obf == nil || v.Kind() == reflect.Pointer && v.IsNil() {
		return nil, fmt.Errorf("search: nil obfuscator")
	}
	if rng == nil {
		return nil, fmt.Errorf("search: nil rng")
	}
	if httpc == nil {
		httpc = defaultHTTP()
	}
	if an == nil {
		an = textproc.NewAnalyzer()
	}
	return &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		httpc:   httpc,
		obf:     obf,
		an:      an,
		rng:     rng,
		K:       10,
		sleep:   time.Sleep,
	}, nil
}

// Search runs one private search: it obfuscates the raw query, submits
// the cycle query-by-query (υ HTTP round-trips, optionally
// jitter-spaced), and returns only the genuine results. SearchCycle is
// the single-round-trip alternative.
func (c *Client) Search(rawQuery string) ([]SearchHit, error) {
	cycle, err := c.obfuscate(rawQuery)
	if err != nil {
		return nil, err
	}
	var userHits []SearchHit
	for i, q := range cycle.Queries {
		if c.Jitter > 0 {
			c.sleep(time.Duration(c.rng.Int63n(int64(c.Jitter))))
		}
		hits, err := c.submit(q)
		if err != nil {
			return nil, fmt.Errorf("search: submit query %d/%d: %w", i+1, cycle.Len(), err)
		}
		// Step 4: keep only the genuine query's results.
		if i == cycle.UserIndex {
			userHits = hits
		}
	}
	return userHits, nil
}

// SearchCycle runs one private search submitting the entire
// obfuscation cycle in a single POST /search/batch round-trip: the
// server still logs each cycle member as a separate query-log entry —
// the adversary's artifact, and the (ε1, ε2) guarantee over it, are
// unchanged — but the cycle pays one HTTP exchange instead of υ, and
// the engine shares term resolution and postings buffers across the
// members. Only the genuine query's results are returned — and only
// they are decoded; SubmitBatch returns every member's. Jitter does
// not apply (there is nothing to space out inside one request); use
// Search when smearing the cycle over time matters more than latency.
func (c *Client) SearchCycle(ctx context.Context, rawQuery string) ([]SearchHit, error) {
	cycle, err := c.obfuscate(rawQuery)
	if err != nil {
		return nil, err
	}
	// Step 4 at the decoder: every member's reply is validated, only the
	// genuine one is built. Which one that is never leaves this process.
	responses, err := c.submitBatch(ctx, cycle.Queries, cycle.UserIndex)
	if err != nil {
		return nil, fmt.Errorf("search: submit cycle: %w", err)
	}
	return responses[cycle.UserIndex].Hits, nil
}

// obfuscate analyzes and obfuscates one raw query, retaining the cycle
// for inspection.
func (c *Client) obfuscate(rawQuery string) (*core.Cycle, error) {
	terms := c.an.Analyze(rawQuery)
	if len(terms) == 0 {
		return nil, fmt.Errorf("search: query %q has no indexable terms", rawQuery)
	}
	cycle, err := c.obf.Obfuscate(terms, c.rng)
	if err != nil {
		return nil, fmt.Errorf("search: obfuscate: %w", err)
	}
	c.lastCycle = cycle
	return cycle, nil
}

// SearchPlain submits the query without obfuscation (for comparisons).
func (c *Client) SearchPlain(rawQuery string) ([]SearchHit, error) {
	terms := c.an.Analyze(rawQuery)
	if len(terms) == 0 {
		return nil, fmt.Errorf("search: query %q has no indexable terms", rawQuery)
	}
	return c.submit(terms)
}

// SubmitBatch sends one POST /search/batch request with the given term
// bags (each canonically sorted before submission, like submit) and
// returns the per-member responses, stats included, aligned with
// queries by index. The context bounds the whole exchange.
func (c *Client) SubmitBatch(ctx context.Context, queries [][]string) ([]SearchResponse, error) {
	return c.submitBatch(ctx, queries, -1)
}

// submitBatch is the one /search/batch exchange behind SubmitBatch and
// SearchCycle. The request is the same bytes whatever only is; member
// only — every member when only < 0 — is decoded, the rest left zero.
func (c *Client) submitBatch(ctx context.Context, queries [][]string, only int) (out []SearchResponse, err error) {
	body := appendBatchRequest(nil, queries, c.K)
	err = c.exchange(ctx, http.MethodPost, "/search/batch", "", body, TransientError, http.StatusOK, maxReplyBody, func(b []byte) (err error) {
		out, err = decodeBatch(b, len(queries), only)
		return err
	})
	return out, err
}

// LastCycle returns the cycle generated by the most recent Search call,
// or nil. Diagnostic only.
func (c *Client) LastCycle() *core.Cycle { return c.lastCycle }

// submit sends one bag of terms as a search request. Terms are sorted
// into canonical order before submission.
func (c *Client) submit(terms []string) ([]SearchHit, error) {
	body, _ := appendRequest(nil, nil, terms, c.K)
	var sr SearchResponse
	err := c.exchange(context.Background(), http.MethodPost, "/search", "", body, TransientError, http.StatusOK, maxReplyBody,
		func(b []byte) error { return decodeResponse(b, &sr) })
	return sr.Hits, err
}

// exchange is every request the client makes: method path, with token
// as the bearer token and body as JSON when each is not empty, sent
// under c.Retry, replaying the failures retriable names (TransientError
// for reads and searches, UnsentError for mutations, which a replay
// after a reset could apply twice). A status other than want is an
// error carrying the server's text; a reply of want is read whole,
// refused past limit bytes, and handed to decode in a pooled buffer
// that decode must not keep — or, past maxReplyBody (a document), in
// one of its own that decode may keep.
func (c *Client) exchange(ctx context.Context, method, path, token string, body []byte, retriable func(error) bool, want, limit int, decode func([]byte) error) error {
	resp, err := c.Retry.do(c.httpc, func() (*http.Request, error) {
		var r io.Reader
		if body != nil {
			r = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, r)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		return req, nil
	}, retriable)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	bp := new([]byte)
	if limit <= maxReplyBody {
		bp = wireBufs.Get().(*[]byte)
		defer wireBufs.Put(bp)
	}
	// To EOF, so that the connection is reused, and one byte past the
	// cap, so that an over-long reply is seen to be one instead of
	// being cut to something that might parse.
	if *bp, err = readAll(io.LimitReader(resp.Body, int64(limit)+1), *bp); err != nil {
		return err
	}
	if len(*bp) > limit {
		return fmt.Errorf("reply exceeds the client's cap of %d bytes", limit)
	}
	if err := decode(*bp); err != nil {
		return fmt.Errorf("decoding the %s reply: %w", path, err)
	}
	return nil
}

// NewAdminClient builds a client for the administrative surface only —
// AddDocuments, DeleteDocument, FetchDocument — with no obfuscator.
// Search and SearchPlain must not be called on it. A nil httpc uses the
// shared client NewClient uses.
func NewAdminClient(baseURL string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = defaultHTTP()
	}
	return &Client{baseURL: strings.TrimRight(baseURL, "/"), httpc: httpc}
}

// AddDocuments ingests documents into a live server (POST /index),
// returning the IDs the store assigned. Servers over an immutable index
// refuse with 405.
func (c *Client) AddDocuments(docs []corpus.Document) ([]corpus.DocID, error) {
	body, err := json.Marshal(IndexRequest{Docs: docs})
	if err != nil {
		return nil, err
	}
	var ir IndexResponse
	err = c.exchange(context.Background(), http.MethodPost, "/index", c.AdminToken, body, UnsentError, http.StatusOK, maxReplyBody,
		func(b []byte) error { return json.Unmarshal(b, &ir) })
	return ir.IDs, err
}

// DeleteDocument tombstones one document on a live server
// (DELETE /doc/{id}).
func (c *Client) DeleteDocument(id corpus.DocID) error {
	return c.exchange(context.Background(), http.MethodDelete, fmt.Sprintf("/doc/%d", id), c.AdminToken, nil, UnsentError, http.StatusNoContent, maxReplyBody,
		func([]byte) error { return nil })
}

// Stats retrieves the server's index-shape statistics (GET /stats):
// document and term counts, the serialized size, and the exact
// in-memory footprint of the block-compressed postings
// (PostingsBytes/BytesPerDoc) — the numbers the paper's PIR cost
// argument turns on.
func (c *Client) Stats() (index.Stats, error) {
	s, err := c.StatsFull()
	return s.Stats, err
}

// StatsFull retrieves the complete GET /stats reply — the index-shape
// statistics plus the query-log ring state (retained/evicted counts
// and absolute head/tail sequence numbers).
func (c *Client) StatsFull() (s StatsResponse, err error) {
	err = c.get("/stats", maxReplyBody, func(b []byte) error { return json.Unmarshal(b, &s) })
	return s, err
}

// MetricsText retrieves the raw Prometheus text exposition from
// GET /metrics. Callers wanting structure can feed it to
// telemetry.ParseText.
func (c *Client) MetricsText() (text string, err error) {
	err = c.get("/metrics", maxReplyBody, func(b []byte) error { text = string(b); return nil })
	return text, err
}

// Traces retrieves the server's retained phase traces (GET
// /debug/traces, admin-token-gated when the server has one). n > 0
// limits the reply to the most recent n traces.
func (c *Client) Traces(n int) ([]telemetry.PhaseTrace, error) {
	path := "/debug/traces"
	if n > 0 {
		path += fmt.Sprintf("?n=%d", n)
	}
	var tr TracesResponse
	err := c.exchange(context.Background(), http.MethodGet, path, c.AdminToken, nil, TransientError, http.StatusOK, maxReplyBody,
		func(b []byte) error { return json.Unmarshal(b, &tr) })
	return tr.Traces, err
}

// FetchDocument retrieves a document body (Step 7 of Fig. 1; the paper
// notes result-document privacy is out of scope and handled by [15]).
// The body is read under maxIndexBody: no document is larger than the
// /index request that ingested it.
func (c *Client) FetchDocument(id int) (doc json.RawMessage, err error) {
	err = c.get(fmt.Sprintf("/doc/%d", id), maxIndexBody, func(b []byte) error { doc = b; return nil })
	return doc, err
}

// get is a GET exchange, without the token, answered 200.
func (c *Client) get(path string, limit int, decode func([]byte) error) error {
	return c.exchange(context.Background(), http.MethodGet, path, "", nil, TransientError, http.StatusOK, limit, decode)
}
