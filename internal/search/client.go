package search

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
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
	obf     *core.Obfuscator
	an      *textproc.Analyzer
	rng     *rand.Rand

	// K is the default result count per query.
	K int
	// AdminToken, when non-empty, is sent as a bearer token on the
	// mutation endpoints (AddDocuments, DeleteDocument); required when
	// the server was started with an admin token.
	AdminToken string
	// Retry bounds automatic retries of transient transport errors. The
	// zero value — the default — retries nothing; the cluster router's
	// shard client enables a small budget. Query submissions replay on
	// any refused or reset connection (they are idempotent); the
	// mutations (AddDocuments, DeleteDocument) target the single-node
	// /index surface, which is NOT idempotent, so they replay only
	// connection-refused failures — the one error proving the server
	// never saw the request and cannot have applied it. See RetryPolicy.
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

// NewClient builds a trusted client talking to baseURL. A nil httpc
// uses http.DefaultClient; a nil analyzer uses the repository default.
// The RNG seeds the obfuscation decisions and must not be shared with
// the server.
func NewClient(baseURL string, httpc *http.Client, obf *core.Obfuscator, an *textproc.Analyzer, rng *rand.Rand) (*Client, error) {
	if obf == nil {
		return nil, fmt.Errorf("search: nil obfuscator")
	}
	if rng == nil {
		return nil, fmt.Errorf("search: nil rng")
	}
	if httpc == nil {
		httpc = http.DefaultClient
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
// SearchCycle. The request is the same bytes whatever only is; the
// reply is read under maxReplyBody and validated in full, and member
// only — every member when only < 0 — is decoded, the rest left zero.
func (c *Client) submitBatch(ctx context.Context, queries [][]string, only int) ([]SearchResponse, error) {
	body := appendBatchRequest(nil, queries, c.K)
	resp, err := c.Retry.Do(c.httpc, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/search/batch", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	if *bp, err = readReply(resp.Body, *bp, maxReplyBody); err != nil {
		return nil, err
	}
	return decodeBatch(*bp, len(queries), only)
}

// LastCycle returns the cycle generated by the most recent Search call,
// or nil. Diagnostic only.
func (c *Client) LastCycle() *core.Cycle { return c.lastCycle }

// submit sends one bag of terms as a search request. Terms are sorted
// into canonical order before submission.
func (c *Client) submit(terms []string) ([]SearchHit, error) {
	body, _ := appendRequest(nil, nil, terms, c.K)
	resp, err := c.Retry.Do(c.httpc, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, c.baseURL+"/search", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var sr SearchResponse
	if err := unmarshalReply(resp.Body, &sr); err != nil {
		return nil, err
	}
	return sr.Hits, nil
}

// NewAdminClient builds a client for the administrative surface only —
// AddDocuments, DeleteDocument, FetchDocument — with no obfuscator.
// Search and SearchPlain must not be called on it.
func NewAdminClient(baseURL string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
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
	resp, err := c.Retry.DoMutation(c.httpc, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, c.baseURL+"/index", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		c.authorize(req)
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var ir IndexResponse
	if err := unmarshalReply(resp.Body, &ir); err != nil {
		return nil, err
	}
	return ir.IDs, nil
}

// DeleteDocument tombstones one document on a live server
// (DELETE /doc/{id}).
func (c *Client) DeleteDocument(id corpus.DocID) error {
	resp, err := c.Retry.DoMutation(c.httpc, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/doc/%d", c.baseURL, id), nil)
		if err != nil {
			return nil, err
		}
		c.authorize(req)
		return req, nil
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return nil
}

// authorize attaches the bearer token when one is configured.
func (c *Client) authorize(req *http.Request) {
	if c.AdminToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.AdminToken)
	}
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
func (c *Client) StatsFull() (StatsResponse, error) {
	var s StatsResponse
	resp, err := c.httpc.Get(c.baseURL + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("server returned %s", resp.Status)
	}
	if err := unmarshalReply(resp.Body, &s); err != nil {
		return s, fmt.Errorf("decoding stats: %w", err)
	}
	return s, nil
}

// MetricsText retrieves the raw Prometheus text exposition from
// GET /metrics. Callers wanting structure can feed it to
// telemetry.ParseText.
func (c *Client) MetricsText() (string, error) {
	resp, err := c.httpc.Get(c.baseURL + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("server returned %s", resp.Status)
	}
	b, err := readReply(resp.Body, nil, maxReplyBody)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Traces retrieves the server's retained phase traces (GET
// /debug/traces, admin-token-gated when the server has one). n > 0
// limits the reply to the most recent n traces.
func (c *Client) Traces(n int) ([]telemetry.PhaseTrace, error) {
	url := c.baseURL + "/debug/traces"
	if n > 0 {
		url += fmt.Sprintf("?n=%d", n)
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	c.authorize(req)
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var tr TracesResponse
	if err := unmarshalReply(resp.Body, &tr); err != nil {
		return nil, fmt.Errorf("decoding traces: %w", err)
	}
	return tr.Traces, nil
}

// FetchDocument retrieves a document body (Step 7 of Fig. 1; the paper
// notes result-document privacy is out of scope and handled by [15]).
// The body is read under maxIndexBody: no document is larger than the
// /index request that ingested it.
func (c *Client) FetchDocument(id int) (json.RawMessage, error) {
	resp, err := c.httpc.Get(fmt.Sprintf("%s/doc/%d", c.baseURL, id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server returned %s", resp.Status)
	}
	return readReply(resp.Body, nil, maxIndexBody)
}
