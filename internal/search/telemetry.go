package search

import (
	"net/http"
	"strconv"

	"toppriv/internal/telemetry"
)

// MetricsBackend is the optional wiring surface a backend offers:
// both *vsm.Engine and *segment.Store implement it. NewServer calls
// it with the server's registry and trace ring, so constructing a
// server over an instrumentable backend lights up engine-level
// histograms and phase traces with no extra plumbing.
type MetricsBackend interface {
	EnableMetrics(reg *telemetry.Registry, ring *telemetry.TraceRing)
}

// Registry exposes the server's metric registry so the process can
// register additional scrape-time gauges (the facade adds the LDA
// model-staleness gauge; searchd could add build info) onto the same
// GET /metrics exposition.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// endpointMetrics is one endpoint's pre-resolved request/error/
// in-flight/response-byte handles.
type endpointMetrics struct {
	reqs      *telemetry.Counter
	errs      *telemetry.Counter
	inflight  *telemetry.Gauge
	respBytes *telemetry.Counter
}

// instrument wraps a handler with per-endpoint request, error and
// in-flight tracking. Children are resolved here, once per endpoint
// at mux construction; the per-request cost is three atomic ops, one
// more per body write, and a small ResponseWriter wrapper.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	em := &endpointMetrics{
		reqs:     s.httpReqs.With(endpoint),
		errs:     s.httpErrs.With(endpoint),
		inflight: s.httpInflight.With(endpoint),
		// Declared here, its one use; the registry returns the same
		// family for every endpoint.
		respBytes: s.reg.CounterVec("toppriv_http_response_bytes_total",
			"HTTP response body bytes written, by endpoint.", "endpoint").With(endpoint),
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		em.reqs.Inc()
		em.inflight.Inc()
		defer em.inflight.Dec()
		sw := statusRecorder{ResponseWriter: w, bytes: em.respBytes}
		h(&sw, r)
		if sw.status >= 400 {
			em.errs.Inc()
		}
	})
}

// statusRecorder captures the response status so the error counter
// can distinguish 2xx from 4xx/5xx without the handlers reporting, and
// counts the body bytes written — a count only, never what they say.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  *telemetry.Counter
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the connection under the
// recorder — Hijack, Flush and deadlines — on every instrumented route.
// A hijacked connection's bytes bypass the recorder and are not counted.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes.Add(uint64(n))
	return n, err
}

// handleMetrics serves the Prometheus text-format exposition of every
// family registered with the server's registry — engine histograms,
// store gauges, HTTP counters, and whatever the process added through
// Registry().
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A write error means the client went away mid-scrape; the response
	// is already partially written, so there is nothing to report.
	_ = s.reg.WriteText(w)
}

// TracesResponse is the GET /debug/traces reply: the retained phase
// traces, oldest first.
type TracesResponse struct {
	Traces []telemetry.PhaseTrace `json:"traces"`
}

// handleTraces serves the last-N completed query phase traces as
// JSON. Admin-token-gated like the mutation endpoints: traces carry
// no query text, but their timing and work counters still profile the
// workload, which is operator information, not public information.
// ?n= limits the reply to the most recent n traces.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorizeAdmin(w, r) {
		return
	}
	traces := s.ring.Snapshot()
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		if n < len(traces) {
			traces = traces[len(traces)-n:]
		}
	}
	if traces == nil {
		traces = []telemetry.PhaseTrace{}
	}
	writeJSON(w, TracesResponse{Traces: traces})
}

// initTelemetry builds the server-owned registry, trace ring and HTTP
// families, and hands the registry to the backend when it can accept
// one.
func (s *Server) initTelemetry() {
	s.reg = telemetry.NewRegistry()
	s.ring = telemetry.NewTraceRing(telemetry.DefaultTraceCap)
	s.httpReqs = s.reg.CounterVec("toppriv_http_requests_total",
		"HTTP requests received, by endpoint.", "endpoint")
	s.httpErrs = s.reg.CounterVec("toppriv_http_errors_total",
		"HTTP responses with status >= 400, by endpoint.", "endpoint")
	s.httpInflight = s.reg.GaugeVec("toppriv_http_inflight",
		"HTTP requests currently being served, by endpoint.", "endpoint")
	s.reg.CounterFunc("toppriv_querylog_evicted_total",
		"Query-log entries evicted from the ring (oldest-first).",
		func() float64 { return float64(s.logEvicted.Load()) })
	s.reg.GaugeFunc("toppriv_querylog_retained",
		"Query-log entries currently retained.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.log))
		})
	if mb, ok := s.engine.(MetricsBackend); ok {
		mb.EnableMetrics(s.reg, s.ring)
	}
}
