package search

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"toppriv/internal/corpus"
)

func TestTransientErrorClassification(t *testing.T) {
	if TransientError(nil) {
		t.Error("nil classified transient")
	}
	if TransientError(context.Canceled) || TransientError(context.DeadlineExceeded) {
		t.Error("context errors must not be transient")
	}
	// As the transport surfaces them: wrapped a few layers deep.
	wrapped := fmt.Errorf("Post %q: %w", "http://x", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED})
	if !TransientError(wrapped) {
		t.Error("wrapped ECONNREFUSED not transient")
	}
	if !TransientError(&net.OpError{Op: "read", Err: syscall.ECONNRESET}) {
		t.Error("ECONNRESET not transient")
	}
	if TransientError(fmt.Errorf("server returned 500")) {
		t.Error("non-transport error classified transient")
	}
}

func TestUnsentErrorClassification(t *testing.T) {
	if UnsentError(nil) {
		t.Error("nil classified unsent")
	}
	if UnsentError(context.Canceled) || UnsentError(context.DeadlineExceeded) {
		t.Error("context errors must not be unsent")
	}
	wrapped := fmt.Errorf("Post %q: %w", "http://x", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED})
	if !UnsentError(wrapped) {
		t.Error("wrapped ECONNREFUSED not unsent")
	}
	// A reset can arrive after the server executed the request and lost
	// only the response — it proves nothing about execution.
	if UnsentError(&net.OpError{Op: "read", Err: syscall.ECONNRESET}) {
		t.Error("ECONNRESET classified unsent")
	}
	if UnsentError(&net.OpError{Op: "write", Err: syscall.EPIPE}) {
		t.Error("EPIPE classified unsent")
	}
}

// flakyListener RST-kills the first n accepted connections, then serves
// normally — the shape of a server mid-restart.
type flakyListener struct {
	net.Listener
	kills atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.kills.Load() <= 0 {
			return c, nil
		}
		l.kills.Add(-1)
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0) // close sends RST, not FIN: the client sees ECONNRESET
		}
		c.Close()
	}
}

func TestRetryDoRecoversFromResets(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: inner}
	fl.kills.Store(2)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})}
	go srv.Serve(fl)
	defer srv.Close()

	url := "http://" + inner.Addr().String() + "/"
	build := func() (*http.Request, error) { return http.NewRequest(http.MethodGet, url, nil) }

	// Zero policy: the first reset surfaces.
	if _, err := (RetryPolicy{}).Do(http.DefaultClient, build); err == nil {
		t.Fatal("zero policy retried a reset connection")
	}
	// One kill remains; a budget of 2 retries must get through.
	p := RetryPolicy{Max: 2, Base: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	resp, err := p.Do(http.DefaultClient, build)
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after recovery", resp.StatusCode)
	}
}

// countingTransport counts the requests a client sends.
type countingTransport struct{ sent atomic.Int32 }

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.sent.Add(1)
	return http.DefaultTransport.RoundTrip(req)
}

// TestMutationNeverReplaysResets: a reset mid-exchange may follow
// server-side execution, so a mutation must surface it on the first
// attempt even with budget left — replaying could double-apply — while
// a read rides it out.
func TestMutationNeverReplaysResets(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: inner}
	fl.kills.Store(3)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			io.WriteString(w, "{}")
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})}
	go srv.Serve(fl)
	defer srv.Close()

	tr := &countingTransport{}
	cl := NewAdminClient("http://"+inner.Addr().String(), &http.Client{Transport: tr})
	cl.Retry = RetryPolicy{Max: 3, Base: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	if err := cl.DeleteDocument(1); err == nil {
		t.Fatal("reset did not surface through DeleteDocument")
	}
	if _, err := cl.AddDocuments([]corpus.Document{{Title: "t", Text: "x"}}); err == nil {
		t.Fatal("reset did not surface through AddDocuments")
	}
	if n := tr.sent.Load(); n != 2 {
		t.Fatalf("two mutations made %d attempts on resets, want 2", n)
	}
	// One kill remains: a read replays past it.
	if _, err := cl.StatsFull(); err != nil {
		t.Fatalf("StatsFull did not ride out a reset: %v", err)
	}
	if n := tr.sent.Load(); n != 4 {
		t.Fatalf("StatsFull made %d attempts, want 2", n-2)
	}
}

// TestMutationRetriesRefused: a refused dial proves the server never
// saw the request, so mutations may safely ride out a restart window.
func TestMutationRetriesRefused(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	tr := &countingTransport{}
	cl := NewAdminClient("http://"+addr, &http.Client{Transport: tr})
	cl.Retry = RetryPolicy{Max: 2, Base: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	if err := cl.DeleteDocument(1); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if n := tr.sent.Load(); n != 3 {
		t.Fatalf("made %d attempts, want 1+Max = 3", n)
	}
}

func TestRetryDoGivesUpOnRefused(t *testing.T) {
	// A port with nothing listening: every dial is refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	builds := 0
	p := RetryPolicy{Max: 2, Base: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	_, err = p.Do(http.DefaultClient, func() (*http.Request, error) {
		builds++
		return http.NewRequest(http.MethodGet, "http://"+addr+"/", nil)
	})
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if !TransientError(err) {
		t.Fatalf("final error not the transport failure: %v", err)
	}
	if builds != 3 {
		t.Fatalf("made %d attempts, want 1+Max = 3", builds)
	}
	// The request context bounds the loop, backoff included.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	builds = 0
	slow := RetryPolicy{Max: 5, Base: time.Hour, MaxDelay: time.Hour}
	start := time.Now()
	_, err = slow.Do(http.DefaultClient, func() (*http.Request, error) {
		builds++
		return http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/", nil)
	})
	if err == nil {
		t.Fatal("canceled request succeeded")
	}
	if builds != 1 || time.Since(start) > time.Second {
		t.Fatalf("canceled context did not stop the loop (builds=%d)", builds)
	}
}
