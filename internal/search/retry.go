package search

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"syscall"
	"time"
)

// RetryPolicy bounds automatic retries of transient transport failures
// — connection refused or reset, the failures a restarting or briefly
// overloaded server produces. The zero value retries nothing, which is
// the Client default: ordinary clients surface the first error. The
// cluster router spends its budget (cluster.Config.Retry) on stream dials
// only, so one dropped connection does not degrade a whole cycle.
//
// Only transport errors are retried, never HTTP status codes: a
// response, even a 5xx, means the request may have executed, and
// replaying a mutation on that evidence would double-apply it. Which
// transport errors replay depends on the request: Do, and a Client's
// reads and searches, replay any connection that never carried a
// response (TransientError) — safe for idempotent calls — while a
// Client's mutations replay only connections refused outright
// (UnsentError), the one failure proving the server never saw the
// request.
type RetryPolicy struct {
	// Max is the number of retries after the initial attempt.
	Max int
	// Base is the first backoff delay, doubling per retry (32ms when
	// zero with Max > 0).
	Base time.Duration
	// MaxDelay caps the grown delay (1s when zero).
	MaxDelay time.Duration
}

// TransientError reports whether err is a transport failure worth
// retrying for an idempotent request: the connection never carried a
// response (refused, reset, broken pipe). A reset or broken pipe does
// NOT prove the request went unexecuted — the server may have consumed
// and applied it and only the response was lost — so this predicate is
// safe only where replaying the request is harmless; non-idempotent
// mutations must use UnsentError instead. Context cancellation and
// deadline expiry are never transient — the caller gave up, retrying
// would outlive its budget.
func TransientError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// UnsentError reports whether err proves the request never reached a
// server: the dial was refused outright, so nothing was sent and
// nothing can have executed. The only predicate safe for retrying
// non-idempotent mutations.
func UnsentError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// Do executes build-then-send up to 1+Max times, backing off
// exponentially with jitter between attempts, retrying any
// TransientError. Use it only for idempotent requests: a reset may
// arrive after the server executed the request, and Do will replay.
// build constructs a fresh request each attempt — a consumed request
// body cannot be resent. The request's context bounds the whole loop,
// backoff waits included.
func (p RetryPolicy) Do(httpc *http.Client, build func() (*http.Request, error)) (*http.Response, error) {
	return p.do(httpc, build, TransientError)
}

// do is Do with retriable in place of TransientError.
func (p RetryPolicy) do(httpc *http.Client, build func() (*http.Request, error), retriable func(error) bool) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := httpc.Do(req)
		if err == nil || attempt >= p.Max || !retriable(err) {
			return resp, err
		}
		delay := p.delay(attempt)
		select {
		case <-req.Context().Done():
			return nil, err
		case <-time.After(delay):
		}
	}
}

// delay computes the backoff before retry #attempt: Base doubled per
// attempt, capped at MaxDelay, with the upper half jittered so a fleet
// of clients retrying the same blip does not re-synchronize into a
// thundering herd.
func (p RetryPolicy) delay(attempt int) time.Duration {
	base := p.Base
	if base <= 0 {
		base = 32 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = time.Second
	}
	d := base << uint(attempt)
	if d <= 0 || d > maxd {
		d = maxd
	}
	half := int64(d / 2)
	return time.Duration(half + rand.Int63n(half+1))
}
