package cluster

import (
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	"toppriv/internal/frame"
)

// FaultTransport is the deterministic fault-injection harness for the
// distributed tier: an http.RoundTripper wrapper that injects the
// failure modes a real network produces — connection resets, delays,
// replies cut mid-frame, and blackholed exchanges — from a seeded
// source, so a failing trial replays exactly from its seed. It pairs
// with the journal writer's kill-after-N-bytes crash hook to drive the
// crash-anywhere recovery property tests.
//
// Every router-to-shard exchange is a frame exchange on a stream. An
// upgrade request draws no fault: its 101 reply's stream is wrapped
// instead, and every frame exchange on it — a request frame written, its
// reply read — draws one, so a cycle, a mutation or a control request
// meets the plan whether its stream was pooled or dialed.
//
// The errors it fabricates are shaped like the real thing: a reset
// surfaces as a *net.OpError wrapping syscall.ECONNRESET.
type FaultTransport struct {
	// Base performs the real exchange (nil = http.DefaultTransport).
	Base http.RoundTripper

	mu    sync.Mutex
	rng   *rand.Rand
	plan  FaultPlan
	armed bool
}

// FaultKind names one injectable transport fault.
type FaultKind int

const (
	// FaultNone passes the exchange through untouched.
	FaultNone FaultKind = iota
	// FaultReset fails the exchange with a connection reset before the
	// request frame is written (the shard never sees it), and closes the
	// stream.
	FaultReset
	// FaultDelay delays the exchange by the plan's DelayFor, then
	// delivers it normally.
	FaultDelay
	// FaultPartial delivers the request frame but cuts the reply frame
	// after its header — the shard applied the mutation, the caller never
	// saw the acknowledgement.
	FaultPartial
	// FaultBlackhole swallows the exchange until the caller's context
	// deadline; neither side hears anything: the request frame is dropped
	// and reads wait for the caller to close the stream, as its deadline
	// does.
	FaultBlackhole
)

// FaultPlan sets the per-exchange probability of each fault. The
// probabilities are evaluated in order (reset, delay, partial,
// blackhole) from one seeded stream, so a plan plus a serialized
// request sequence replays identically.
type FaultPlan struct {
	Seed      int64
	Reset     float64
	Delay     float64
	Partial   float64
	Blackhole float64
	// DelayFor is the FaultDelay duration (default 50ms).
	DelayFor time.Duration
}

// NewFaultTransport wraps base with an armed plan.
func NewFaultTransport(base http.RoundTripper, plan FaultPlan) *FaultTransport {
	if plan.DelayFor <= 0 {
		plan.DelayFor = 50 * time.Millisecond
	}
	return &FaultTransport{Base: base, rng: rand.New(rand.NewSource(plan.Seed)), plan: plan, armed: true}
}

// Disarm stops all injection.
func (ft *FaultTransport) Disarm() {
	ft.mu.Lock()
	ft.armed = false
	ft.mu.Unlock()
}

// next draws the fault for one exchange.
func (ft *FaultTransport) next() (FaultKind, time.Duration) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if !ft.armed {
		return FaultNone, 0
	}
	var k FaultKind
	switch draw := ft.rng.Float64(); {
	case draw < ft.plan.Reset:
		k = FaultReset
	case draw < ft.plan.Reset+ft.plan.Delay:
		k = FaultDelay
	case draw < ft.plan.Reset+ft.plan.Delay+ft.plan.Partial:
		k = FaultPartial
	case draw < ft.plan.Reset+ft.plan.Delay+ft.plan.Partial+ft.plan.Blackhole:
		k = FaultBlackhole
	default:
		return FaultNone, 0
	}
	return k, ft.plan.DelayFor
}

func (ft *FaultTransport) base() http.RoundTripper {
	if ft.Base != nil {
		return ft.Base
	}
	return http.DefaultTransport
}

// RoundTrip implements http.RoundTripper: the request passes through,
// and the stream a 101 reply hands over is put under the plan.
func (ft *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := ft.base().RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		return resp, err
	}
	if rwc, ok := resp.Body.(io.ReadWriteCloser); ok {
		resp.Body = &faultStream{ReadWriteCloser: rwc, ft: ft, closed: make(chan struct{}), cut: -1}
	}
	return resp, nil
}

// faultStream is an upgraded stream under a plan: each Write starts a
// frame exchange and draws its fault, which the reads of its reply obey.
// One exchange at a time, as a stream carries them.
type faultStream struct {
	io.ReadWriteCloser
	ft     *FaultTransport
	closed chan struct{}
	once   sync.Once
	// cut is how many reply bytes are left before the reply is cut (-1:
	// no cut); hole drops the exchange.
	cut  int
	hole bool
}

func (s *faultStream) Write(b []byte) (int, error) {
	kind, delay := s.ft.next()
	s.cut, s.hole = -1, false
	switch kind {
	case FaultReset:
		s.Close()
		return 0, &net.OpError{Op: "write", Net: "tcp", Err: syscall.ECONNRESET}
	case FaultDelay:
		select {
		case <-s.closed:
			return 0, net.ErrClosed
		case <-time.After(delay):
		}
	case FaultPartial:
		s.cut = frame.Header
	case FaultBlackhole:
		s.hole = true
		return len(b), nil
	}
	return s.ReadWriteCloser.Write(b)
}

func (s *faultStream) Read(b []byte) (int, error) {
	switch {
	case s.hole:
		<-s.closed
		return 0, net.ErrClosed
	case s.cut == 0:
		return 0, io.ErrUnexpectedEOF
	case s.cut > 0 && len(b) > s.cut:
		b = b[:s.cut]
	}
	n, err := s.ReadWriteCloser.Read(b)
	if s.cut > 0 {
		s.cut -= n
	}
	return n, err
}

func (s *faultStream) Close() error {
	s.once.Do(func() { close(s.closed) })
	return s.ReadWriteCloser.Close()
}
