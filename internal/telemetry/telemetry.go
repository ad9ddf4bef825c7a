// Package telemetry is the zero-dependency observability core: a
// lock-cheap metrics registry with Prometheus text-format (v0.0.4)
// exposition, and a per-query phase tracer with a capped in-memory
// ring. The paper's threat model (Pang, Xiao & Shen, ICDE 2012) keeps
// the engine unmodified and treats the query log as the
// adversary-visible surface, so operational telemetry is the
// operator's only legitimate window into a deployment — and it must
// not itself become a leak: nothing in this package ever records query
// text, only counts and durations.
//
// Hot-path cost is the design constraint. Counters and gauges are
// single atomic words; histograms are fixed-bucket atomic arrays with
// an exact CAS-summed total; label lookup happens once at wiring time
// (callers resolve a child and keep it), never per observation.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the exposition TYPE of a family.
type MetricType string

// The three family types the registry supports. Untyped and summary
// are deliberately absent: every metric this codebase publishes is one
// of these.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Counter is a monotonically increasing uint64. The zero value is
// unusable; obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are a programming error; they are
// clamped to zero rather than corrupting monotonicity.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64 (stored as atomic bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta via a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one; Dec subtracts one. Handy for in-flight gauges.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// child is one labeled series inside a family.
type child struct {
	labels []string // label values, aligned with family.labelNames
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // lazy value for *Func series, nil otherwise
}

// family is one named metric with a fixed label-name schema.
type family struct {
	name       string
	help       string
	typ        MetricType
	labelNames []string
	buckets    []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
	order    []*child // insertion order, for stable exposition
}

// Registry holds metric families and renders them. All methods are
// safe for concurrent use; family creation takes a lock but series
// handles returned to callers are lock-free afterwards.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var nameOK = func(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// getFamily returns the family, creating it on first use. Re-registering
// with a conflicting type, label schema or bucket layout panics: that
// is a wiring bug, not a runtime condition.
func (r *Registry) getFamily(name, help string, typ MetricType, labelNames []string, buckets []float64) *family {
	if !nameOK(name) {
		panic("telemetry: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labelNames) != len(labelNames) {
			panic("telemetry: conflicting re-registration of " + name)
		}
		for i := range labelNames {
			if f.labelNames[i] != labelNames[i] {
				panic("telemetry: conflicting label schema for " + name)
			}
		}
		if typ == TypeHistogram && len(f.buckets) != len(buckets) {
			panic("telemetry: conflicting bucket layout for " + name)
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		children:   make(map[string]*child),
	}
	r.families[name] = f
	r.order = append(r.order, f)
	return f
}

func childKey(values []string) string {
	return strings.Join(values, "\x00")
}

func (f *family) getChild(values []string) *child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labels: append([]string(nil), values...)}
	switch f.typ {
	case TypeCounter:
		c.c = &Counter{}
	case TypeGauge:
		c.g = &Gauge{}
	case TypeHistogram:
		c.h = newHistogram(f.buckets)
	}
	f.children[key] = c
	f.order = append(f.order, c)
	return c
}

// Counter returns the unlabeled counter with this name, creating it on
// first use. Subsequent calls return the same counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.getFamily(name, help, TypeCounter, nil, nil).getChild(nil).c
}

// CounterVec declares a labeled counter family; With resolves children.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.getFamily(name, help, TypeCounter, labelNames, nil)}
}

// Gauge returns the unlabeled gauge with this name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getFamily(name, help, TypeGauge, nil, nil).getChild(nil).g
}

// GaugeVec declares a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.getFamily(name, help, TypeGauge, labelNames, nil)}
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Use it for values the owning component already maintains (segment
// counts, model staleness) so scrapes read fresh state without the
// component pushing updates.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.getFamily(name, help, TypeGauge, nil, nil)
	c := f.getChild(nil)
	f.mu.Lock()
	c.fn = fn
	f.mu.Unlock()
}

// CounterFunc registers a counter read at scrape time from fn — for
// components that keep their own atomics (e.g. compaction totals).
// fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.getFamily(name, help, TypeCounter, nil, nil)
	c := f.getChild(nil)
	f.mu.Lock()
	c.fn = fn
	f.mu.Unlock()
}

// Histogram returns the unlabeled histogram with this name.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.getFamily(name, help, TypeHistogram, nil, buckets).getChild(nil).h
}

// HistogramVec declares a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.getFamily(name, help, TypeHistogram, labelNames, buckets)}
}

// CounterVec is a labeled counter family handle.
type CounterVec struct{ f *family }

// With resolves (creating if absent) the child for these label values.
// Resolve once at wiring time and keep the handle; With takes the
// family lock.
func (v *CounterVec) With(values ...string) *Counter { return v.f.getChild(values).c }

// GaugeVec is a labeled gauge family handle.
type GaugeVec struct{ f *family }

// With resolves the child gauge for these label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.getChild(values).g }

// HistogramVec is a labeled histogram family handle.
type HistogramVec struct{ f *family }

// With resolves the child histogram for these label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.getChild(values).h }

// WriteText renders every family in Prometheus text format v0.0.4,
// families in registration order, series in creation order. It takes
// each family's lock only long enough to snapshot the child list;
// values are read from the live atomics.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		children := append([]*child(nil), f.order...)
		f.mu.Unlock()
		if len(children) == 0 {
			continue
		}
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(string(f.typ))
		b.WriteByte('\n')
		for _, c := range children {
			switch f.typ {
			case TypeCounter:
				val := float64(c.c.Value())
				if c.fn != nil {
					val = c.fn()
				}
				writeSample(&b, f.name, f.labelNames, c.labels, "", "", val)
			case TypeGauge:
				val := c.g.Value()
				if c.fn != nil {
					val = c.fn()
				}
				writeSample(&b, f.name, f.labelNames, c.labels, "", "", val)
			case TypeHistogram:
				counts, sum, total := c.h.snapshot()
				cum := uint64(0)
				for i, upper := range c.h.uppers {
					cum += counts[i]
					writeSample(&b, f.name+"_bucket", f.labelNames, c.labels,
						"le", formatLe(upper), float64(cum))
				}
				writeSample(&b, f.name+"_bucket", f.labelNames, c.labels,
					"le", "+Inf", float64(total))
				writeSample(&b, f.name+"_sum", f.labelNames, c.labels, "", "", sum)
				writeSample(&b, f.name+"_count", f.labelNames, c.labels, "", "", float64(total))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSample appends one exposition line. extraName/extraValue carry
// the synthetic "le" label for histogram buckets.
func writeSample(b *strings.Builder, name string, labelNames, labelValues []string, extraName, extraValue string, val float64) {
	b.WriteString(name)
	if len(labelNames) > 0 || extraName != "" {
		b.WriteByte('{')
		for i, ln := range labelNames {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ln)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labelValues[i]))
			b.WriteByte('"')
		}
		if extraName != "" {
			if len(labelNames) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraName)
			b.WriteString(`="`)
			b.WriteString(extraValue)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(val))
	b.WriteByte('\n')
}

// formatValue renders a sample value the way Prometheus clients do:
// shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLe renders a bucket upper bound for the le label.
func formatLe(v float64) string { return formatValue(v) }

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
