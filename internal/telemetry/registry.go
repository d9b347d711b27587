// Package telemetry is the platform-wide observability layer: a
// dependency-free, race-safe metrics registry (counters, gauges,
// fixed-bucket histograms with labels) plus a BMP-inspired (RFC 7854)
// feed of session and route events from vBGP routers over a
// non-blocking bounded queue.
//
// The paper's operations story (§5: intent-based configuration,
// reconciliation, attribution of experiment actions) presupposes that
// operators can see what vBGP is doing; PEERING runs collectors and
// per-PoP monitoring in production. This package is that layer for the
// reproduction: every instrumented subsystem registers metrics against
// Default(), and routers emit PeerUp/PeerDown/RouteMonitoring events
// through an Emitter, which the platform feeds to the history store and
// the control plane's watch stream.
//
// Monitoring must never stall the control plane: Emitter.Emit is
// non-blocking and drops with a counter on overflow, and every metric
// mutation is a single atomic operation after the first (registration)
// lookup.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind distinguishes metric types.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in the exposition format.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use; mutation is one atomic add.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Observations are counted into
// the first bucket whose upper bound is >= the value; values above every
// bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bucket is one cumulative histogram bucket in a Sample.
type Bucket struct {
	// UpperBound is the inclusive upper edge (+Inf for the last).
	UpperBound float64
	// Count is the cumulative count of observations <= UpperBound.
	Count uint64
}

// Sample is one metric's state in a Snapshot.
type Sample struct {
	Name   string
	Labels []Label
	Kind   Kind
	// Value is the counter or gauge value; for histograms it is the sum.
	Value float64
	// Count is the observation count (histograms only).
	Count uint64
	// Buckets are the cumulative bucket counts (histograms only).
	Buckets []Bucket
}

// metric is one registered (name, labels) series.
type metric struct {
	name   string
	labels []Label
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is a race-safe collection of metrics. The zero value is not
// usable; create with NewRegistry or use the process-wide Default.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that instrumented packages
// (bgp, core, policy, bpf, rib, collector) register against.
func Default() *Registry { return defaultRegistry }

// key renders the canonical identity of a series. Labels are sorted so
// registration order does not matter.
func seriesKey(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String(), sorted
}

// lookup returns the series for (name, labels), creating it — value
// included — under the lock, so every caller of a series gets the same
// value and Snapshot never sees a series without one. buckets is read
// only when a histogram is created.
func (r *Registry) lookup(name string, kind Kind, labels []Label, buckets []float64) *metric {
	key, sorted := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", key, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, labels: sorted, kind: kind}
	switch kind {
	case KindCounter:
		m.c = &Counter{}
	case KindGauge:
		m.g = &Gauge{}
	case KindHistogram:
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		m.h = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	r.metrics[key] = m
	return m
}

// Counter returns the counter for (name, labels), creating it on first
// use. Callers on hot paths should resolve once and keep the pointer.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, KindCounter, labels, nil).c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, KindGauge, labels, nil).g
}

// Histogram returns the histogram for (name, labels) with the given
// bucket upper bounds, creating it on first use. Later calls for the
// same series ignore buckets (the first registration wins).
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	return r.lookup(name, KindHistogram, labels, buckets).h
}

// Snapshot returns the state of every registered series, sorted by name
// then label signature — the programmatic view tests and benches use.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	keys := make([]string, 0, len(r.metrics))
	byKey := make(map[string]*metric, len(r.metrics))
	for k, m := range r.metrics {
		keys = append(keys, k)
		byKey[k] = m
	}
	r.mu.Unlock()
	sort.Strings(keys)

	out := make([]Sample, 0, len(keys))
	for _, k := range keys {
		m := byKey[k]
		s := Sample{Name: m.name, Labels: m.labels, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.c.Value())
		case KindGauge:
			s.Value = float64(m.g.Value())
		case KindHistogram:
			s.Value = m.h.Sum()
			s.Count = m.h.Count()
			cum := uint64(0)
			for i := range m.h.counts {
				cum += m.h.counts[i].Load()
				ub := math.Inf(1)
				if i < len(m.h.bounds) {
					ub = m.h.bounds[i]
				}
				s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Count: cum})
			}
		}
		out = append(out, s)
	}
	return out
}

// Value sums the current value of every series named name (all label
// sets) — a convenience for test assertions. Histograms contribute
// their observation count.
func (r *Registry) Value(name string) float64 {
	total := 0.0
	for _, s := range r.Snapshot() {
		if s.Name != name {
			continue
		}
		if s.Kind == KindHistogram {
			total += float64(s.Count)
		} else {
			total += s.Value
		}
	}
	return total
}

// formatValue renders floats without exponent noise for whole numbers.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteText renders every series in the plain-text exposition format
// (one `name{labels} value` line per series, preceded by a # TYPE
// comment), the format peeringd serves on -metrics and peering-cli
// renders with the metrics verb.
func (r *Registry) WriteText(w io.Writer) error {
	lastTyped := ""
	for _, s := range r.Snapshot() {
		if s.Name != lastTyped {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
			lastTyped = s.Name
		}
		switch s.Kind {
		case KindHistogram:
			for _, b := range s.Buckets {
				le := "+Inf"
				if !math.IsInf(b.UpperBound, 1) {
					le = formatValue(b.UpperBound)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					s.Name, labelString(s.Labels, L("le", le)), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, labelString(s.Labels), formatValue(s.Value)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, labelString(s.Labels), s.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, labelString(s.Labels), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Text renders WriteText to a string.
func (r *Registry) Text() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}
