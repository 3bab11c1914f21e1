// Package obs is the gateway-wide observability plane: a dependency-free
// metrics registry (atomic counters, float gauges, bounded histograms with
// p50/p95/p99) plus the per-message trace records the coordination plane
// appends as a message traverses its streamlet chain (trace.go).
//
// The package sits below every runtime package — queue, msgpool, streamlet,
// stream, netem, event, server — and imports only the standard library, so
// any layer can record into the shared default registry without creating
// import cycles. Instrumentation lives in the coordination plane (queue
// operations, the streamlet runtime wrapper, the stream reconfiguration
// protocol), never in streamlet Processor code: cross-cutting measurement
// belongs to the coordinator, exactly as the protocol-coordination
// literature prescribes.
//
// Metric names follow the Prometheus convention (snake_case, unit-suffixed,
// `_total` counters); the full catalog with the paper quantity each metric
// corresponds to is in docs/OBSERVABILITY.md and catalog.go.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is an optional set of series labels. Cardinality discipline is the
// caller's job: the runtime only uses the bounded `streamlet` label (one
// series per instance id in the composition).
type Labels map[string]string

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down, stored atomically.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// IntGauge is an integer-valued gauge updated with a single atomic add.
// Occupancy counts maintained on every queue/pool operation use it instead
// of Gauge: the float Gauge's CAS loop is measurably slower on the hot path
// than one LOCK XADD, and those quantities are integers anyway.
type IntGauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *IntGauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *IntGauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *IntGauge) Value() int64 { return g.v.Load() }

// histogramWindow bounds the per-histogram sample memory: quantiles are
// computed over a sliding window of the most recent observations.
const histogramWindow = 2048

// quantileStaleNs is the idle age-out: once a window has seen no
// observation for this long, its quantiles no longer describe current
// traffic — a snapshot reports them as 0 and marks itself stale instead of
// replaying the last burst's p95/p99 forever. Lifetime count and sum are
// unaffected, and the next observation revives the window.
const quantileStaleNs = int64(60_000_000_000) // 60s

// Histogram records observations (in seconds, by convention) and reports
// count, sum and approximate quantiles over a bounded window of recent
// samples.
type Histogram struct {
	mu    sync.Mutex
	count uint64
	sum   float64
	ring  [histogramWindow]float64
	n     int   // filled slots
	next  int   // next write position
	last  int64 // MonoNow stamp of the most recent observation
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.count++
	h.sum += v
	h.ring[h.next] = v
	h.next = (h.next + 1) % histogramWindow
	if h.n < histogramWindow {
		h.n++
	}
	h.last = MonoNow()
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time view of a histogram. Quantiles are
// computed over the bounded recent-sample window; Count and Sum are
// lifetime totals. All values are in the observation unit (seconds for all
// runtime histograms). Stale marks a window idle past the age-out: its
// quantiles are reported as the 0 sentinel, not as the last burst's values.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Stale bool    `json:"stale,omitempty"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot { return h.snapshotAt(MonoNow()) }

// snapshotAt computes the snapshot against an explicit clock reading (the
// age-out regression tests drive it directly).
func (h *Histogram) snapshotAt(now int64) HistogramSnapshot {
	h.mu.Lock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	stale := h.n > 0 && now-h.last > quantileStaleNs
	samples := make([]float64, h.n)
	copy(samples, h.ring[:h.n])
	h.mu.Unlock()
	if len(samples) == 0 {
		return s
	}
	if stale {
		s.Stale = true
		return s
	}
	sort.Float64s(samples)
	q := func(p float64) float64 {
		idx := int(p * float64(len(samples)-1))
		return samples[idx]
	}
	s.P50, s.P95, s.P99 = q(0.50), q(0.95), q(0.99)
	return s
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		// Quantile-reporting histograms are Prometheus summaries.
		return "summary"
	}
}

// family groups every series registered under one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]any    // label key -> *Counter | *Gauge | *Histogram
	labels map[string]Labels // label key -> labels, for exposition
}

// Registry holds named metric families. The zero value is unusable; use
// NewRegistry or the shared Default registry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var std = func() *Registry {
	r := NewRegistry()
	registerCatalog(r)
	return r
}()

// Default returns the shared gateway-wide registry, pre-seeded with the
// full metric catalog so the exposition endpoint reports every metric from
// startup (zero-valued until first use).
func Default() *Registry { return std }

// labelKey renders labels deterministically for series identity and output.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// seriesName renders the full series identifier (name plus label set).
func seriesName(name, lk string) string {
	if lk == "" {
		return name
	}
	return name + "{" + lk + "}"
}

func (r *Registry) metric(name, help string, kind metricKind, labels Labels, mk func() any) any {
	lk := labelKey(labels)
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if m, ok := f.series[lk]; ok && f.kind == kind {
			r.mu.RUnlock()
			return m
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind,
			series: make(map[string]any), labels: make(map[string]Labels)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}
	if f.help == "" {
		f.help = help
	}
	m, ok := f.series[lk]
	if !ok {
		m = mk()
		f.series[lk] = m
		cp := make(Labels, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
		f.labels[lk] = cp
	}
	return m
}

// Counter returns the counter series for name+labels, creating it on first
// use. help is recorded the first time it is non-empty.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.metric(name, help, counterKind, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge series for name+labels.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.metric(name, help, gaugeKind, labels, func() any { return &Gauge{} }).(*Gauge)
}

// IntGauge returns the integer gauge series for name+labels. A metric name
// is either a Gauge or an IntGauge for its whole lifetime; both expose as
// the Prometheus gauge type.
func (r *Registry) IntGauge(name, help string, labels Labels) *IntGauge {
	return r.metric(name, help, gaugeKind, labels, func() any { return &IntGauge{} }).(*IntGauge)
}

// Histogram returns the histogram series for name+labels.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	return r.metric(name, help, histogramKind, labels, func() any { return &Histogram{} }).(*Histogram)
}

// DefaultCounter returns an unlabeled counter from the default registry;
// catalog metrics carry their help text from pre-registration.
func DefaultCounter(name string) *Counter { return std.Counter(name, "", nil) }

// DefaultGauge returns an unlabeled gauge from the default registry.
func DefaultGauge(name string) *Gauge { return std.Gauge(name, "", nil) }

// DefaultIntGauge returns an unlabeled integer gauge from the default
// registry.
func DefaultIntGauge(name string) *IntGauge { return std.IntGauge(name, "", nil) }

// DefaultHistogram returns a histogram from the default registry; labels
// may be nil for the unlabeled series.
func DefaultHistogram(name string, labels Labels) *Histogram {
	return std.Histogram(name, "", labels)
}

// sortedFamilies returns the families in name order (snapshot of pointers;
// family contents are read under the registry lock by the callers below).
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedSeries returns a family's label keys in deterministic order.
func (r *Registry) sortedSeries(f *family) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	keys := make([]string, 0, len(f.series))
	for lk := range f.series {
		keys = append(keys, lk)
	}
	sort.Strings(keys)
	return keys
}

// familyHelp reads a family's help text under the registry lock: metric
// registration may fill it in while an exposition is rendering.
func (r *Registry) familyHelp(f *family) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return f.help
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Histograms are rendered as summaries with
// quantile series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if help := r.familyHelp(f); help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, lk := range r.sortedSeries(f) {
			r.mu.RLock()
			m := f.series[lk]
			r.mu.RUnlock()
			var err error
			switch v := m.(type) {
			case *Counter:
				_, err = fmt.Fprintf(w, "%s %d\n", seriesName(f.name, lk), v.Value())
			case *Gauge:
				_, err = fmt.Fprintf(w, "%s %g\n", seriesName(f.name, lk), v.Value())
			case *IntGauge:
				_, err = fmt.Fprintf(w, "%s %d\n", seriesName(f.name, lk), v.Value())
			case *Histogram:
				s := v.Snapshot()
				for _, qv := range []struct {
					q string
					v float64
				}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
					ql := lk
					if ql != "" {
						ql += ","
					}
					ql += `quantile="` + qv.q + `"`
					if _, err = fmt.Fprintf(w, "%s %g\n", seriesName(f.name, ql), qv.v); err != nil {
						return err
					}
				}
				if _, err = fmt.Fprintf(w, "%s %g\n", seriesName(f.name+"_sum", lk), s.Sum); err != nil {
					return err
				}
				_, err = fmt.Fprintf(w, "%s %d\n", seriesName(f.name+"_count", lk), s.Count)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// SnapshotValues flattens every series to a name → value map using the
// Prometheus series identities (histograms expand to their quantile series
// plus _sum and _count). The /watch streamer diffs consecutive snapshots to
// emit delta frames.
func (r *Registry) SnapshotValues() map[string]float64 {
	out := make(map[string]float64, 128)
	for _, f := range r.sortedFamilies() {
		for _, lk := range r.sortedSeries(f) {
			r.mu.RLock()
			m := f.series[lk]
			r.mu.RUnlock()
			switch v := m.(type) {
			case *Counter:
				out[seriesName(f.name, lk)] = float64(v.Value())
			case *Gauge:
				out[seriesName(f.name, lk)] = v.Value()
			case *IntGauge:
				out[seriesName(f.name, lk)] = float64(v.Value())
			case *Histogram:
				s := v.Snapshot()
				for _, qv := range []struct {
					q string
					v float64
				}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
					ql := lk
					if ql != "" {
						ql += ","
					}
					ql += `quantile="` + qv.q + `"`
					out[seriesName(f.name, ql)] = qv.v
				}
				out[seriesName(f.name+"_sum", lk)] = s.Sum
				out[seriesName(f.name+"_count", lk)] = float64(s.Count)
			}
		}
	}
	return out
}

// jsonMetric is one series in the JSON exposition.
type jsonMetric struct {
	Type      string             `json:"type"`
	Help      string             `json:"help,omitempty"`
	Value     *float64           `json:"value,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// WriteJSON renders every series as a JSON object keyed by series name.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]jsonMetric)
	for _, f := range r.sortedFamilies() {
		help := r.familyHelp(f)
		for _, lk := range r.sortedSeries(f) {
			r.mu.RLock()
			m := f.series[lk]
			r.mu.RUnlock()
			jm := jsonMetric{Type: f.kind.String(), Help: help}
			switch v := m.(type) {
			case *Counter:
				fv := float64(v.Value())
				jm.Value = &fv
			case *Gauge:
				fv := v.Value()
				jm.Value = &fv
			case *IntGauge:
				fv := float64(v.Value())
				jm.Value = &fv
			case *Histogram:
				s := v.Snapshot()
				jm.Histogram = &s
			}
			out[seriesName(f.name, lk)] = jm
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
