// Package obs is a dependency-free metrics registry for the Datalog
// engine and service: atomic counters, gauges (stored or computed), and
// fixed-bucket histograms, exportable as a JSON snapshot or in the
// Prometheus text exposition format. It exists so the service can expose
// live operational counters at /v1/metrics without pulling an external
// metrics library into the module.
//
// Concurrency: registration is guarded by the registry's lock and is
// expected to happen once at construction; Observe/Add/Inc/Set on the
// returned metric handles are safe for concurrent use and are the hot
// path (a single atomic op for counters and gauges).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// metric is the common behavior the registry needs from every kind.
type metric interface {
	kind() string
	helpText() string
	// snapshotValue returns the metric's JSON representation.
	snapshotValue() any
	// writeProm writes the Prometheus sample lines (not the HELP/TYPE
	// header) for the metric.
	writeProm(w io.Writer, name string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

// register installs m under name, or returns the existing metric. A name
// collision across kinds is a programming error and panics.
func (r *Registry) register(name string, m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.metrics[name]; ok {
		if old.kind() != m.kind() {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, m.kind(), old.kind()))
		}
		return old
	}
	r.metrics[name] = m
	return m
}

// Counter is a monotonically increasing int64.
type Counter struct {
	help string
	v    atomic.Int64
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, &Counter{help: help}).(*Counter)
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) kind() string     { return "counter" }
func (c *Counter) helpText() string { return c.help }
func (c *Counter) snapshotValue() any {
	return map[string]any{"type": "counter", "value": c.Value()}
}
func (c *Counter) writeProm(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.Value())
}

// Gauge is a settable int64 level.
type Gauge struct {
	help string
	v    atomic.Int64
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, &Gauge{help: help}).(*Gauge)
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the level by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// SetMax raises the gauge to v if v exceeds the current level (an atomic
// running maximum — used for high-water marks like peak buffered tuples).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (g *Gauge) kind() string     { return "gauge" }
func (g *Gauge) helpText() string { return g.help }
func (g *Gauge) snapshotValue() any {
	return map[string]any{"type": "gauge", "value": g.Value()}
}
func (g *Gauge) writeProm(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, g.Value())
}

// gaugeFunc samples a live value at export time — for levels the owner
// already tracks (cache entries, store version) that would be wasteful to
// mirror on every change.
type gaugeFunc struct {
	help string
	f    func() float64
}

// GaugeFunc registers a gauge whose value is computed by f at snapshot
// time. f must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, &gaugeFunc{help: help, f: f})
}

func (g *gaugeFunc) kind() string     { return "gauge" }
func (g *gaugeFunc) helpText() string { return g.help }
func (g *gaugeFunc) snapshotValue() any {
	return map[string]any{"type": "gauge", "value": g.f()}
}
func (g *gaugeFunc) writeProm(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.f()))
}

// counterFunc samples a monotone total at export time — for counters an
// owning subsystem already maintains in its own atomics (the planner's
// lifetime totals) that would be wasteful to mirror on every increment.
type counterFunc struct {
	help string
	f    func() int64
}

// CounterFunc registers a counter whose value is sampled from f at
// snapshot time. f must be monotone non-decreasing and safe for
// concurrent use.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	r.register(name, &counterFunc{help: help, f: f})
}

func (c *counterFunc) kind() string     { return "counter" }
func (c *counterFunc) helpText() string { return c.help }
func (c *counterFunc) snapshotValue() any {
	return map[string]any{"type": "counter", "value": c.f()}
}
func (c *counterFunc) writeProm(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.f())
}

// Histogram is a fixed-bucket histogram of float64 observations
// (conventionally seconds, following Prometheus usage).
type Histogram struct {
	help    string
	uppers  []float64 // sorted inclusive upper bounds
	mu      sync.Mutex
	counts  []int64 // len(uppers)+1; last bucket is +Inf
	sum     float64
	samples int64
}

// DefaultLatencyBuckets spans 100µs to ~100s in roughly 3x steps — wide
// enough for both sub-millisecond materialized reads and multi-second
// from-scratch evaluations.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100,
}

// Histogram registers (or returns the existing) histogram under name with
// the given inclusive upper bounds (sorted ascending; a trailing +Inf
// bucket is implicit). Passing nil uses DefaultLatencyBuckets.
func (r *Registry) Histogram(name, help string, uppers []float64) *Histogram {
	if uppers == nil {
		uppers = DefaultLatencyBuckets
	}
	uppers = append([]float64(nil), uppers...)
	sort.Float64s(uppers)
	h := &Histogram{help: help, uppers: uppers, counts: make([]int64, len(uppers)+1)}
	return r.register(name, h).(*Histogram)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first bucket with upper >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.samples++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts
// by linear interpolation inside the bucket holding the target rank — the
// same estimate promql's histogram_quantile computes. The estimate for
// ranks landing in the +Inf bucket is clamped to the largest finite upper
// bound, and NaN is returned when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	samples := h.samples
	h.mu.Unlock()
	return quantile(h.uppers, counts, samples, q)
}

// quantile is the interpolation shared by Quantile and the renderings
// (which hold the lock and pass copied state).
func quantile(uppers []float64, counts []int64, samples int64, q float64) float64 {
	if samples == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(samples)
	cum := int64(0)
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(uppers) {
			// Target rank in the +Inf bucket: clamp to the last finite bound.
			if len(uppers) == 0 {
				return math.NaN()
			}
			return uppers[len(uppers)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = uppers[i-1]
		}
		if c == 0 {
			return uppers[i]
		}
		inBucket := rank - float64(cum-c)
		return lo + (uppers[i]-lo)*(inBucket/float64(c))
	}
	if len(uppers) == 0 {
		return math.NaN()
	}
	return uppers[len(uppers)-1]
}

// summaryQuantiles are the latency percentiles both renderings attach to
// every non-empty histogram, so a consumer reads p50/p95/p99 straight off
// /v1/metrics without external tooling.
var summaryQuantiles = []struct {
	name string
	q    float64
}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}}

func (h *Histogram) kind() string     { return "histogram" }
func (h *Histogram) helpText() string { return h.help }

func (h *Histogram) snapshotValue() any {
	h.mu.Lock()
	defer h.mu.Unlock()
	buckets := map[string]int64{}
	cum := int64(0)
	for i, up := range h.uppers {
		cum += h.counts[i]
		buckets[formatFloat(up)] = cum
	}
	buckets["+Inf"] = h.samples
	out := map[string]any{
		"type": "histogram", "count": h.samples, "sum": h.sum, "buckets": buckets,
	}
	if h.samples > 0 {
		// Only when non-empty: NaN has no JSON encoding.
		for _, sq := range summaryQuantiles {
			out[sq.name] = quantile(h.uppers, h.counts, h.samples, sq.q)
		}
	}
	return out
}

func (h *Histogram) writeProm(w io.Writer, name string) {
	h.mu.Lock()
	uppers := h.uppers
	counts := append([]int64(nil), h.counts...)
	sum, samples := h.sum, h.samples
	h.mu.Unlock()
	cum := int64(0)
	for i, up := range uppers {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(up), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, samples)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(sum))
	fmt.Fprintf(w, "%s_count %d\n", name, samples)
	if samples > 0 {
		// Pre-computed quantile estimates alongside the raw buckets, named
		// like promql's histogram_quantile output would be recorded.
		for _, sq := range summaryQuantiles {
			fmt.Fprintf(w, "%s_%s %s\n", name, sq.name, formatFloat(quantile(uppers, counts, samples, sq.q)))
		}
	}
}

// formatFloat renders a float the way Prometheus clients expect (shortest
// round-trip representation, no exponent for common magnitudes).
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// names returns the registered metric names, sorted.
func (r *Registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// get returns the metric registered under name.
func (r *Registry) get(name string) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}

// Snapshot returns a JSON-marshalable view of every metric, keyed by
// name. Map keys marshal sorted, so the output is deterministic given
// deterministic metric values.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	for _, name := range r.names() {
		out[name] = r.get(name).snapshotValue()
	}
	return out
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4), sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, name := range r.names() {
		m := r.get(name)
		if help := m.helpText(); help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, m.kind())
		m.writeProm(w, name)
	}
}
