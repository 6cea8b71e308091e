// Package obs is the observability layer of the PAQOC pipeline: a
// zero-dependency metrics registry (atomic counters, gauges, bucketed
// histograms with snapshot/export), a tracing layer (nestable spans with a
// Chrome about:tracing JSON export), and per-job live event streams.
//
// Everything is nil-safe: a nil *Registry hands out nil instruments, and
// every method on a nil instrument or nil *Span is a no-op, so instrumented
// hot paths pay only a nil check when observability is disabled. Context
// plumbing (WithMetrics/WithTracer, MetricsFrom/StartSpan) lets the
// pipeline thread instrumentation through without new required parameters.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated float64 sample.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adjusts the gauge by delta and returns the new value, so
// several producers (e.g. concurrently live worker pools) can share one
// gauge without clobbering each other's Set calls. Returns 0 on nil.
func (g *Gauge) Add(delta float64) float64 {
	if g == nil {
		return 0
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return v
		}
	}
}

// Max raises the gauge to v if v exceeds the stored value.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current sample (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates float64 observations into fixed buckets. All
// updates are atomic; Observe is safe for concurrent use.
type Histogram struct {
	bounds []float64 // ascending upper bounds; implicit +Inf bucket follows
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	min    atomic.Uint64
	max    atomic.Uint64
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.min.Load()
		if old != initSentinel && math.Float64frombits(old) <= v {
			break
		}
		if h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if old != initSentinel && math.Float64frombits(old) >= v {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// initSentinel marks min/max as unset (NaN bits never match a real sample).
var initSentinel = math.Float64bits(math.NaN())

// Registry owns named instruments. Lookup is guarded by a RWMutex; updates
// on the returned instruments are lock-free. A nil *Registry hands out nil
// instruments, making every downstream update a no-op.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	hvecs  map[string]*HistogramVec
	help   map[string]string
	// collectors run at the top of Snapshot, before values are frozen —
	// the hook the runtime collector uses to sample on scrape rather than
	// on a timer. Collectors must not call Snapshot themselves.
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
		hvecs:  map[string]*HistogramVec{},
		help:   map[string]string{},
	}
}

// SetHelp registers a help string for a metric family, emitted as the
// # HELP line of the Prometheus exposition. No-op on a nil registry.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// AddCollector registers a function invoked at the top of every Snapshot,
// before instrument values are frozen. Collectors sample external state
// (runtime stats, pool sizes) into gauges on scrape. No-op on nil.
func (r *Registry) AddCollector(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// DefaultBuckets suit dt-scale latencies and iteration counts.
var DefaultBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (DefaultBuckets when bounds is empty). Later
// calls ignore bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		if len(bounds) == 0 {
			bounds = DefaultBuckets
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = newHistogram(bs)
		r.hists[name] = h
	}
	return h
}

// newHistogram builds a histogram over already-sorted bucket bounds.
func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	h.min.Store(initSentinel)
	h.max.Store(initSentinel)
	return h
}

// Bucket is one histogram bucket in a snapshot: the count of samples with
// value ≤ Le (Le is +Inf for the overflow bucket, serialized as "+Inf").
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is the frozen state of one histogram. P50/P90/P99 are
// interpolated streaming quantiles, precomputed at snapshot time.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	P50     float64  `json:"p50,omitempty"`
	P90     float64  `json:"p90,omitempty"`
	P99     float64  `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets"`
}

// Mean returns Sum/Count (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket where the cumulative count crosses q·Count, the
// standard fixed-bucket estimator. With log-spaced bounds (LogBuckets) the
// relative error is bounded by the bucket ratio. Samples beyond the last
// finite bound resolve to the observed Max; results are clamped to
// [Min, Max] so small-sample quantiles stay inside the observed range.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	target := q * float64(h.Count)
	var cum int64
	lower := 0.0
	for _, b := range h.Buckets {
		next := cum + b.Count
		if float64(next) >= target && b.Count > 0 {
			if math.IsInf(b.Le, 1) {
				break // mass beyond the last finite bound: report Max
			}
			v := lower + (b.Le-lower)*(target-float64(cum))/float64(b.Count)
			return h.clamp(v)
		}
		cum = next
		if !math.IsInf(b.Le, 1) {
			lower = b.Le
		}
	}
	return h.Max
}

func (h HistogramSnapshot) clamp(v float64) float64 {
	if v < h.Min {
		return h.Min
	}
	if v > h.Max {
		return h.Max
	}
	return v
}

// HistogramSeries is one labeled histogram snapshot.
type HistogramSeries struct {
	Values []string `json:"values"`
	HistogramSnapshot
}

// LabeledHistogramSnapshot is the frozen state of one histogram family.
type LabeledHistogramSnapshot struct {
	Labels []string          `json:"labels"`
	Series []HistogramSeries `json:"series"`
}

// Snapshot is a consistent-enough point-in-time copy of a registry,
// serializable to JSON and renderable as a text table.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Labeled families; omitted from the JSON when no vecs are registered,
	// so snapshots of unlabeled registries serialize exactly as before.
	HistogramVecs map[string]LabeledHistogramSnapshot `json:"histogram_vecs,omitempty"`
	// help carries the registered # HELP strings for WritePrometheus.
	help map[string]string
}

// snapshotHistogram freezes one histogram's state.
func snapshotHistogram(h *Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{Count: h.count.Load()}
	hs.Sum = math.Float64frombits(h.sum.Load())
	if mn := h.min.Load(); mn != initSentinel {
		hs.Min = math.Float64frombits(mn)
	}
	if mx := h.max.Load(); mx != initSentinel {
		hs.Max = math.Float64frombits(mx)
	}
	for i := range h.counts {
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		hs.Buckets = append(hs.Buckets, Bucket{Le: le, Count: h.counts[i].Load()})
	}
	if hs.Count > 0 {
		hs.P50 = hs.Quantile(0.50)
		hs.P90 = hs.Quantile(0.90)
		hs.P99 = hs.Quantile(0.99)
	}
	return hs
}

// Snapshot runs the registered collectors, then freezes the registry's
// current values. Returns an empty snapshot on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	collectors := append([]func(){}, r.collectors...)
	r.mu.RUnlock()
	for _, fn := range collectors {
		fn()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = snapshotHistogram(h)
	}
	if len(r.hvecs) > 0 {
		s.HistogramVecs = map[string]LabeledHistogramSnapshot{}
		for name, v := range r.hvecs {
			fam := LabeledHistogramSnapshot{Labels: append([]string(nil), v.labels...)}
			v.mu.RLock()
			keys := sortedKeys(v.children)
			for _, k := range keys {
				ch := v.children[k]
				fam.Series = append(fam.Series, HistogramSeries{Values: ch.values, HistogramSnapshot: snapshotHistogram(ch.h)})
			}
			v.mu.RUnlock()
			s.HistogramVecs[name] = fam
		}
	}
	if len(r.help) > 0 {
		s.help = make(map[string]string, len(r.help))
		for k, v := range r.help {
			s.help[k] = v
		}
	}
	return s
}

// sortedKeys returns the map's keys in sorted order, so snapshot series
// (and therefore the Prometheus exposition) are deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MarshalJSON serializes the bucket, mapping the +Inf bound to the string
// "+Inf" so the output is valid JSON.
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := any(b.Le)
	if math.IsInf(b.Le, 1) {
		le = "+Inf"
	}
	return json.Marshal(struct {
		Le    any   `json:"le"`
		Count int64 `json:"count"`
	}{le, b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    any   `json:"le"`
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	switch v := raw.Le.(type) {
	case float64:
		b.Le = v
	case string:
		b.Le = math.Inf(1)
	default:
		return fmt.Errorf("obs: bucket le has type %T", raw.Le)
	}
	return nil
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as a sorted, human-readable table.
func (s *Snapshot) WriteText(w io.Writer) {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %12d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %12.4g\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(w, "%-40s n=%-8d mean=%-10.4g min=%-10.4g max=%.4g\n",
			n, h.Count, h.Mean(), h.Min, h.Max)
	}
	for _, n := range sortedKeys(s.HistogramVecs) {
		fam := s.HistogramVecs[n]
		for _, se := range fam.Series {
			fmt.Fprintf(w, "%-40s n=%-8d p50=%-10.4g p90=%-10.4g p99=%.4g\n",
				seriesName(n, fam.Labels, se.Values), se.Count, se.P50, se.P90, se.P99)
		}
	}
}

// seriesName renders name{l1=v1,l2=v2} for the text table.
func seriesName(name string, labels, values []string) string {
	out := name + "{"
	for i, l := range labels {
		if i > 0 {
			out += ","
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		out += l + "=" + v
	}
	return out + "}"
}
