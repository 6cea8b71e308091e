package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
)

// Labeled metric families. A HistogramVec is a family of histograms
// sharing one name, one bucket layout and a small, fixed set of label
// names; WithLabelValues resolves (or creates) the child histogram for one
// combination of label values. The family follows the package's
// nil-safety contract end to end: a nil registry hands out a nil vec, a
// nil vec hands out nil children, and every update on a nil child is a
// no-op — so instrumented hot paths pay only nil checks when
// observability is disabled.
//
// Label cardinality is the caller's responsibility: label values must come
// from small closed sets (a stage name, an outcome, a dimension), never
// from unbounded inputs (job IDs, circuit text), or the registry grows
// without limit and the Prometheus exposition becomes unusable.

// labelSep joins label values into a child key. The separator is an ASCII
// control character that never appears in the closed label-value sets this
// codebase uses.
const labelSep = "\x1f"

// labelKey builds the child-map key for a value tuple, padding missing
// values with "" and ignoring extras so a miscounted call site degrades to
// a well-defined series instead of panicking in production telemetry.
func labelKey(labels, values []string) string {
	if len(labels) == 1 {
		if len(values) >= 1 {
			return values[0]
		}
		return ""
	}
	var b strings.Builder
	for i := range labels {
		if i > 0 {
			b.WriteString(labelSep)
		}
		if i < len(values) {
			b.WriteString(values[i])
		}
	}
	return b.String()
}

// normalizeValues copies values, padded/truncated to the label arity.
func normalizeValues(labels, values []string) []string {
	out := make([]string, len(labels))
	copy(out, values)
	return out
}

// HistogramVec is a family of histograms sharing one bucket layout, keyed
// by label values.
type HistogramVec struct {
	labels   []string
	bounds   []float64
	mu       sync.RWMutex
	children map[string]*histChild
}

type histChild struct {
	values []string
	h      *Histogram
}

// WithLabelValues returns the histogram for one label-value tuple,
// creating it on first use. Returns nil on a nil vec.
func (v *HistogramVec) WithLabelValues(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	key := labelKey(v.labels, values)
	v.mu.RLock()
	ch := v.children[key]
	v.mu.RUnlock()
	if ch == nil {
		v.mu.Lock()
		if ch = v.children[key]; ch == nil {
			ch = &histChild{values: normalizeValues(v.labels, values), h: newHistogram(v.bounds)}
			v.children[key] = ch
		}
		v.mu.Unlock()
	}
	return ch.h
}

// HistogramVec returns the named histogram family, creating it with the
// given bucket upper bounds (DefaultBuckets when empty) and label names on
// first use. Later calls ignore both. Returns nil on a nil registry.
func (r *Registry) HistogramVec(name string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	v := r.hvecs[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = r.hvecs[name]; v == nil {
		if len(bounds) == 0 {
			bounds = DefaultBuckets
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		v = &HistogramVec{labels: append([]string(nil), labels...), bounds: bs, children: map[string]*histChild{}}
		r.hvecs[name] = v
	}
	return v
}

// LogBuckets returns log-spaced histogram bucket bounds from min up to (at
// least) max, with perDecade bounds per factor of ten. Log spacing keeps
// the relative quantile-interpolation error flat across orders of
// magnitude — the right layout for latencies that span microseconds to
// minutes. Falls back to DefaultBuckets on degenerate arguments.
func LogBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade <= 0 {
		return append([]float64(nil), DefaultBuckets...)
	}
	ratio := math.Pow(10, 1/float64(perDecade))
	var out []float64
	for b := min; ; b *= ratio {
		out = append(out, b)
		if b >= max {
			return out
		}
	}
}

// LatencyBuckets is the canonical wall-clock layout for the per-stage and
// per-job latency histograms: log-spaced milliseconds from 1 µs to 60 s,
// three buckets per decade.
var LatencyBuckets = LogBuckets(0.001, 60_000, 3)

// StageMetric is the shared per-stage wall-clock histogram family
// (milliseconds, LatencyBuckets) labeled by "stage". The compiler observes
// mine/initial_blocks/apply_apa/optimize/emit (plus commute when enabled);
// the GRAPE generator, the pulse simulator, and the pulse DB observe
// grape/pulsesim/db_lookup/db_store into the same family. Defined here so
// every layer of the pipeline shares one name without import cycles.
const StageMetric = "paqoc.stage_ms"
