package obs

import (
	"math"
	"sync"
	"testing"
)

func TestVecChildIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("stage_ms", nil, "stage")
	a := v.WithLabelValues("mine")
	b := v.WithLabelValues("mine")
	if a != b {
		t.Error("same label values must resolve to the same child")
	}
	if v.WithLabelValues("emit") == a {
		t.Error("distinct label values must resolve to distinct children")
	}
	// The registry must also hand back the same family on re-lookup,
	// ignoring later label-name arguments per the documented contract.
	if r.HistogramVec("stage_ms", nil, "other") != v {
		t.Error("re-lookup must return the existing family")
	}
}

func TestVecLabelArityDegradesGracefully(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("reqs_ms", nil, "method", "code")
	v.WithLabelValues("GET", "200").Observe(1)
	v.WithLabelValues("GET").Observe(1)             // missing value pads to ""
	v.WithLabelValues("GET", "200", "x").Observe(1) // extra value ignored

	snap := r.Snapshot()
	fam := snap.HistogramVecs["reqs_ms"]
	if len(fam.Series) != 2 {
		t.Fatalf("series = %d, want 2 (padded and full tuples)", len(fam.Series))
	}
	for _, se := range fam.Series {
		if len(se.Values) != 2 {
			t.Errorf("series values %v not normalized to label arity", se.Values)
		}
	}
}

func TestVecNilSafety(t *testing.T) {
	var r *Registry
	hv := r.HistogramVec("x", nil, "l")
	if hv != nil {
		t.Fatal("nil registry must hand out a nil vec")
	}
	// Nil vec -> nil child -> no-op update; neither may panic.
	if hv.WithLabelValues("a") != nil {
		t.Error("nil vec must hand out a nil child")
	}
	hv.WithLabelValues("a").Observe(1)
}

// TestDisabledPathAllocationFree pins the acceptance criterion that
// instrumented hot paths are allocation-clean when observability is off:
// the whole nil chain — registry → vec → child → update — must not
// allocate.
func TestDisabledPathAllocationFree(t *testing.T) {
	var r *Registry
	hv := r.HistogramVec(StageMetric, LatencyBuckets, "stage")
	if n := testing.AllocsPerRun(100, func() {
		hv.WithLabelValues("mine").Observe(1.5)
		r.Counter("y").Inc()
		r.Gauge("z").Set(1)
	}); n != 0 {
		t.Errorf("disabled path allocates %.1f per op, want 0", n)
	}
}

func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	stages := []string{"mine", "optimize", "emit", "grape"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := r.HistogramVec(StageMetric, LatencyBuckets, "stage")
			for i := 0; i < 1000; i++ {
				v.WithLabelValues(stages[i%len(stages)]).Observe(float64(i))
			}
		}(w)
	}
	wg.Wait()
	fam := r.Snapshot().HistogramVecs[StageMetric]
	if len(fam.Series) != len(stages) {
		t.Fatalf("series = %d, want %d", len(fam.Series), len(stages))
	}
	var total int64
	for _, se := range fam.Series {
		total += se.Count
	}
	if total != 8*1000 {
		t.Errorf("total observations = %d, want 8000", total)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(0.001, 60_000, 3)
	if b[0] != 0.001 {
		t.Errorf("first bound = %g, want 0.001", b[0])
	}
	if last := b[len(b)-1]; last < 60_000 {
		t.Errorf("last bound = %g, must cover max 60000", last)
	}
	ratio := math.Pow(10, 1.0/3)
	for i := 1; i < len(b); i++ {
		if got := b[i] / b[i-1]; math.Abs(got-ratio) > 1e-9 {
			t.Fatalf("bucket ratio at %d = %g, want %g", i, got, ratio)
		}
	}
	// Degenerate arguments fall back to the default layout.
	if got := LogBuckets(0, 10, 3); len(got) != len(DefaultBuckets) {
		t.Error("degenerate min must fall back to DefaultBuckets")
	}
	if got := LogBuckets(10, 1, 3); len(got) != len(DefaultBuckets) {
		t.Error("inverted range must fall back to DefaultBuckets")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{10, 20, 30, 40})
	// 100 uniform samples in (0, 40]: quantiles should track q*40 within
	// one bucket width, and exactly at bucket boundaries by construction.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	s := r.Snapshot().Histograms["q"]
	for _, tc := range []struct{ q, want float64 }{
		{0.25, 10}, {0.50, 20}, {0.75, 30}, {0.90, 36},
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 0.5 {
			t.Errorf("Quantile(%g) = %g, want %g ± 0.5", tc.q, got, tc.want)
		}
	}
	// Precomputed snapshot quantiles must agree with on-demand ones.
	if s.P50 != s.Quantile(0.50) || s.P90 != s.Quantile(0.90) || s.P99 != s.Quantile(0.99) {
		t.Error("snapshot P50/P90/P99 disagree with Quantile")
	}
}

func TestQuantileClampAndEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{1000})
	h.Observe(5) // single sample deep inside a wide bucket
	s := r.Snapshot().Histograms["q"]
	// Interpolation would say ~500; the clamp pins it to the observed max.
	if got := s.Quantile(0.5); got != 5 {
		t.Errorf("clamped quantile = %g, want 5", got)
	}
	if s.Quantile(0) != s.Min || s.Quantile(1) != s.Max {
		t.Error("q<=0 / q>=1 must return Min / Max")
	}
	// Samples past the last finite bound resolve to Max, not +Inf.
	h.Observe(9999)
	s = r.Snapshot().Histograms["q"]
	if got := s.Quantile(0.99); got != 9999 {
		t.Errorf("overflow-bucket quantile = %g, want observed max 9999", got)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
}
