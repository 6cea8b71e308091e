package main

import (
	"context"
	"fmt"
	"time"

	"paqoc/internal/circuit"
	"paqoc/internal/critical"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
	"paqoc/internal/route"
	"paqoc/internal/topology"
	"paqoc/internal/transpile"
)

// namedCircuit is one logical input circuit.
type namedCircuit struct {
	name string
	c    *circuit.Circuit
}

// compileRun is one timed compile of one circuit by one method.
type compileRun struct {
	method string
	dur    time.Duration
	// slow is the host's slowdown around the compile (speed.go).
	slow   float64
	alloc  uint64
	blocks *critical.BlockCircuit
	// latency is the compiled critical path; initial the fixed-gate
	// baseline's (0 for methods that report none).
	latency, initial, esp float64
	err                   error
}

// circuitRun is what one input costs: routing, then every method.
type circuitRun struct {
	name       string
	phys       *circuit.Circuit
	route      time.Duration
	routeAlloc uint64
	compiles   []compileRun
}

func (r *circuitRun) total() time.Duration {
	t := r.route
	for _, c := range r.compiles {
		t += c.dur
	}
	return t
}

// scaledMs is total() in ms at the reference host speed: each compile is
// scaled by the slowdown measured around it, and routing by the first's.
func (r *circuitRun) scaledMs() float64 {
	t := ms(r.route) / r.compiles[0].slow
	for _, c := range r.compiles {
		t += ms(c.dur) / c.slow
	}
	return t
}

// batchWorkload is a workload that compiles a fixed input list in rounds:
// sweep_analytical and grape_emit.
type batchWorkload struct {
	inputs []namedCircuit
	// slo is the per-compile latency limit behind slo_met_share, at the
	// reference host speed.
	slo time.Duration
	// compile routes one input and compiles it with every method. With a
	// non-nil layerRun it also records the benchmark's own per-layer
	// timings; ctx then carries the obs registry and tracer.
	compile func(ctx context.Context, in namedCircuit, l *layerRun) (*circuitRun, error)
	// check verifies one input's compiled outputs; each string is a failure.
	check func(ctx context.Context, r *circuitRun) []string
}

// routeCircuit lowers and routes a logical circuit, timing the call.
func routeCircuit(c *circuit.Circuit, topo *topology.Topology, l *layerRun) (*circuitRun, error) {
	a0 := readRuntime().allocBytes
	t0 := time.Now()
	phys, rr, err := transpile.ToPhysical(c, topo, route.DefaultOptions())
	d := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	if l != nil {
		l.routes++
		l.routeTime += d
		l.swaps += rr.SwapCount
	}
	return &circuitRun{phys: phys, route: d, routeAlloc: readRuntime().allocBytes - a0}, nil
}

// timeCompile runs one method's compile, recording its wall time, the
// host's slowdown just before and after it, and the bytes it allocated.
func timeCompile(method string, fn func() (compileRun, error)) compileRun {
	before := hostSpeed.local()
	a0 := readRuntime().allocBytes
	t0 := time.Now()
	r, err := fn()
	r.dur = time.Since(t0)
	r.alloc = readRuntime().allocBytes - a0
	r.slow = (before + hostSpeed.local()) / 2
	r.method = method
	r.err = err
	return r
}

// recordDB adds a pulse database's hit/miss counts to the layer record.
func recordDB(l *layerRun, db *pulse.DB) {
	if l == nil || db == nil {
		return
	}
	h, m := db.Stats()
	l.dbHits += h
	l.dbMisses += m
}

// timing is one measured time, as measured and at the reference host
// speed.
type timing struct{ raw, scaled float64 }

// measure compiles the inputs in turn, round after round, until the next
// compile would overrun opts.seconds (after at least one full round), and
// reports the end-to-end metrics. Every time is the median over an input's
// repeats, so the metrics weigh every input once however many repeats fit:
// compile_ms_* are quantiles of the per-(input, method) medians, and
// circuits_per_s is one round's compiles over the sum of the per-input
// median times. Times are scaled to the reference host speed compile by
// compile, set-up by the run's slowdown; the measured figures are kept in
// the outcome's raw values. An
// input's first compile is checked in full; a repeat must reproduce it
// exactly. Quality and allocation metrics come from the first round alone,
// so they do not depend on how many repeats fit.
func (b *batchWorkload) measure(ctx context.Context, opts options, setup time.Duration) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	n := len(b.inputs)
	first := make([]*circuitRun, n)
	totals := make([][]timing, n)
	compileTimes := make([][][]timing, n)
	var ratios, esps []float64
	var allocs uint64
	sloMet := 0
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for k := 0; ; k++ {
		i := k % n
		if k >= n && time.Now().Add(first[i].total()).After(deadline) {
			break
		}
		in := b.inputs[i]
		r, err := b.compile(ctx, in, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		var failures []string
		if first[i] == nil {
			failures = b.check(ctx, r)
			first[i] = r
			compileTimes[i] = make([][]timing, len(r.compiles))
		} else {
			failures = sameOutputs(first[i], r)
		}
		for _, f := range failures {
			out.checkFailed("%s: %s", in.name, f)
		}
		if k < n {
			allocs += r.routeAlloc
		}
		totals[i] = append(totals[i], timing{ms(r.total()), r.scaledMs()})
		for j, c := range r.compiles {
			out.attempted++
			if c.err != nil || len(failures) > 0 {
				out.failed++
			}
			if c.err != nil {
				continue
			}
			scaled := ms(c.dur) / c.slow
			compileTimes[i][j] = append(compileTimes[i][j], timing{ms(c.dur), scaled})
			if k < n {
				allocs += c.alloc
			}
			if scaled <= ms(b.slo) && len(failures) == 0 {
				sloMet++
			}
			if k < n {
				if c.initial > 0 {
					ratios = append(ratios, c.latency/c.initial)
				}
				esps = append(esps, c.esp)
			}
		}
		if i == n-1 {
			out.passes++
		}
	}
	roundCompiles := 0
	for i := range b.inputs {
		roundCompiles += len(first[i].compiles)
	}
	// timeMetrics computes the time metrics from one of a timing's fields.
	timeMetrics := func(v func(timing) float64) map[string]float64 {
		median := func(ts []timing) float64 {
			xs := make([]float64, len(ts))
			for k, t := range ts {
				xs[k] = v(t)
			}
			return quantile(xs, 0.5)
		}
		var compileMed, responseMed []float64
		var roundMs float64
		for i := range b.inputs {
			t := median(totals[i])
			responseMed = append(responseMed, t)
			roundMs += t
			for _, ts := range compileTimes[i] {
				if len(ts) > 0 {
					compileMed = append(compileMed, median(ts))
				}
			}
		}
		return map[string]float64{
			"circuits_per_s":  float64(roundCompiles) / (roundMs / 1000),
			"compile_ms_p50":  quantile(compileMed, 0.5),
			"compile_ms_p90":  quantile(compileMed, 0.9),
			"response_ms_p50": quantile(responseMed, 0.5),
			"response_ms_p90": quantile(responseMed, 0.9),
		}
	}
	out.values = timeMetrics(func(t timing) float64 { return t.scaled })
	out.raw = timeMetrics(func(t timing) float64 { return t.raw })
	// Set-up is scaled by the slowdown over the whole run: the probe
	// reads a core that was idle just before as slow.
	out.raw["setup_s"] = setup.Seconds()
	out.values["setup_s"] = setup.Seconds() / hostSpeed.slowdown()
	out.values["slo_met_share"] = float64(sloMet) / float64(out.attempted)
	out.values["latency_ratio_geomean"] = geomean(ratios)
	out.values["esp_geomean"] = geomean(esps)
	out.values["alloc_mb_per_circuit"] = float64(allocs) / float64(roundCompiles) / (1 << 20)
	out.values["peak_rss_mb"] = peakRSSMB()
	return out, nil
}

// sameOutputs checks that a repeated compile of an input reproduced the
// first one: the compiler is deterministic, so any difference is a fault.
func sameOutputs(a, b *circuitRun) []string {
	var failures []string
	for j, c := range b.compiles {
		f := a.compiles[j]
		if (c.err == nil) != (f.err == nil) || c.latency != f.latency || c.esp != f.esp || c.initial != f.initial {
			failures = append(failures, fmt.Sprintf("%s: repeat compile differs from the first", c.method))
		}
	}
	return failures
}

// traced runs one round in which every input is compiled twice, first
// bare and then with an obs registry and tracer attached, under one CPU
// profile. The per-layer metrics come from the traced compiles; the time
// difference between the pairs is the tracing overhead.
func (b *batchWorkload) traced(ctx context.Context, opts options) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, passes: 1}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	tctx := (&obs.Obs{Metrics: reg, Tracer: tracer}).Attach(ctx)
	l := &layerRun{}
	rt0 := readRuntime()
	prof, err := startCPUProfile(opts.outDir, fmt.Sprintf("%s-%d", opts.workload, opts.seed))
	if err != nil {
		return nil, err
	}
	var plain, withObs time.Duration
	for _, in := range b.inputs {
		bare, err := b.compile(ctx, in, nil)
		if err != nil {
			_ = prof.stop() // the compile error is the one to report
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		r, err := b.compile(tctx, in, l)
		if err != nil {
			_ = prof.stop() // the compile error is the one to report
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		plain += bare.total()
		withObs += r.total()
		failures := b.check(ctx, r)
		// Observability must not change what the compiler produces.
		for i, c := range r.compiles {
			if c.err == nil && bare.compiles[i].err == nil && (c.latency != bare.compiles[i].latency || c.esp != bare.compiles[i].esp) {
				failures = append(failures, fmt.Sprintf("%s: traced compile differs from the bare one", c.method))
			}
		}
		for _, f := range failures {
			out.checkFailed("%s: %s", in.name, f)
		}
		for _, c := range r.compiles {
			out.attempted++
			if c.err != nil || len(failures) > 0 {
				out.failed++
			}
		}
	}
	attr, err := prof.attribute(ctx)
	if err != nil {
		return nil, err
	}
	printAttribution(attr)
	l.prof = attr
	l.gcShare = gcShare(rt0, readRuntime())
	l.counters = reg.Snapshot().Counters
	l.stages = stageTimes(tracer.Summary())
	l.overhead = withObs.Seconds()/plain.Seconds() - 1
	l.generateP50, l.generateP90 = quantile(l.generateMs, 0.5), quantile(l.generateMs, 0.9)
	out.values = l.metrics()
	return out, nil
}
