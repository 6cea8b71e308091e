// Package grape implements GRadient Ascent Pulse Engineering (Khaneja et
// al.; Leung et al. [31]) from scratch: piecewise-constant controls, exact
// slice propagators, the first-order fidelity gradient, ADAM updates
// (the optimizer the paper selects, §VI-d), amplitude clipping to hardware
// bounds, and a search for the minimum pulse duration achieving a target
// fidelity — which is exactly the latency PAQOC minimizes. The search
// starts at a duration prior (the Generator supplies the analytical
// model's estimate), doubles until a probe reaches the target, and then
// descends one slice at a time to the first miss (MinimumTimeCtx).
//
// The inner loop runs on the destination-passing linalg kernels: one
// arena of propagator/gradient buffers is allocated per optimization
// call (and shared across a minimum-time search's duration probes), so
// ADAM iterations allocate nothing. The value-returning formulation lives
// on in the tests as the bit-identity oracle (OptimizeReference).
package grape

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
)

// Fixed optimizer settings, the same for every caller.
const (
	sliceDt      float64 = 4     // dt per slice
	learningRate float64 = 0.003 // ADAM step size, rad/dt
	minSlices            = 2     // minimum-time search lower bound
)

// Options configures the optimizer.
type Options struct {
	MaxIter        int     // ADAM iterations per duration trial (default 300)
	TargetFidelity float64 // success threshold (default 0.999)
	Seed           int64   // RNG seed for the initial guess
	MaxSlices      int     // minimum-time search upper bound (default 128)
	// InitialGuess, when set, is the first duration probe's starting
	// amplitudes: each control takes the channel of the same name,
	// resampled to the probe's slice count. A schedule missing a control's
	// channel, with an empty channel, or with every sample zero is ignored
	// and the probe starts from a random draw. Every later probe of a
	// minimum-time search starts from its predecessor's best amplitudes.
	InitialGuess *pulse.Schedule
	// Deprecated: has no effect. The inner loop always runs serially;
	// concurrency comes from optimizing independent blocks at once.
	Workers int
	// HintSlices, when positive, is the slice count the minimum-time
	// search probes first instead of the lower bound (clamped to the
	// search range): the duration prior. The Generator sets it from a
	// near-miss cache hit's schedule, or else from the analytical model's
	// estimate. Probes below a failed hint are skipped, under the same
	// monotonicity assumption the descent itself makes.
	HintSlices int
	// OnIteration, when non-nil, is invoked with every iteration's
	// convergence point.
	OnIteration func(obs.ConvergencePoint)
}

// DefaultOptions returns the settings used across the evaluation.
func DefaultOptions() Options {
	var o Options
	o.fill()
	return o
}

func (o *Options) fill() {
	if o.MaxIter == 0 {
		o.MaxIter = 300
	}
	if o.TargetFidelity == 0 {
		o.TargetFidelity = 0.999
	}
	if o.MaxSlices == 0 {
		o.MaxSlices = 128
	}
}

// Result of one fixed-duration optimization.
type Result struct {
	Amps     [][]float64 // Amps[k][j]: control k, slice j
	Fidelity float64
	Iters    int
}

// arena holds the reusable buffers of the GRAPE inner loop for one
// optimization call — or, via MinimumTimeCtx, for a whole duration search,
// where every duration probe reuses the same storage (buffers grow to
// the largest slice count seen and shrink by reslicing). Nothing a probe
// computes passes through it to the next probe: a probe's starting
// amplitudes are optimize's guess argument. An arena is
// owned by a single goroutine and never escapes into a Result: best-so-
// far amplitudes are snapshotted into per-call storage.
type arena struct {
	dim int
	ws  *linalg.Workspace
	// props[j] is slice j's propagator; fwd[j] = U_j···U_1 (fwd[0] = I).
	props, fwd []*linalg.Matrix
	// c / cNext ping-pong the backward cumulative product; d holds
	// X_j·C_j; targetDag caches V† for the whole call.
	c, cNext, d, targetDag *linalg.Matrix
	sliceAmps              []float64
	amps, grads, m, v      [][]float64

	// traces[k] lists control k's nonzero generator entries for the
	// gradient traces (sparseTrace), indexed once per system: every
	// probe of a minimum-time search shares traceSys.
	traceSys *hamiltonian.System
	traces   [][]traceEntry
}

// traceEntry is one nonzero entry v = H[r][c] of a control generator and
// the index at = c·n+r of the X_j·C_j entry it multiplies in tr(X_j·C_j·H).
type traceEntry struct {
	at int32
	v  complex128
}

func newArena() *arena { return &arena{} }

// ensure sizes every buffer for a (dim, controls, slices) problem,
// reusing prior storage where shapes allow.
func (ar *arena) ensure(dim, nc, slices int) {
	if ar.dim != dim {
		ar.dim = dim
		ar.ws = linalg.NewWorkspace(dim)
		ar.c = linalg.New(dim, dim)
		ar.cNext = linalg.New(dim, dim)
		ar.d = linalg.New(dim, dim)
		ar.targetDag = linalg.New(dim, dim)
		ar.props, ar.fwd = nil, nil
	}
	for len(ar.props) < slices {
		ar.props = append(ar.props, linalg.New(dim, dim))
	}
	for len(ar.fwd) < slices+1 {
		ar.fwd = append(ar.fwd, linalg.New(dim, dim))
	}
	if cap(ar.sliceAmps) < nc {
		ar.sliceAmps = make([]float64, nc)
	}
	ar.sliceAmps = ar.sliceAmps[:nc]
	ar.amps = growRows(ar.amps, nc, slices)
	ar.grads = growRows(ar.grads, nc, slices)
	ar.m = growRows(ar.m, nc, slices)
	ar.v = growRows(ar.v, nc, slices)
}

// indexTraces lists each control generator's nonzero entries in
// traceProduct's (i, k) order, unless the arena already holds sys's lists.
// One slab holds every list, so indexing a system allocates twice.
func (ar *arena) indexTraces(sys *hamiltonian.System) {
	if ar.traceSys == sys {
		return
	}
	n := sys.Dim
	count := 0
	for _, c := range sys.Controls {
		for _, v := range c.H.Data {
			if v != 0 {
				count++
			}
		}
	}
	slab := make([]traceEntry, 0, count)
	ar.traces = make([][]traceEntry, len(sys.Controls))
	for k, c := range sys.Controls {
		start := len(slab)
		for i := 0; i < n; i++ {
			for r := 0; r < n; r++ {
				if v := c.H.Data[r*n+i]; v != 0 {
					slab = append(slab, traceEntry{at: int32(i*n + r), v: v})
				}
			}
		}
		ar.traces[k] = slab[start:len(slab):len(slab)]
	}
	ar.traceSys = sys
}

// sparseTrace returns tr(A·H) for the generator H listed in h: the terms
// of traceProduct(A, H) whose H entry is nonzero, in the same order. The
// result is bit-identical to traceProduct's for finite A, because every
// skipped term is a product with zero and the running sum, starting at
// +0, never holds −0.
func sparseTrace(a *linalg.Matrix, h []traceEntry) complex128 {
	var t complex128
	for _, e := range h {
		t += linalg.CMul(a.Data[e.at], e.v)
	}
	return t
}

func growRows(rows [][]float64, nc, slices int) [][]float64 {
	for len(rows) < nc {
		rows = append(rows, nil)
	}
	rows = rows[:nc]
	for k := range rows {
		if cap(rows[k]) < slices {
			rows[k] = make([]float64, slices)
		}
		rows[k] = rows[k][:slices]
	}
	return rows
}

// OptimizeCtx is the real optimizer entry point, with observability: when
// the context carries a metrics registry, per-iteration counters
// (grape.iterations, grape.expm) and the gradient-norm histogram are
// updated.
func OptimizeCtx(ctx context.Context, sys *hamiltonian.System, target *linalg.Matrix, slices int, opts Options) *Result {
	return optimize(ctx, sys, target, slices, opts, alignGuess(sys, opts.InitialGuess), newArena())
}

// optimize is the allocation-free inner loop. It starts from guess
// (per-control samples in control order, each resampled by its own length
// to the slice count), or from a random draw when guess is nil. All
// per-iteration storage lives in ar; numerical results are bit-identical
// to OptimizeReference (same operation order, only storage reuse — pinned
// by TestOptimizeMatchesReference).
func optimize(ctx context.Context, sys *hamiltonian.System, target *linalg.Matrix, slices int, opts Options, guess [][]float64, ar *arena) *Result {
	opts.fill()
	reg := obs.MetricsFrom(ctx)
	iterCtr := reg.Counter("grape.iterations")
	expmCtr := reg.Counter("grape.expm")
	gradHist := reg.Histogram("grape.grad_norm", []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10})
	if target.Rows != sys.Dim {
		panic(fmt.Sprintf("grape: target dim %d does not match system dim %d", target.Rows, sys.Dim))
	}
	nc := len(sys.Controls)
	ar.ensure(sys.Dim, nc, slices)
	ar.indexTraces(sys)
	traces := ar.traces

	amps := ar.amps
	if guess != nil {
		// Warm start: resample the guess onto this slice count, channel
		// by channel (per-channel lengths may differ after a snapshot
		// merge; alignGuess already rejected empty or missing channels),
		// and clip it to the control bounds as every ADAM step does. A
		// snapshot, a merge or a peer may carry any finite amplitude, and
		// a probe that hits on its first iteration returns its start.
		for k := 0; k < nc; k++ {
			src := guess[k]
			srcN := len(src)
			bound := sys.Controls[k].Bound
			for j := 0; j < slices; j++ {
				amps[k][j] = clip(src[j*srcN/slices], bound)
			}
		}
	} else {
		rng := rand.New(rand.NewSource(opts.Seed + int64(slices)))
		for k := range amps {
			for j := range amps[k] {
				// Rounded here, or arm64 fuses rand's own scaling into the doubling.
				u := float64(rng.Float64())
				amps[k][j] = sys.Controls[k].Bound * 0.2 * (float64(u*2) - 1)
			}
		}
	}

	// ADAM state (zeroed: the arena may carry a previous probe's moments).
	m, v := ar.m, ar.v
	for k := 0; k < nc; k++ {
		for j := 0; j < slices; j++ {
			m[k][j], v[k][j] = 0, 0
		}
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8

	best := &Result{Fidelity: -1}
	dim := float64(sys.Dim)
	dt := sliceDt

	props, fwd := ar.props[:slices], ar.fwd[:slices+1]
	linalg.IdentityInto(fwd[0])
	linalg.DaggerInto(ar.targetDag, target) // V†, constant across iterations

	for iter := 1; iter <= opts.MaxIter; iter++ {
		if ctx.Err() != nil {
			// Cancelled mid-optimization (a sibling worker failed or the
			// caller gave up): return the best point reached so the caller
			// can decide; MinimumTimeCtx surfaces the context error.
			return best
		}
		iterCtr.Inc()
		// Forward pass: slice propagators, then the cumulative products.
		for j := 0; j < slices; j++ {
			for k := 0; k < nc; k++ {
				ar.sliceAmps[k] = amps[k][j]
			}
			sys.PropagatorInto(props[j], ar.sliceAmps, dt, ar.ws)
		}
		expmCtr.Add(int64(slices))
		for j := 0; j < slices; j++ {
			linalg.MulInto(fwd[j+1], props[j], fwd[j])
		}
		overlap := linalg.TraceOverlap(target, fwd[slices]) // tr(V†·X_N)
		fid := (float64(real(overlap)*real(overlap)) + float64(imag(overlap)*imag(overlap))) / (dim * dim)
		if fid > best.Fidelity {
			best.Fidelity = fid
			best.Iters = iter
			if best.Amps == nil {
				best.Amps = cloneAmps(amps)
			} else {
				copyAmps(best.Amps, amps)
			}
			if fid >= opts.TargetFidelity {
				if opts.OnIteration != nil {
					opts.OnIteration(obs.ConvergencePoint{Iter: iter, Fidelity: fid})
				}
				return best
			}
		}

		// Backward pass: C_j = V†·B_j with B_j = U_N···U_{j+1}.
		// ∂Φ/∂u_{k,j} = (2/d²)·Re[conj(g)·tr(C_j·(-i·dt·H_k)·X_j)]
		// where X_j = fwd[j+1]. Using cyclicity, tr(C·H·X) = tr((X·C)·H).
		grads := ar.grads
		var gradSq float64
		c, cNext := ar.c, ar.cNext
		c.CopyFrom(ar.targetDag) // C_N = V† (B_N = I)
		for j := slices - 1; j >= 0; j-- {
			linalg.MulInto(ar.d, fwd[j+1], c) // X_j · C_j
			for k := 0; k < nc; k++ {
				t := sparseTrace(ar.d, traces[k])
				val := linalg.CMul(complex(0, -dt), t)
				g := 2 / (dim * dim) * (float64(real(overlap)*real(val)) + float64(imag(overlap)*imag(val)))
				grads[k][j] = g
				gradSq += float64(g * g)
			}
			if j > 0 { // the next iteration restarts from V†
				linalg.MulInto(cNext, c, props[j]) // C_{j-1} = C_j·U_j
				c, cNext = cNext, c
			}
		}
		gradNorm := math.Sqrt(gradSq)
		gradHist.Observe(gradNorm)

		// ADAM ascent step with clipping to hardware bounds.
		bc1 := 1 - math.Pow(beta1, float64(iter))
		bc2 := 1 - math.Pow(beta2, float64(iter))
		var maxStep float64
		for k := 0; k < nc; k++ {
			bound := sys.Controls[k].Bound
			for j := 0; j < slices; j++ {
				g := grads[k][j]
				m[k][j] = float64(beta1*m[k][j]) + float64((1-beta1)*g)
				v[k][j] = float64(beta2*v[k][j]) + float64((1-beta2)*g*g)
				step := learningRate * (m[k][j] / bc1) / (math.Sqrt(v[k][j]/bc2) + eps)
				amps[k][j] = clip(amps[k][j]+step, bound)
				if s := math.Abs(step); s > maxStep {
					maxStep = s
				}
			}
		}
		if opts.OnIteration != nil {
			opts.OnIteration(obs.ConvergencePoint{Iter: iter, Fidelity: fid, GradNorm: gradNorm, StepSize: maxStep})
		}
	}
	return best
}

// clip limits an amplitude to the control bound ±bound.
func clip(a, bound float64) float64 {
	if a > bound {
		return bound
	} else if a < -bound {
		return -bound
	}
	return a
}

// alignGuess maps a stored schedule's channels onto sys.Controls by
// name, returning per-control sample slices in control order. It
// returns nil — degrade to a cold start — when the schedule is nil or
// malformed (channel/amps length mismatch), when any control channel is
// missing from the schedule (e.g. a hit recorded under a different
// coupling graph or profile), when a matched channel has no samples, or
// when every matched sample is zero: such a schedule carries no pulse,
// and for some targets (CX) it is a stationary point of the fidelity
// that every probe seeded from it would inherit.
// Per-channel sample counts may legitimately differ after a snapshot
// merge; callers resample each channel by its own length.
func alignGuess(sys *hamiltonian.System, sched *pulse.Schedule) [][]float64 {
	if sched == nil || len(sched.Channels) != len(sched.Amps) {
		return nil
	}
	byName := make(map[string][]float64, len(sched.Channels))
	for i, name := range sched.Channels {
		byName[name] = sched.Amps[i]
	}
	out := make([][]float64, len(sys.Controls))
	nonzero := false
	for k, c := range sys.Controls {
		samples, ok := byName[c.Name]
		if !ok || len(samples) == 0 {
			return nil
		}
		out[k] = samples
		for _, a := range samples {
			nonzero = nonzero || a != 0
		}
	}
	if !nonzero {
		return nil
	}
	return out
}

func cloneAmps(a [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for k := range a {
		out[k] = append([]float64(nil), a[k]...)
	}
	return out
}

// copyAmps copies src into the same-shaped dst.
func copyAmps(dst, src [][]float64) {
	for k := range src {
		copy(dst[k], src[k])
	}
}

// MinimumTimeCtx finds the smallest slice count whose optimized fidelity
// reaches the target (§V-B: "the minimum duration of the control pulses
// of a customized gate"). It returns the winning schedule, its latency in
// dt, and the achieved fidelity.
//
// The search starts at opts.HintSlices (minSlices when unset), clamped to
// [minSlices, MaxSlices]. It doubles the slice count until a probe reaches
// the target, then descends one slice per probe from that hit and returns
// the last hit before the first miss. A slice count already missed while
// doubling bounds the descent from below. Every probe after the first is
// seeded with its predecessor's best amplitudes, so a probe one slice
// below a hit starts close to the target and a hit there takes few
// iterations, while a miss always runs the whole budget. The first probe
// starts from opts.InitialGuess, aligned once per search. A miss at
// MaxSlices returns pulse.ErrFidelityUnreachable.
//
// Observability: one span per duration probe ("grape.binsearch.probe",
// tagged with the slice count and achieved fidelity) under a
// "grape.binsearch" span, the grape.binsearch.probes counter, and
// grape.binsearch.missed_iterations, the iterations run in probes that
// missed. All duration probes share one buffer arena, so the search
// allocates per distinct slice-count high-water mark, not per probe.
func MinimumTimeCtx(ctx context.Context, sys *hamiltonian.System, target *linalg.Matrix, opts Options) (*pulse.Schedule, float64, float64, error) {
	return minimumTime(ctx, sys, target, opts, alignGuess(sys, opts.InitialGuess))
}

// minimumTime is MinimumTimeCtx with the first probe's starting amplitudes
// already aligned to sys.Controls (nil for a random start); it ignores
// opts.InitialGuess.
func minimumTime(ctx context.Context, sys *hamiltonian.System, target *linalg.Matrix, opts Options, guess [][]float64) (*pulse.Schedule, float64, float64, error) {
	opts.fill()
	reg := obs.MetricsFrom(ctx)
	probeCtr := reg.Counter("grape.binsearch.probes")
	missedCtr := reg.Counter("grape.binsearch.missed_iterations")
	ctx, bsSpan := obs.StartSpan(ctx, "grape.binsearch")
	bsSpan.SetAttr("dim", sys.Dim)
	defer bsSpan.End()

	ar := newArena()
	// Consecutive probes optimize the same unitary on the same system, so
	// each probe's best amplitudes are the next probe's guess.
	// run probes one slice count. Each probe is bracketed by cancellation
	// checks so a cancelled fleet stops between (and, via optimize,
	// inside) duration probes.
	run := func(slices int) (*Result, bool, error) {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		probeCtr.Inc()
		probeCtx, span := obs.StartSpan(ctx, "grape.binsearch.probe")
		res := optimize(probeCtx, sys, target, slices, opts, guess, ar)
		guess = res.Amps
		span.SetAttr("slices", slices)
		span.SetAttr("fidelity", res.Fidelity)
		span.SetAttr("iters", res.Iters)
		span.End()
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		hit := res.Fidelity >= opts.TargetFidelity
		if !hit {
			// optimize returns early only on a hit or a cancellation.
			missedCtr.Add(int64(opts.MaxIter))
		}
		return res, hit, nil
	}

	start := minSlices
	if opts.HintSlices > 0 {
		start = max(minSlices, min(opts.HintSlices, opts.MaxSlices))
		bsSpan.SetAttr("hint", start)
	}

	// Bracket: double from start until a probe hits; lo rises past every
	// slice count that missed.
	lo, hi := minSlices, start
	var hiRes *Result
	for {
		res, hit, err := run(hi)
		if err != nil {
			return nil, 0, 0, err
		}
		if hit {
			hiRes = res
			break
		}
		if hi >= opts.MaxSlices {
			return nil, 0, 0, fmt.Errorf("grape: fidelity %.6f below target %.6f at max duration %d slices: %w",
				res.Fidelity, opts.TargetFidelity, hi, pulse.ErrFidelityUnreachable)
		}
		lo = hi + 1
		hi = min(2*hi, opts.MaxSlices)
	}

	// Descent: one slice fewer per probe, down to the first miss or lo.
	bestSlices, bestRes := hi, hiRes
	for bestSlices > lo {
		res, hit, err := run(bestSlices - 1)
		if err != nil {
			return nil, 0, 0, err
		}
		if !hit {
			break
		}
		bestSlices, bestRes = bestSlices-1, res
	}

	names := make([]string, len(sys.Controls))
	for k, c := range sys.Controls {
		names[k] = c.Name
	}
	sched := &pulse.Schedule{Channels: names, Amps: bestRes.Amps, SliceDt: sliceDt}
	return sched, float64(bestSlices) * sliceDt, bestRes.Fidelity, nil
}
