// Package grape implements GRadient Ascent Pulse Engineering (Khaneja et
// al.; Leung et al. [31]) from scratch: piecewise-constant controls, exact
// slice propagators, the first-order fidelity gradient, ADAM updates
// (the optimizer the paper selects, §VI-d), amplitude clipping to hardware
// bounds, and a binary search for the minimum pulse duration achieving a
// target fidelity — which is exactly the latency PAQOC minimizes.
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
	"sync"

	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
)

// Options configures the optimizer.
type Options struct {
	SliceDt        float64 // dt per slice (default 4)
	MaxIter        int     // ADAM iterations per duration trial (default 300)
	LearningRate   float64 // ADAM step size (default 0.003 rad/dt)
	TargetFidelity float64 // success threshold (default 0.999)
	Seed           int64   // RNG seed for the initial guess
	MinSlices      int     // binary-search lower bound (default 2)
	MaxSlices      int     // binary-search upper bound (default 128)
	InitialGuess   *pulse.Schedule
	// Workers sets the goroutine count for the per-slice propagator and
	// gradient passes (0 or 1 runs them inline). Results are bit-identical
	// across worker counts: the parallel phases only compute per-slice
	// terms whose inputs and kernels do not depend on scheduling, and the
	// gradient-norm reduction always runs serially in the original order
	// (TestParallelWorkersMatchSerial pins this).
	Workers int
	// HintSlices, when positive, starts the minimum-time doubling bracket
	// at this slice count instead of MinSlices (clamped to [MinSlices,
	// MaxSlices]) — the duration prior carried by a near-miss cache hit.
	// Probes below a failed hint are skipped under the same monotonicity
	// assumption the binary search itself makes.
	HintSlices int
	// RecordConvergence captures a per-iteration fidelity / gradient-norm /
	// step-size trace in Result.Trace (one allocation per iteration; off on
	// the hot path by default).
	RecordConvergence bool
	// MaxTracePoints bounds the retained convergence trace per optimization
	// (obs.ConvergenceTrace.MaxPoints): 0 selects DefaultMaxTracePoints,
	// negative removes the bound. Dropped points are counted in the
	// "obs.convergence_dropped" metric so a long-running server can see
	// thinning happen.
	MaxTracePoints int
	// OnIteration, when non-nil, is invoked with every iteration's
	// convergence point — the streaming variant of RecordConvergence.
	OnIteration func(obs.ConvergencePoint)
}

// DefaultMaxTracePoints is the default convergence-trace cap: generous for
// one CLI run, bounded for a server recording traces on every compile.
const DefaultMaxTracePoints = 512

// DefaultOptions returns the settings used across the evaluation.
func DefaultOptions() Options {
	return Options{
		SliceDt:        4,
		MaxIter:        300,
		LearningRate:   0.003,
		TargetFidelity: 0.999,
		MinSlices:      2,
		MaxSlices:      128,
	}
}

func (o *Options) fill() {
	if o.SliceDt == 0 {
		o.SliceDt = 4
	}
	if o.MaxIter == 0 {
		o.MaxIter = 300
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.003
	}
	if o.TargetFidelity == 0 {
		o.TargetFidelity = 0.999
	}
	if o.MinSlices == 0 {
		o.MinSlices = 2
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
	// Trace is the per-iteration convergence record, populated when
	// Options.RecordConvergence is set (nil otherwise).
	Trace *obs.ConvergenceTrace
}

// arena holds the reusable buffers of the GRAPE inner loop for one
// optimization call — or, via MinimumTimeCtx, for a whole binary search,
// where every duration probe reuses the same storage (buffers grow to
// the largest slice count seen and shrink by reslicing). An arena is
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
	// bwd stores every backward cumulative product C_j for the parallel
	// gradient pass (the serial path ping-pongs c/cNext instead).
	bwd []*linalg.Matrix
	// workers holds per-goroutine sub-arenas (workspace, X_j·C_j buffer,
	// slice-amplitude staging) so parallel phases share no scratch.
	workers []*workerState

	// Cross-probe reuse, active only when MinimumTimeCtx sets
	// reuseProbes: seed carries the previous probe's best amplitudes
	// (seedN slices) as the next probe's resampled initial guess, and
	// when seedProps is set the active props bank realizes exactly those
	// amplitudes (the probe returned on the target-reached path, before
	// any ADAM update), so the next probe's first forward pass can copy
	// propagators instead of re-exponentiating. propsAlt is the second
	// propagator bank: the banks swap at probe start so the new probe
	// never clobbers entries the resampling still reads.
	reuseProbes bool
	seed        [][]float64
	seedN       int
	seedProps   bool
	propsAlt    []*linalg.Matrix

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

// workerState is one parallel worker's private scratch.
type workerState struct {
	ws        *linalg.Workspace
	d         *linalg.Matrix
	sliceAmps []float64
}

func newArena() *arena { return &arena{} }

// ensure sizes every buffer for a (dim, controls, slices, workers)
// problem, reusing prior storage where shapes allow.
func (ar *arena) ensure(dim, nc, slices, workers int) {
	if ar.dim != dim {
		ar.dim = dim
		ar.ws = linalg.NewWorkspace(dim)
		ar.c = linalg.New(dim, dim)
		ar.cNext = linalg.New(dim, dim)
		ar.d = linalg.New(dim, dim)
		ar.targetDag = linalg.New(dim, dim)
		ar.props, ar.fwd, ar.bwd = nil, nil, nil
		ar.workers = nil
		// Propagators cached for cross-probe reuse are dim-specific too.
		ar.propsAlt, ar.seed, ar.seedN, ar.seedProps = nil, nil, 0, false
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
	if workers > 1 {
		for len(ar.bwd) < slices {
			ar.bwd = append(ar.bwd, linalg.New(dim, dim))
		}
		for len(ar.workers) < workers {
			ar.workers = append(ar.workers, &workerState{
				ws: linalg.NewWorkspace(dim),
				d:  linalg.New(dim, dim),
			})
		}
		for _, st := range ar.workers {
			if cap(st.sliceAmps) < nc {
				st.sliceAmps = make([]float64, nc)
			}
			st.sliceAmps = st.sliceAmps[:nc]
		}
	}
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
		t += a.Data[e.at] * e.v
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
	return optimize(ctx, sys, target, slices, opts, newArena())
}

// optimize is the allocation-free inner loop. All per-iteration storage
// lives in ar; numerical results are bit-identical to OptimizeReference
// (same operation order, only storage reuse — pinned by
// TestOptimizeMatchesReference).
func optimize(ctx context.Context, sys *hamiltonian.System, target *linalg.Matrix, slices int, opts Options, ar *arena) *Result {
	opts.fill()
	reg := obs.MetricsFrom(ctx)
	iterCtr := reg.Counter("grape.iterations")
	expmCtr := reg.Counter("grape.expm")
	reuseCtr := reg.Counter("grape.probe_prop_reuse")
	gradHist := reg.Histogram("grape.grad_norm", []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10})
	if target.Rows != sys.Dim {
		panic(fmt.Sprintf("grape: target dim %d does not match system dim %d", target.Rows, sys.Dim))
	}
	nc := len(sys.Controls)
	rng := rand.New(rand.NewSource(opts.Seed + int64(slices)))
	workers := opts.Workers
	if workers > slices {
		workers = slices
	}
	if workers < 1 {
		workers = 1
	}

	// Cross-probe propagator reuse (MinimumTimeCtx only): when the
	// previous probe's active props bank realizes exactly the seed
	// amplitudes, park it in propsAlt before ensure grows the new active
	// bank — resampled column j of this probe equals seed column
	// j*seedN/slices, so its propagator can be copied on iteration 1.
	var prevProps []*linalg.Matrix
	useProbeSeed := ar.reuseProbes && ar.dim == sys.Dim && ar.seedN > 0 && len(ar.seed) == nc
	if useProbeSeed && ar.seedProps {
		ar.props, ar.propsAlt = ar.propsAlt, ar.props
		prevProps = ar.propsAlt
	}
	ar.ensure(sys.Dim, nc, slices, workers)
	ar.indexTraces(sys)
	traces := ar.traces

	amps := ar.amps
	for k := range amps {
		for j := range amps[k] {
			amps[k][j] = sys.Controls[k].Bound * 0.2 * (rng.Float64()*2 - 1)
		}
	}
	if guess := alignGuess(sys, opts.InitialGuess); guess != nil {
		// Warm start: resample the guess onto this slice count, channel
		// by channel (per-channel lengths may differ after a snapshot
		// merge; alignGuess already rejected empty or missing channels).
		for k := 0; k < nc; k++ {
			src := guess[k]
			srcN := len(src)
			for j := 0; j < slices; j++ {
				amps[k][j] = src[j*srcN/slices]
			}
		}
	}
	if useProbeSeed {
		// The previous duration probe's best amplitudes are a better
		// starting point than any external guess: same system, same
		// unitary, one slice count over. Resample them on top.
		for k := 0; k < nc; k++ {
			src := ar.seed[k]
			for j := 0; j < slices; j++ {
				amps[k][j] = src[j*ar.seedN/slices]
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

	var trace *obs.ConvergenceTrace
	if opts.RecordConvergence {
		cap := opts.MaxTracePoints
		if cap == 0 {
			cap = DefaultMaxTracePoints
		}
		if cap < 0 {
			cap = 0 // unbounded
		}
		trace = &obs.ConvergenceTrace{MaxPoints: cap}
		// Flush thinning losses to the registry on every return path.
		defer func() {
			if trace.DroppedCount > 0 {
				reg.Counter("obs.convergence_dropped").Add(int64(trace.DroppedCount))
			}
		}()
	}
	best := &Result{Fidelity: -1, Trace: trace}
	dim := float64(sys.Dim)
	dt := opts.SliceDt

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
		// Forward pass: slice propagators, then the (order-dependent,
		// serial) cumulative products. On the first iteration after a
		// props-valid duration probe every propagator is a copy of the
		// previous probe's — each resampled amplitude column is bit-equal
		// to the column its cached propagator was exponentiated from.
		if iter == 1 && prevProps != nil {
			for j := 0; j < slices; j++ {
				props[j].CopyFrom(prevProps[j*ar.seedN/slices])
			}
			reuseCtr.Add(int64(slices))
		} else if workers > 1 {
			parallelFor(workers, slices, func(w, lo, hi int) {
				st := ar.workers[w]
				for j := lo; j < hi; j++ {
					for k := 0; k < nc; k++ {
						st.sliceAmps[k] = amps[k][j]
					}
					sys.PropagatorInto(props[j], st.sliceAmps, dt, st.ws)
				}
			})
			expmCtr.Add(int64(slices))
		} else {
			for j := 0; j < slices; j++ {
				for k := 0; k < nc; k++ {
					ar.sliceAmps[k] = amps[k][j]
				}
				sys.PropagatorInto(props[j], ar.sliceAmps, dt, ar.ws)
			}
			expmCtr.Add(int64(slices))
		}
		for j := 0; j < slices; j++ {
			linalg.MulInto(fwd[j+1], props[j], fwd[j])
		}
		overlap := linalg.TraceOverlap(target, fwd[slices]) // tr(V†·X_N)
		fid := (real(overlap)*real(overlap) + imag(overlap)*imag(overlap)) / (dim * dim)
		if fid > best.Fidelity {
			best.Fidelity = fid
			best.Iters = iter
			if best.Amps == nil {
				best.Amps = cloneAmps(amps)
			} else {
				copyAmps(best.Amps, amps)
			}
			if fid >= opts.TargetFidelity {
				if trace != nil || opts.OnIteration != nil {
					pt := obs.ConvergencePoint{Iter: iter, Fidelity: fid}
					trace.Record(pt)
					if opts.OnIteration != nil {
						opts.OnIteration(pt)
					}
				}
				if ar.reuseProbes {
					// Returning before the ADAM update means props still
					// realize exactly best.Amps: the next probe may both
					// seed from them and copy their propagators.
					ar.seed, ar.seedN, ar.seedProps = best.Amps, slices, true
				}
				return best
			}
		}

		// Backward pass: C_j = V†·B_j with B_j = U_N···U_{j+1}.
		// ∂Φ/∂u_{k,j} = (2/d²)·Re[conj(g)·tr(C_j·(-i·dt·H_k)·X_j)]
		// where X_j = fwd[j+1]. Using cyclicity, tr(C·H·X) = tr((X·C)·H).
		grads := ar.grads
		var gradSq float64
		if workers > 1 {
			// Parallel gradient: store every C_j (the chain itself is
			// order-dependent and stays serial), then fan the per-slice
			// terms out — grads[k][j] writes are disjoint across workers.
			// The norm reduction runs serially afterwards in the serial
			// path's exact order (j descending, k ascending), so the sum
			// is bit-identical regardless of worker count.
			bwd := ar.bwd[:slices]
			bwd[slices-1].CopyFrom(ar.targetDag)
			for j := slices - 1; j > 0; j-- {
				linalg.MulInto(bwd[j-1], bwd[j], props[j])
			}
			parallelFor(workers, slices, func(w, lo, hi int) {
				st := ar.workers[w]
				for j := lo; j < hi; j++ {
					linalg.MulInto(st.d, fwd[j+1], bwd[j])
					for k := 0; k < nc; k++ {
						t := sparseTrace(st.d, traces[k])
						val := complex(0, -dt) * t
						grads[k][j] = 2 / (dim * dim) * (real(overlap)*real(val) + imag(overlap)*imag(val))
					}
				}
			})
			for j := slices - 1; j >= 0; j-- {
				for k := 0; k < nc; k++ {
					g := grads[k][j]
					gradSq += g * g
				}
			}
		} else {
			c, cNext := ar.c, ar.cNext
			c.CopyFrom(ar.targetDag) // C_N = V† (B_N = I)
			for j := slices - 1; j >= 0; j-- {
				linalg.MulInto(ar.d, fwd[j+1], c) // X_j · C_j
				for k := 0; k < nc; k++ {
					t := sparseTrace(ar.d, traces[k])
					val := complex(0, -dt) * t
					g := 2 / (dim * dim) * (real(overlap)*real(val) + imag(overlap)*imag(val))
					grads[k][j] = g
					gradSq += g * g
				}
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
				m[k][j] = beta1*m[k][j] + (1-beta1)*g
				v[k][j] = beta2*v[k][j] + (1-beta2)*g*g
				step := opts.LearningRate * (m[k][j] / bc1) / (math.Sqrt(v[k][j]/bc2) + eps)
				amps[k][j] += step
				if s := math.Abs(step); s > maxStep {
					maxStep = s
				}
				if amps[k][j] > bound {
					amps[k][j] = bound
				} else if amps[k][j] < -bound {
					amps[k][j] = -bound
				}
			}
		}
		if trace != nil || opts.OnIteration != nil {
			pt := obs.ConvergencePoint{Iter: iter, Fidelity: fid, GradNorm: gradNorm, StepSize: maxStep}
			trace.Record(pt)
			if opts.OnIteration != nil {
				opts.OnIteration(pt)
			}
		}
	}
	if ar.reuseProbes && best.Amps != nil {
		// Iteration budget exhausted: the amplitudes are still the best
		// seed for the next duration probe, but props were overwritten
		// by later iterations and no longer realize best.Amps.
		ar.seed, ar.seedN, ar.seedProps = best.Amps, slices, false
	}
	return best
}

// parallelFor splits [0, n) into one contiguous range per worker and
// runs f(w, lo, hi) on its own goroutine, blocking until all finish.
func parallelFor(workers, n int, f func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			f(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// alignGuess maps a stored schedule's channels onto sys.Controls by
// name, returning per-control sample slices in control order. It
// returns nil — degrade to a cold start — when the schedule is nil or
// malformed (channel/amps length mismatch), when any control channel is
// missing from the schedule (e.g. a hit recorded under a different
// coupling graph or profile), or when a matched channel has no samples.
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
	for k, c := range sys.Controls {
		samples, ok := byName[c.Name]
		if !ok || len(samples) == 0 {
			return nil
		}
		out[k] = samples
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

// MinimumTimeCtx binary-searches the smallest slice count whose optimized
// fidelity reaches the target (§V-B: "the minimum duration of the control
// pulses of a customized gate by binary search"). It returns the winning
// schedule, its latency in dt, and the achieved fidelity, with
// observability: one
// span per duration probe ("grape.binsearch.probe", tagged with the slice
// count and achieved fidelity) under a "grape.binsearch" span, plus probe
// counters. All duration probes share one buffer arena, so the search
// allocates per distinct slice-count high-water mark, not per probe.
func MinimumTimeCtx(ctx context.Context, sys *hamiltonian.System, target *linalg.Matrix, opts Options) (*pulse.Schedule, float64, float64, error) {
	opts.fill()
	reg := obs.MetricsFrom(ctx)
	probeCtr := reg.Counter("grape.binsearch.probes")
	ctx, bsSpan := obs.StartSpan(ctx, "grape.binsearch")
	bsSpan.SetAttr("dim", sys.Dim)
	defer bsSpan.End()

	ar := newArena()
	// Consecutive probes optimize the same unitary on the same system:
	// carry each probe's best amplitudes into the next as a resampled
	// seed, and let target-reached probes donate their slice propagators.
	ar.reuseProbes = true
	run := func(slices int) *Result {
		probeCtr.Inc()
		probeCtx, span := obs.StartSpan(ctx, "grape.binsearch.probe")
		res := optimize(probeCtx, sys, target, slices, opts, ar)
		span.SetAttr("slices", slices)
		span.SetAttr("fidelity", res.Fidelity)
		span.SetAttr("iters", res.Iters)
		span.End()
		return res
	}

	// Find a feasible upper bound by doubling. Each probe is bracketed by a
	// cancellation check so a cancelled fleet stops between (and, via
	// OptimizeCtx, inside) duration probes. A HintSlices prior (typically
	// a near-miss cache hit's slice count) starts the bracket there
	// instead of MinSlices, skipping the doubling probes below it; the
	// binary search still descends to MinSlices afterwards, so minimality
	// is unchanged.
	start := opts.MinSlices
	if opts.HintSlices > 0 {
		start = opts.HintSlices
		if start < opts.MinSlices {
			start = opts.MinSlices
		}
		if start > opts.MaxSlices {
			start = opts.MaxSlices
		}
		bsSpan.SetAttr("hint", start)
	}
	lo, hi := opts.MinSlices, start
	var hiRes *Result
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		hiRes = run(hi)
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		if hiRes.Fidelity >= opts.TargetFidelity {
			break
		}
		if hi >= opts.MaxSlices {
			return nil, 0, 0, fmt.Errorf("grape: fidelity %.6f below target %.6f at max duration %d slices: %w",
				hiRes.Fidelity, opts.TargetFidelity, hi, pulse.ErrFidelityUnreachable)
		}
		lo = hi + 1
		hi *= 2
		if hi > opts.MaxSlices {
			hi = opts.MaxSlices
		}
	}

	// Binary search in (lo-1, hi] for the smallest feasible slice count.
	bestSlices, bestRes := hi, hiRes
	for lo < hi {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		mid := (lo + hi) / 2
		res := run(mid)
		if res.Fidelity >= opts.TargetFidelity {
			bestSlices, bestRes = mid, res
			hi = mid
		} else {
			lo = mid + 1
		}
	}

	names := make([]string, len(sys.Controls))
	for k, c := range sys.Controls {
		names[k] = c.Name
	}
	sched := &pulse.Schedule{Channels: names, Amps: bestRes.Amps, SliceDt: opts.SliceDt}
	return sched, float64(bestSlices) * opts.SliceDt, bestRes.Fidelity, nil
}
