package grape

import (
	"context"
	"testing"

	"paqoc/internal/circuit"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
	"paqoc/internal/quantum"
	"paqoc/internal/topology"
)

func TestOptimizeXGate(t *testing.T) {
	sys := hamiltonian.XYTransmon(1, nil)
	r := OptimizeCtx(context.Background(), sys, quantum.MatX.Clone(), 8, DefaultOptions())
	if r.Fidelity < 0.999 {
		t.Errorf("X fidelity %.6f", r.Fidelity)
	}
}

func TestOptimizeRespectsBounds(t *testing.T) {
	sys := hamiltonian.XYTransmon(1, nil)
	r := OptimizeCtx(context.Background(), sys, quantum.MatH.Clone(), 8, DefaultOptions())
	for k, ch := range r.Amps {
		for _, a := range ch {
			if a > sys.Controls[k].Bound+1e-12 || a < -sys.Controls[k].Bound-1e-12 {
				t.Fatalf("amplitude %g exceeds bound %g", a, sys.Controls[k].Bound)
			}
		}
	}
}

func TestOptimizeFidelityMatchesReplay(t *testing.T) {
	// Replaying the returned schedule through the propagators must
	// reproduce the reported fidelity.
	sys := hamiltonian.XYTransmon(2, hamiltonian.LinearChain(2))
	target := quantum.MatCX.Clone()
	r := OptimizeCtx(context.Background(), sys, target, 24, DefaultOptions())
	u := linalg.Identity(4)
	amps := make([]float64, len(sys.Controls))
	for j := 0; j < 24; j++ {
		for k := range amps {
			amps[k] = r.Amps[k][j]
		}
		u = sys.Propagator(amps, 4).Mul(u)
	}
	if f := linalg.TraceFidelity(target, u); f < r.Fidelity-1e-6 {
		t.Errorf("replayed fidelity %.6f < reported %.6f", f, r.Fidelity)
	}
}

func TestMinimumTimeX(t *testing.T) {
	sys := hamiltonian.XYTransmon(1, nil)
	sched, latency, fid, err := MinimumTimeCtx(context.Background(), sys, quantum.MatX.Clone(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fid < 0.999 {
		t.Errorf("fidelity %.6f", fid)
	}
	// Quantum speed limit: a π rotation at the bounded drive needs
	// ≈ 22.5 dt; the minimum-time search should land close to it (within one
	// doubling step of slack).
	if latency < 20 || latency > 48 {
		t.Errorf("X latency %g dt outside plausible window", latency)
	}
	if sched.Duration() != latency {
		t.Error("schedule duration disagrees with reported latency")
	}
}

func TestMinimumTimeInfeasible(t *testing.T) {
	sys := hamiltonian.XYTransmon(2, hamiltonian.LinearChain(2))
	opts := DefaultOptions()
	opts.MaxSlices = 2 // nowhere near enough for a CX
	if _, _, _, err := MinimumTimeCtx(context.Background(), sys, quantum.MatCX.Clone(), opts); err == nil {
		t.Error("expected infeasibility error")
	}
}

func TestFig2ShapeMergedBeatsSeparate(t *testing.T) {
	// The paper's Fig. 2: pulses for the consolidated H;CX unitary are
	// shorter than the H pulse plus the CX pulse stitched together
	// (110 dt vs 170 dt on their setup; we check the shape, not the
	// absolute numbers).
	opts := DefaultOptions()
	sys1 := hamiltonian.XYTransmon(1, nil)
	_, hLat, _, err := MinimumTimeCtx(context.Background(), sys1, quantum.MatH.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sys2 := hamiltonian.XYTransmon(2, hamiltonian.LinearChain(2))
	_, cxLat, _, err := MinimumTimeCtx(context.Background(), sys2, quantum.MatCX.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	merged := quantum.MatCX.Mul(quantum.MatH.Kron(quantum.MatI))
	_, mLat, _, err := MinimumTimeCtx(context.Background(), sys2, merged, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("H=%g dt, CX=%g dt, merged H+CX=%g dt", hLat, cxLat, mLat)
	if mLat >= hLat+cxLat {
		t.Errorf("merged latency %g not below stitched %g", mLat, hLat+cxLat)
	}
}

func TestGeneratorCacheHit(t *testing.T) {
	gen := NewGenerator(DefaultOptions())
	cg := pulse.NewCustomGate([]circuit.Gate{{Name: "h", Qubits: []int{0}}})
	first, err := gen.GenerateCtx(context.Background(), cg, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first generation should miss")
	}
	second, err := gen.GenerateCtx(context.Background(), cg, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second generation should hit the DB")
	}
	if second.Latency != first.Latency {
		t.Error("cached latency differs")
	}
}

func TestGeneratorPermutationHit(t *testing.T) {
	gen := NewGenerator(DefaultOptions())
	cx01 := pulse.NewCustomGate([]circuit.Gate{{Name: "cx", Qubits: []int{0, 1}}})
	if _, err := gen.GenerateCtx(context.Background(), cx01, 0.999); err != nil {
		t.Fatal(err)
	}
	// CX with control/target swapped is the same unitary with permuted
	// qubits and must be served from the DB (§V-B).
	cx10 := pulse.NewCustomGate([]circuit.Gate{{Name: "cx", Qubits: []int{1, 0}}})
	got, err := gen.GenerateCtx(context.Background(), cx10, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit {
		t.Error("permuted CX should hit the DB")
	}
}

func TestGeneratorTopologyCouplings(t *testing.T) {
	cg := pulse.NewCustomGate([]circuit.Gate{
		{Name: "cx", Qubits: []int{0, 1}},
		{Name: "cx", Qubits: []int{1, 2}},
	})
	if pairs := Couplings(topology.Line(3), cg); len(pairs) != 2 {
		t.Errorf("line couplings = %v", pairs)
	}
	if got := Couplings(nil, cg); len(got) != 3 {
		t.Errorf("all-pairs couplings = %v", got)
	}
}

func TestGeneratorSymbolicGateFails(t *testing.T) {
	gen := NewGenerator(DefaultOptions())
	cg := pulse.NewCustomGate([]circuit.Gate{{Name: "rz", Symbol: "theta", Qubits: []int{0}}})
	if _, err := gen.GenerateCtx(context.Background(), cg, 0.999); err == nil {
		t.Error("expected error for symbolic gate")
	}
}

func TestWarmStartConverges(t *testing.T) {
	// A near-identical unitary should still generate fine when warm-started
	// from a stored neighbour.
	gen := NewGenerator(DefaultOptions())
	a := pulse.NewCustomGate([]circuit.Gate{{Name: "rx", Params: []float64{1.0}, Qubits: []int{0}}})
	if _, err := gen.GenerateCtx(context.Background(), a, 0.999); err != nil {
		t.Fatal(err)
	}
	b := pulse.NewCustomGate([]circuit.Gate{{Name: "rx", Params: []float64{1.1}, Qubits: []int{0}}})
	got, err := gen.GenerateCtx(context.Background(), b, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fidelity < 0.999 {
		t.Errorf("warm-started fidelity %.6f", got.Fidelity)
	}
}

// TestOnIterationFiresOncePerIteration pins the convergence hook behind
// the live SSE stream: one call per iteration, Iter counting up from 1,
// and the point at Result.Iters carrying Result.Fidelity. A run that
// reaches the target returns at that iteration, so its last point is the
// result; a run that exhausts MaxIter reports every iteration.
func TestOnIterationFiresOncePerIteration(t *testing.T) {
	sys := hamiltonian.XYTransmon(1, nil)
	for _, tc := range []struct {
		name    string
		opts    Options
		reached bool
	}{
		{"reached", DefaultOptions(), true},
		{"exhausted", Options{MaxIter: 30, Seed: 3, TargetFidelity: 2}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pts []obs.ConvergencePoint
			tc.opts.OnIteration = func(p obs.ConvergencePoint) { pts = append(pts, p) }
			res := OptimizeCtx(context.Background(), sys, quantum.MatX, 8, tc.opts)
			if got := res.Fidelity >= tc.opts.TargetFidelity; got != tc.reached {
				t.Fatalf("reached target = %v (fidelity %v), want %v", got, res.Fidelity, tc.reached)
			}
			want := tc.opts.MaxIter
			if tc.reached {
				want = res.Iters
			}
			if len(pts) != want {
				t.Fatalf("OnIteration fired %d times, want %d", len(pts), want)
			}
			for i, p := range pts {
				if p.Iter != i+1 {
					t.Fatalf("point %d has Iter %d, want %d", i, p.Iter, i+1)
				}
			}
			if p := pts[res.Iters-1]; p.Fidelity != res.Fidelity {
				t.Errorf("point at Iter %d has fidelity %v, result %v", p.Iter, p.Fidelity, res.Fidelity)
			}
		})
	}
}

func BenchmarkGrapeXGate(b *testing.B) {
	sys := hamiltonian.XYTransmon(1, nil)
	opts := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OptimizeCtx(context.Background(), sys, quantum.MatX.Clone(), 8, opts)
	}
}

func BenchmarkGrapeCXMinimumTime(b *testing.B) {
	sys := hamiltonian.XYTransmon(2, hamiltonian.LinearChain(2))
	opts := DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := MinimumTimeCtx(context.Background(), sys, quantum.MatCX.Clone(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrapeIteration is the cost of one GRAPE iteration on a CX
// problem (2 qubits, 12 slices) and a CCX problem (3 qubits on a chain,
// 26 slices, CCX's minimum time at 0.999), reported as ns/iter. The
// targets are unreachable, so every call runs exactly MaxIter
// iterations; per-call setup is amortized over them.
func BenchmarkGrapeIteration(b *testing.B) {
	for _, bc := range []struct {
		name   string
		n      int
		target *linalg.Matrix
		slices int
	}{
		{"2q", 2, quantum.MatCX, 12},
		{"3q", 3, quantum.MatCCX, 26},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sys := hamiltonian.XYTransmon(bc.n, hamiltonian.LinearChain(bc.n))
			opts := Options{MaxIter: 40, Seed: 3, TargetFidelity: 2}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				OptimizeCtx(context.Background(), sys, bc.target, bc.slices, opts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*opts.MaxIter), "ns/iter")
		})
	}
}

func TestGRAPECompensatesZZCrosstalk(t *testing.T) {
	// §II-C: "Once the error terms are determined, we only have to update
	// Equation (1) and apply the same method." Pulses optimized against
	// the crosstalk-aware Hamiltonian must hit the fidelity target on it;
	// pulses optimized against the ideal model must do measurably worse
	// when replayed on the noisy hardware.
	if testing.Short() {
		t.Skip("crosstalk study is slow")
	}
	pairs := hamiltonian.LinearChain(2)
	noisy, err := hamiltonian.XYTransmon(2, pairs).WithZZCrosstalk(pairs, hamiltonian.TypicalZZCrosstalk*3)
	if err != nil {
		t.Fatal(err)
	}
	ideal := noisy.IdealTwin()
	target := quantum.MatCX.Clone()
	opts := DefaultOptions()

	// Naive pulses: calibrated on the ideal model, replayed on noisy.
	naiveSched, _, naiveFid, err := MinimumTimeCtx(context.Background(), ideal, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	replayed := linalg.Identity(4)
	amps := make([]float64, len(noisy.Controls))
	for j := 0; j < naiveSched.NumSlices(); j++ {
		for k := range amps {
			amps[k] = naiveSched.Amps[k][j]
		}
		replayed = noisy.Propagator(amps, naiveSched.SliceDt).Mul(replayed)
	}
	naiveOnNoisy := linalg.TraceFidelity(target, replayed)

	// Aware pulses: calibrated directly on the noisy model.
	_, _, awareFid, err := MinimumTimeCtx(context.Background(), noisy, target, opts)
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("naive: %.6f calibrated, %.6f on hardware; aware: %.6f", naiveFid, naiveOnNoisy, awareFid)
	if awareFid < opts.TargetFidelity {
		t.Errorf("crosstalk-aware GRAPE missed target: %.6f", awareFid)
	}
	if naiveOnNoisy >= awareFid {
		t.Errorf("naive pulses (%.6f) should degrade below aware pulses (%.6f) under crosstalk",
			naiveOnNoisy, awareFid)
	}
}

func TestPermutedHitScheduleIsPhysical(t *testing.T) {
	// Regression: a permuted DB hit must return a schedule that actually
	// realizes the REQUESTED unitary (channels relabelled), not the stored
	// permuted one.
	gen := NewGenerator(DefaultOptions())
	cx01 := pulse.NewCustomGate([]circuit.Gate{{Name: "cx", Qubits: []int{0, 1}}})
	if _, err := gen.GenerateCtx(context.Background(), cx01, 0.999); err != nil {
		t.Fatal(err)
	}
	cx10 := pulse.NewCustomGate([]circuit.Gate{{Name: "cx", Qubits: []int{1, 0}}})
	got, err := gen.GenerateCtx(context.Background(), cx10, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit || got.Schedule == nil {
		t.Fatal("expected a permuted cache hit with a schedule")
	}
	want, err := cx10.Unitary()
	if err != nil {
		t.Fatal(err)
	}
	sys := hamiltonian.XYTransmon(2, Couplings(gen.Topo, cx10))
	u := linalg.Identity(4)
	amps := make([]float64, len(sys.Controls))
	for j := 0; j < got.Schedule.NumSlices(); j++ {
		for k := range amps {
			amps[k] = got.Schedule.Amps[k][j]
		}
		u = sys.Propagator(amps, got.Schedule.SliceDt).Mul(u)
	}
	if f := linalg.TraceFidelity(want, u); f < 0.999 {
		t.Errorf("remapped schedule realizes the wrong unitary: fidelity %.6f", f)
	}
}
