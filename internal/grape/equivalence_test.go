package grape

import (
	"context"
	"math"
	"testing"

	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
	"paqoc/internal/quantum"
)

// testCases pairs small optimization problems with the slice counts used
// throughout the equivalence suite.
func equivalenceCases() []struct {
	name   string
	sys    *hamiltonian.System
	target *linalg.Matrix
	slices int
} {
	return []struct {
		name   string
		sys    *hamiltonian.System
		target *linalg.Matrix
		slices int
	}{
		{"x-1q-8", hamiltonian.XYTransmon(1, nil), quantum.MatX, 8},
		{"h-1q-8", hamiltonian.XYTransmon(1, nil), quantum.MatH, 8},
		{"cx-2q-12", hamiltonian.XYTransmon(2, [][2]int{{0, 1}}), quantum.MatCX, 12},
	}
}

// TestOptimizeMatchesReference pins the tentpole invariant: the arena-based
// zero-allocation path must reproduce the pre-arena value-returning loop
// bit-for-bit — ==, not approximately — for a fixed seed. Any reordering
// of floating-point operations breaks this test.
func TestOptimizeMatchesReference(t *testing.T) {
	for _, tc := range equivalenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{MaxIter: 60, Seed: 42, TargetFidelity: 0.9999}
			ref := OptimizeReference(tc.sys, tc.target, tc.slices, opts)
			got := OptimizeCtx(context.Background(), tc.sys, tc.target, tc.slices, opts)
			if got.Fidelity != ref.Fidelity {
				t.Fatalf("fidelity diverged: arena %v reference %v", got.Fidelity, ref.Fidelity)
			}
			if got.Iters != ref.Iters {
				t.Fatalf("iters diverged: arena %d reference %d", got.Iters, ref.Iters)
			}
			if len(got.Amps) != len(ref.Amps) {
				t.Fatalf("amp channel count diverged: %d vs %d", len(got.Amps), len(ref.Amps))
			}
			for k := range ref.Amps {
				for j := range ref.Amps[k] {
					if got.Amps[k][j] != ref.Amps[k][j] {
						t.Fatalf("amps[%d][%d] diverged: arena %v reference %v",
							k, j, got.Amps[k][j], ref.Amps[k][j])
					}
				}
			}
		})
	}
}

// TestSharedArenaMatchesFresh drives one arena through a MinimumTime-style
// sequence of probe sizes (grow, shrink, regrow, shrink) and checks each
// result is bit-identical to a fresh arena's. This is the invariant that
// lets MinimumTimeCtx reuse buffers across binary-search probes.
func TestSharedArenaMatchesFresh(t *testing.T) {
	sys := hamiltonian.XYTransmon(2, [][2]int{{0, 1}})
	target := quantum.MatCX
	opts := Options{MaxIter: 30, Seed: 7, TargetFidelity: 2} // unreachable: full run
	ar := newArena()
	for _, slices := range []int{8, 4, 16, 4} {
		shared := optimize(context.Background(), sys, target, slices, opts, ar)
		fresh := OptimizeCtx(context.Background(), sys, target, slices, opts)
		if shared.Fidelity != fresh.Fidelity || shared.Iters != fresh.Iters {
			t.Fatalf("slices=%d: shared arena (fid %v, iters %d) != fresh (fid %v, iters %d)",
				slices, shared.Fidelity, shared.Iters, fresh.Fidelity, fresh.Iters)
		}
		for k := range fresh.Amps {
			for j := range fresh.Amps[k] {
				if shared.Amps[k][j] != fresh.Amps[k][j] {
					t.Fatalf("slices=%d: amps[%d][%d] diverged", slices, k, j)
				}
			}
		}
	}
}

// perIterAllocs measures the marginal heap allocations of one GRAPE
// iteration by differencing a long run against a short one, cancelling the
// fixed per-call setup cost. TargetFidelity 2 is unreachable (fidelity is
// ≤ 1), so both runs execute exactly MaxIter iterations.
func perIterAllocs(t *testing.T, run func(opts Options)) float64 {
	t.Helper()
	const extra = 200
	short := Options{MaxIter: 1, Seed: 3, TargetFidelity: 2}
	long := Options{MaxIter: 1 + extra, Seed: 3, TargetFidelity: 2}
	shortAllocs := testing.AllocsPerRun(3, func() { run(short) })
	longAllocs := testing.AllocsPerRun(3, func() { run(long) })
	return (longAllocs - shortAllocs) / extra
}

// TestOptimizeIterationAllocs encodes the headline acceptance criterion:
// the arena path must allocate at least 5× less per GRAPE iteration than
// the reference loop — and in absolute terms, (near) nothing.
func TestOptimizeIterationAllocs(t *testing.T) {
	sys := hamiltonian.XYTransmon(2, [][2]int{{0, 1}})
	target := quantum.MatCX
	const slices = 12

	refPerIter := perIterAllocs(t, func(opts Options) {
		OptimizeReference(sys, target, slices, opts)
	})
	arenaPerIter := perIterAllocs(t, func(opts Options) {
		OptimizeCtx(context.Background(), sys, target, slices, opts)
	})
	t.Logf("allocs/iteration: reference %.1f, arena %.2f", refPerIter, arenaPerIter)

	if arenaPerIter > 1 {
		t.Errorf("arena path allocates %.2f/iteration, want ≤ 1", arenaPerIter)
	}
	if refPerIter < 5*(arenaPerIter+1) {
		t.Errorf("allocation win too small: reference %.1f/iter vs arena %.2f/iter (need ≥5×)",
			refPerIter, arenaPerIter)
	}
}

// TestTraceListsIndexedOncePerArena gates the sparse gradient traces'
// allocation contract: a duration probe on an arena that has already
// indexed the system allocates strictly less than one that must index it,
// so a minimum-time search builds the lists once, not once per probe. It
// also pins the sparse traces to the dense traceProduct bit for bit.
func TestTraceListsIndexedOncePerArena(t *testing.T) {
	sys := hamiltonian.XYTransmon(3, hamiltonian.LinearChain(3))
	target := quantum.MatCCX
	opts := Options{MaxIter: 2, Seed: 1, TargetFidelity: 2} // unreachable: full run
	ctx := context.Background()
	ar := newArena()
	optimize(ctx, sys, target, 8, opts, ar)

	warm := testing.AllocsPerRun(5, func() { optimize(ctx, sys, target, 8, opts, ar) })
	reindexed := testing.AllocsPerRun(5, func() {
		ar.traceSys = nil
		optimize(ctx, sys, target, 8, opts, ar)
	})
	t.Logf("allocs per probe: warm %v, re-indexing %v", warm, reindexed)
	if warm >= reindexed {
		t.Errorf("warm probe allocates %v, re-indexing probe %v: the trace lists are rebuilt per probe", warm, reindexed)
	}

	a := linalg.New(sys.Dim, sys.Dim)
	for i := range a.Data {
		a.Data[i] = complex(float64(i%7)-3.25, float64(i%5)*0.5-1)
	}
	for k, c := range sys.Controls {
		got, want := sparseTrace(a, ar.traces[k]), traceProduct(a, c.H)
		if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
			math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
			t.Errorf("control %s: sparse trace %v, dense %v", c.Name, got, want)
		}
	}
}
