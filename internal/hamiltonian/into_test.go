package hamiltonian

import (
	"fmt"
	"math/rand"
	"testing"

	"paqoc/internal/linalg"
)

// TestPropagatorIntoMatchesPropagator pins the wrapper contract on the
// system level: the destination-passing propagator is bit-identical to
// the allocating one, with and without a shared workspace.
func TestPropagatorIntoMatchesPropagator(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sys := XYTransmon(2, [][2]int{{0, 1}})
	ws := linalg.NewWorkspace(sys.Dim)
	amps := make([]float64, len(sys.Controls))
	dst := linalg.New(sys.Dim, sys.Dim)
	for trial := 0; trial < 5; trial++ {
		for k := range amps {
			amps[k] = sys.Controls[k].Bound * (rng.Float64()*2 - 1)
		}
		want := sys.Propagator(amps, 4)
		sys.PropagatorInto(dst, amps, 4, ws)
		if !want.Equal(dst, 0) {
			t.Fatalf("trial %d: PropagatorInto diverged from Propagator", trial)
		}
		sys.PropagatorInto(dst, amps, 4, nil)
		if !want.Equal(dst, 0) {
			t.Fatalf("trial %d: PropagatorInto with nil workspace diverged", trial)
		}
	}
}

// TestPropagatorIntoZeroAlloc gates the hot-loop contract: with a warm
// workspace, assembling H and exponentiating allocates nothing.
func TestPropagatorIntoZeroAlloc(t *testing.T) {
	for n := 1; n <= 4; n++ {
		sys := XYTransmon(n, LinearChain(n))
		ws := linalg.NewWorkspace(sys.Dim)
		amps := make([]float64, len(sys.Controls))
		for k := range amps {
			amps[k] = 0.01 * float64(k+1)
		}
		dst := linalg.New(sys.Dim, sys.Dim)
		sys.PropagatorInto(dst, amps, 4, ws) // warm the workspace
		if allocs := testing.AllocsPerRun(20, func() {
			sys.PropagatorInto(dst, amps, 4, ws)
		}); allocs != 0 {
			t.Errorf("%d qubits: PropagatorInto: %v allocs/op with warm workspace, want 0", n, allocs)
		}
	}
}

// TestHamiltonianIntoMatchesDenseAssembly compares the sparse control
// accumulate with the dense complex one it replaced, Drift + Σ (a+0i)·H_k
// via AddInPlace: every entry is equal as a value (only the sign of a
// zero may differ), on ideal and ZZ-crosstalk systems, with amplitude
// vectors that hold exact zeros.
func TestHamiltonianIntoMatchesDenseAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 4; n++ {
		ideal := XYTransmon(n, AllPairs(n))
		zz, err := ideal.WithZZCrosstalk(AllPairs(n), 3*TypicalZZCrosstalk)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range []*System{ideal, zz} {
			got, want := linalg.New(sys.Dim, sys.Dim), linalg.New(sys.Dim, sys.Dim)
			amps := make([]float64, len(sys.Controls))
			for trial := 0; trial < 20; trial++ {
				for k := range amps {
					amps[k] = 0
					if rng.Intn(3) > 0 {
						amps[k] = sys.Controls[k].Bound * (2*rng.Float64() - 1)
					}
				}
				sys.HamiltonianInto(got, amps)
				want.CopyFrom(sys.Drift)
				for k, c := range sys.Controls {
					if amps[k] != 0 {
						want.AddInPlace(c.H, complex(amps[k], 0))
					}
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("n=%d trial %d: entry %d is %v, dense assembly %v", n, trial, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestHamiltonianIntoRejectsBareControl: a control assembled as a struct
// literal carries no nonzero index, so HamiltonianInto must fail loudly
// instead of silently dropping its term.
func TestHamiltonianIntoRejectsBareControl(t *testing.T) {
	sys := XYTransmon(1, nil)
	sys.Controls = append(sys.Controls, Control{Name: "bare", H: sys.Controls[0].H, Bound: 1})
	defer func() {
		if recover() == nil {
			t.Error("HamiltonianInto accepted a control built without a System constructor")
		}
	}()
	sys.Hamiltonian(make([]float64, len(sys.Controls)))
}

// BenchmarkPropagatorInto times one GRAPE slice propagator — Hamiltonian
// assembly plus exponential — on 2-, 3- and 4-qubit chains at the
// amplitudes of a cold GRAPE start (a fifth of each control's bound).
func BenchmarkPropagatorInto(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("%dq", n), func(b *testing.B) {
			sys := XYTransmon(n, LinearChain(n))
			rng := rand.New(rand.NewSource(int64(n)))
			amps := make([]float64, len(sys.Controls))
			for k := range amps {
				amps[k] = sys.Controls[k].Bound * 0.2 * (rng.Float64()*2 - 1)
			}
			ws := linalg.NewWorkspace(sys.Dim)
			dst := linalg.New(sys.Dim, sys.Dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.PropagatorInto(dst, amps, 4, ws)
			}
		})
	}
}
