package linalg_test

import (
	"math"
	"math/rand"
	"testing"

	"paqoc/internal/device"
	"paqoc/internal/hamiltonian"
	"paqoc/internal/linalg"
)

// denseHamiltonianInto is HamiltonianInto before the sparse control
// accumulate: the drift plus a complex (a+0i)·H_k over every entry of
// every control with a nonzero amplitude.
func denseHamiltonianInto(dst *linalg.Matrix, sys *hamiltonian.System, amps []float64) {
	dst.CopyFrom(sys.Drift)
	for k, c := range sys.Controls {
		if amps[k] == 0 {
			continue
		}
		dst.AddInPlace(c.H, complex(amps[k], 0))
	}
}

// TestPropagatorIntoMatchesDenseOracle pins the GRAPE slice propagator bit
// for bit against the code it replaced — dense complex assembly and the
// three-pass Taylor loop — on every registered device profile's 1–4-qubit
// systems (chain and all-pairs couplings, the high-ZZ profile's drift
// included), with amplitude vectors that hold exact zeros.
func TestPropagatorIntoMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	checked := 0
	for _, name := range device.Names() {
		prof, err := device.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 4; n++ {
			for _, pairs := range [][][2]int{hamiltonian.LinearChain(n), hamiltonian.AllPairs(n)} {
				sys := prof.System(n, pairs)
				ws := linalg.NewWorkspace(sys.Dim)
				h, arg := linalg.New(sys.Dim, sys.Dim), linalg.New(sys.Dim, sys.Dim)
				got, want := linalg.New(sys.Dim, sys.Dim), linalg.New(sys.Dim, sys.Dim)
				amps := make([]float64, len(sys.Controls))
				for trial := 0; trial < 100; trial++ {
					for k := range amps {
						amps[k] = 0 // trial 0: drift only
						if trial > 0 && rng.Intn(4) > 0 {
							amps[k] = sys.Controls[k].Bound * (2*rng.Float64() - 1)
						}
					}
					dt := []float64{1, 4, 4, 16}[trial%4]
					sys.PropagatorInto(got, amps, dt, ws)
					denseHamiltonianInto(h, sys, amps)
					linalg.ScaleInto(arg, h, complex(0, -dt))
					linalg.ExpmIntoThreePass(want, arg)
					for i := range want.Data {
						w, g := want.Data[i], got.Data[i]
						if math.Float64bits(real(w)) != math.Float64bits(real(g)) ||
							math.Float64bits(imag(w)) != math.Float64bits(imag(g)) {
							t.Fatalf("%s n=%d pairs=%v trial %d: entry %d is %v, dense oracle %v",
								name, n, pairs, trial, i, g, w)
						}
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d propagators bit-identical", checked)
}
