package linalg_test

import (
	"fmt"
	"math"
	"math/cmplx"
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

// forEachPropagatorCase runs check on every registered device profile's
// 1–4-qubit systems (chain and all-pairs couplings, the high-ZZ profile's
// drift included), 100 amplitude vectors each, which hold exact zeros
// (trial 0 is the drift alone), at the slice lengths GRAPE uses.
func forEachPropagatorCase(t *testing.T, check func(sys *hamiltonian.System, amps []float64, dt float64) string) {
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
				amps := make([]float64, len(sys.Controls))
				for trial := 0; trial < 100; trial++ {
					for k := range amps {
						amps[k] = 0 // trial 0: drift only
						if trial > 0 && rng.Intn(4) > 0 {
							amps[k] = sys.Controls[k].Bound * (2*rng.Float64() - 1)
						}
					}
					dt := []float64{1, 4, 4, 16}[trial%4]
					if msg := check(sys, amps, dt); msg != "" {
						t.Fatalf("%s n=%d pairs=%v trial %d: %s", name, n, pairs, trial, msg)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d propagators checked", checked)
}

// TestHamiltonianIntoMatchesDenseOracle pins the sparse control assembly
// bit for bit against the dense complex assembly it replaced.
func TestHamiltonianIntoMatchesDenseOracle(t *testing.T) {
	forEachPropagatorCase(t, func(sys *hamiltonian.System, amps []float64, _ float64) string {
		got, want := linalg.New(sys.Dim, sys.Dim), linalg.New(sys.Dim, sys.Dim)
		sys.HamiltonianInto(got, amps)
		denseHamiltonianInto(want, sys, amps)
		for i := range want.Data {
			w, g := want.Data[i], got.Data[i]
			if math.Float64bits(real(w)) != math.Float64bits(real(g)) ||
				math.Float64bits(imag(w)) != math.Float64bits(imag(g)) {
				return fmt.Sprintf("entry %d is %v, dense oracle %v", i, g, w)
			}
		}
		return ""
	})
}

// TestPropagatorIntoMatchesDenseOracle pins the GRAPE slice propagator
// against the code it replaced — dense complex assembly and the
// three-pass Taylor loop — within 1e-15·2^s per entry.
func TestPropagatorIntoMatchesDenseOracle(t *testing.T) {
	forEachPropagatorCase(t, func(sys *hamiltonian.System, amps []float64, dt float64) string {
		h, arg := linalg.New(sys.Dim, sys.Dim), linalg.New(sys.Dim, sys.Dim)
		got, want := linalg.New(sys.Dim, sys.Dim), linalg.New(sys.Dim, sys.Dim)
		sys.PropagatorInto(got, amps, dt, nil)
		denseHamiltonianInto(h, sys, amps)
		linalg.ScaleInto(arg, h, complex(0, -dt))
		linalg.ExpmIntoThreePass(want, arg)
		tol := linalg.ExpmTolerance(arg, h, dt)
		for i := range want.Data {
			if d := cmplx.Abs(got.Data[i] - want.Data[i]); !(d <= tol) {
				return fmt.Sprintf("entry %d is %v, dense oracle %v (tolerance %g)", i, got.Data[i], want.Data[i], tol)
			}
		}
		return ""
	})
}

// BenchmarkMulSparseLeft times A·A, the exponential's first product, for
// a GRAPE slice argument A = −i·4·H on 2- and 3-qubit chains at GRAPE's
// operating point (amplitudes uniform in ±bound): the sparse left
// operand whose zero entries the product's skip passes over.
func BenchmarkMulSparseLeft(b *testing.B) {
	for _, n := range []int{2, 3} {
		b.Run(fmt.Sprintf("%dq", n), func(b *testing.B) {
			sys := hamiltonian.XYTransmon(n, hamiltonian.LinearChain(n))
			rng := rand.New(rand.NewSource(int64(n)))
			amps := make([]float64, len(sys.Controls))
			for k := range amps {
				amps[k] = sys.Controls[k].Bound * (rng.Float64()*2 - 1)
			}
			h, a, dst := linalg.New(sys.Dim, sys.Dim), linalg.New(sys.Dim, sys.Dim), linalg.New(sys.Dim, sys.Dim)
			sys.HamiltonianInto(h, amps)
			linalg.ScaleInto(a, h, complex(0, -4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				linalg.MulInto(dst, a, a)
			}
		})
	}
}
