package statevec

import (
	"fmt"
	"math"
	"math/cmplx"

	"paqoc/internal/linalg"
)

// MaxDensityQubits caps NewDensity: ρ holds 4^n entries (1 MiB at 8
// qubits), which covers every Table II benchmark's compacted working set.
const MaxDensityQubits = 8

// Density is an n-qubit density matrix ρ under a gate-based T1/T2 channel
// model: each gate is applied as a unitary, followed by amplitude damping
// and pure dephasing scaled by its pulse duration — the approximation
// QuTiP-style evaluations use.
//
// Rho is row-major, so Rho.Data is a vector over 2n wires: wire w is ρ's
// row qubit w and wire n+w its column qubit w. U ρ U† is then the pure-state
// kernel applied twice, U on the row wires and conj(U) on the column wires.
type Density struct {
	NumQubits int
	Rho       *linalg.Matrix
}

// NewDensity returns |0…0⟩⟨0…0| on n qubits.
func NewDensity(n int) (*Density, error) {
	if n <= 0 || n > MaxDensityQubits {
		return nil, fmt.Errorf("statevec: %d qubits outside 1..%d for a density matrix", n, MaxDensityQubits)
	}
	d := &Density{NumQubits: n, Rho: linalg.New(1<<n, 1<<n)}
	d.Rho.Data[0] = 1
	return d, nil
}

// ApplyUnitary conjugates ρ by a k-qubit unitary on the given wires,
// ρ → U ρ U†, in O(4^n·2^k).
func (d *Density) ApplyUnitary(u *linalg.Matrix, wires []int) error {
	if err := checkWires(d.NumQubits, u, wires); err != nil {
		return err
	}
	n := d.NumQubits
	apply(d.Rho.Data, 2*n, u.Data, wires)
	conj := make([]complex128, len(u.Data))
	for i, v := range u.Data {
		conj[i] = cmplx.Conj(v)
	}
	cols := make([]int, len(wires))
	for i, w := range wires {
		cols[i] = n + w
	}
	apply(d.Rho.Data, 2*n, conj, cols)
	return nil
}

// Decay lets every qubit decohere for a duration in dt: amplitude damping
// with probability γ = 1 − e^(−t/T1), then pure dephasing at the rate
// 1/Tφ = 1/T2 − 1/(2·T1). A coherence time ≤ 0 disables its channel, and
// T2 ≥ 2·T1 leaves damping as the only dephasing. Each channel is applied
// in place to ρ's 2×2 blocks on the qubit with real factors, adding terms
// in the order of its Kraus sum Σ K ρ K†, so the result matches that sum
// bit for bit.
func (d *Density) Decay(duration, t1, t2 float64) {
	if duration <= 0 {
		return
	}
	var r, s float64 // damping Kraus factors √γ and √(1−γ)
	if t1 > 0 {
		g := 1 - math.Exp(-duration/t1)
		r, s = math.Sqrt(g), math.Sqrt(1-g)
	}
	var dephase float64
	if t2 > 0 {
		rate := 1 / t2
		if t1 > 0 {
			rate -= 1 / (2 * t1)
		}
		if rate > 0 {
			dephase = 1 - math.Exp(-duration*rate)
		}
	}
	pr, ps := math.Sqrt(dephase), math.Sqrt(1-dephase)

	n := d.NumQubits
	rho := d.Rho.Data
	for q := 0; q < n; q++ {
		row, col := 1<<(2*n-1-q), 1<<(n-1-q)
		for i := range rho {
			if i&(row|col) != 0 {
				continue
			}
			x00, x01, x10, x11 := rho[i], rho[i|col], rho[i|row], rho[i|row|col]
			if t1 > 0 { // K0 = |0⟩⟨0| + s|1⟩⟨1|, K1 = r|0⟩⟨1|
				x00 += scale(scale(x11, r), r)
				x01 = scale(x01, s)
				x10 = scale(x10, s)
				x11 = scale(scale(x11, s), s)
			}
			if dephase > 0 { // K0 = |0⟩⟨0| + ps|1⟩⟨1|, K1 = pr|1⟩⟨1|
				x01 = scale(x01, ps)
				x10 = scale(x10, ps)
				x11 = scale(scale(x11, ps), ps) + scale(scale(x11, pr), pr)
			}
			rho[i], rho[i|col], rho[i|row], rho[i|row|col] = x00, x01, x10, x11
		}
	}
}

// scale returns k·x with each part added to +0, as the Kraus sum's
// accumulators were, so a vanishing entry is +0 and never −0.
func scale(x complex128, k float64) complex128 {
	return complex(0+k*real(x), 0+k*imag(x))
}

// Fidelity returns ⟨ψ|ρ|ψ⟩ for a pure reference state.
func (d *Density) Fidelity(psi *State) (float64, error) {
	if psi.NumQubits != d.NumQubits {
		return 0, fmt.Errorf("statevec: %d-qubit state vs %d-qubit density matrix", psi.NumQubits, d.NumQubits)
	}
	rhoPsi := d.Rho.MulVec(psi.Amps)
	var f complex128
	for i, a := range psi.Amps {
		f += cmplx.Conj(a) * rhoPsi[i]
	}
	return real(f), nil
}
