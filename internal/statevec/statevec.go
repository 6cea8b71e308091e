// Package statevec is the register simulator. State applies gates directly
// to a 2^n amplitude vector without materializing circuit unitaries, which
// keeps exact whole-circuit checks and fidelity estimates cheap up to
// MaxQubits, and supports measurement sampling for end-to-end demos.
// Density is the mixed-state counterpart: a density matrix under T1/T2
// decay, for the noisy Table II. Both apply gates with one sub-block kernel.
package statevec

import (
	"fmt"
	"math/cmplx"
	"math/rand"

	"paqoc/internal/circuit"
	"paqoc/internal/linalg"
)

// State is an n-qubit pure state. Qubit 0 is the most significant bit of
// the amplitude index, matching the convention of internal/quantum.
type State struct {
	NumQubits int
	Amps      []complex128
}

// MaxQubits bounds allocations (2^24 amplitudes ≈ 256 MiB).
const MaxQubits = 24

// NewState returns |0…0⟩ on n qubits.
func NewState(n int) (*State, error) {
	if n <= 0 || n > MaxQubits {
		return nil, fmt.Errorf("statevec: %d qubits outside 1..%d", n, MaxQubits)
	}
	s := &State{NumQubits: n, Amps: make([]complex128, 1<<n)}
	s.Amps[0] = 1
	return s, nil
}

// NewBasisState returns |index⟩.
func NewBasisState(n, index int) (*State, error) {
	s, err := NewState(n)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= len(s.Amps) {
		return nil, fmt.Errorf("statevec: basis index %d out of range", index)
	}
	s.Amps[0] = 0
	s.Amps[index] = 1
	return s, nil
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	return &State{NumQubits: s.NumQubits, Amps: append([]complex128(nil), s.Amps...)}
}

// Norm returns ⟨ψ|ψ⟩ (should stay 1 under unitary gates).
func (s *State) Norm() float64 {
	var t float64
	for _, a := range s.Amps {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return t
}

// ApplyUnitary applies a k-qubit unitary to the given wires in place.
func (s *State) ApplyUnitary(u *linalg.Matrix, wires []int) error {
	if err := checkWires(s.NumQubits, u, wires); err != nil {
		return err
	}
	apply(s.Amps, s.NumQubits, u.Data, wires)
	return nil
}

// checkWires validates a k-qubit unitary against k distinct wires of an
// n-qubit register.
func checkWires(n int, u *linalg.Matrix, wires []int) error {
	k := len(wires)
	if u.Rows != 1<<k || u.Cols != 1<<k {
		return fmt.Errorf("statevec: unitary dim %d does not match %d wires", u.Rows, k)
	}
	seen := map[int]bool{}
	for _, w := range wires {
		if w < 0 || w >= n || seen[w] {
			return fmt.Errorf("statevec: bad wire list %v", wires)
		}
		seen[w] = true
	}
	return nil
}

// apply multiplies the row-major 2^k×2^k matrix u into every 2^k-entry
// sub-block of amps, a vector over numWires wires (wire 0 is the most
// significant bit of the index), that the given wires address. Wires must
// be valid (checkWires).
func apply(amps []complex128, numWires int, u []complex128, wires []int) {
	k := len(wires)
	shift := make([]int, k) // bit position (from LSB) of each wire
	wireMask := 0
	for i, w := range wires {
		shift[i] = numWires - 1 - w
		wireMask |= 1 << shift[i]
	}

	dim := 1 << k
	scratchIdx := make([]int, dim)
	scratchAmp := make([]complex128, dim)

	// Enumerate all assignments of the non-wire bits: iterate every basis
	// index whose wire bits are all zero, then fan out the 2^k sub-block.
	n := len(amps)
	for base := 0; base < n; base++ {
		if base&wireMask != 0 {
			continue
		}
		for sub := 0; sub < dim; sub++ {
			idx := base
			for b := 0; b < k; b++ {
				if sub>>(k-1-b)&1 == 1 {
					idx |= 1 << shift[b]
				}
			}
			scratchIdx[sub] = idx
			scratchAmp[sub] = amps[idx]
		}
		for row := 0; row < dim; row++ {
			var acc complex128
			urow := u[row*dim : (row+1)*dim]
			for col, a := range scratchAmp {
				if a != 0 {
					acc += urow[col] * a
				}
			}
			amps[scratchIdx[row]] = acc
		}
	}
}

// ApplyGate applies one circuit gate.
func (s *State) ApplyGate(g circuit.Gate) error {
	u, err := g.Unitary()
	if err != nil {
		return err
	}
	return s.ApplyUnitary(u, g.Qubits)
}

// ApplyCircuit runs all gates of a circuit in order.
func (s *State) ApplyCircuit(c *circuit.Circuit) error {
	if c.NumQubits != s.NumQubits {
		return fmt.Errorf("statevec: circuit has %d qubits, state has %d", c.NumQubits, s.NumQubits)
	}
	for _, g := range c.Gates {
		if err := s.ApplyGate(g); err != nil {
			return err
		}
	}
	return nil
}

// Run simulates a circuit from |0…0⟩.
func Run(c *circuit.Circuit) (*State, error) {
	s, err := NewState(c.NumQubits)
	if err != nil {
		return nil, err
	}
	if err := s.ApplyCircuit(c); err != nil {
		return nil, err
	}
	return s, nil
}

// Probability returns |⟨index|ψ⟩|².
func (s *State) Probability(index int) float64 {
	a := s.Amps[index]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Overlap returns ⟨a|b⟩.
func Overlap(a, b *State) (complex128, error) {
	if a.NumQubits != b.NumQubits {
		return 0, fmt.Errorf("statevec: qubit mismatch")
	}
	var t complex128
	for i := range a.Amps {
		t += cmplx.Conj(a.Amps[i]) * b.Amps[i]
	}
	return t, nil
}

// Fidelity returns |⟨a|b⟩|².
func Fidelity(a, b *State) (float64, error) {
	ov, err := Overlap(a, b)
	if err != nil {
		return 0, err
	}
	return real(ov)*real(ov) + imag(ov)*imag(ov), nil
}

// Sample draws shot computational-basis measurement outcomes.
func (s *State) Sample(rng *rand.Rand, shots int) []int {
	out := make([]int, shots)
	for i := 0; i < shots; i++ {
		r := rng.Float64()
		acc := 0.0
		idx := len(s.Amps) - 1
		for j, a := range s.Amps {
			acc += real(a)*real(a) + imag(a)*imag(a)
			if r < acc {
				idx = j
				break
			}
		}
		out[i] = idx
	}
	return out
}

// Counts aggregates samples into a histogram keyed by bitstring.
func Counts(samples []int, n int) map[string]int {
	out := map[string]int{}
	for _, s := range samples {
		out[bitstring(s, n)]++
	}
	return out
}

func bitstring(v, n int) string {
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		if v>>(n-1-i)&1 == 1 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// ExpectationZ returns ⟨Z_q⟩ for one qubit.
func (s *State) ExpectationZ(q int) float64 {
	sh := s.NumQubits - 1 - q
	var e float64
	for i, a := range s.Amps {
		p := real(a)*real(a) + imag(a)*imag(a)
		if i>>sh&1 == 0 {
			e += p
		} else {
			e -= p
		}
	}
	return e
}
