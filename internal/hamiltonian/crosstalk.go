package hamiltonian

import (
	"fmt"

	"paqoc/internal/linalg"
	"paqoc/internal/quantum"
)

// WithZZCrosstalk returns a copy of the system whose drift Hamiltonian
// carries always-on ZZ crosstalk of strength zeta (rad/dt) on each given
// pair — the dominant error term of fixed-coupling transmons (§II-C cites
// Xie et al. [50]). The paper argues its method carries over once error
// terms enter Eq. (1): "we only have to update Equation (1) and apply the
// same method". GRAPE run against the updated system compensates the
// crosstalk; pulses generated for the ideal system degrade under it (see
// the package tests and internal/grape's crosstalk tests).
//
// Pairs are validated against the system's qubit count up front: an
// out-of-range or degenerate pair returns an error here, rather than a
// panic deep inside quantum.Embed.
func (s *System) WithZZCrosstalk(pairs [][2]int, zeta float64) (*System, error) {
	for _, p := range pairs {
		if p[0] == p[1] || p[0] < 0 || p[1] < 0 || p[0] >= s.NumQubits || p[1] >= s.NumQubits {
			return nil, fmt.Errorf("hamiltonian: crosstalk pair (%d,%d) invalid for %d-qubit system", p[0], p[1], s.NumQubits)
		}
	}
	out := &System{
		NumQubits: s.NumQubits,
		Dim:       s.Dim,
		Drift:     s.Drift.Clone(),
		Controls:  append([]Control(nil), s.Controls...),
		Params:    s.Params,
	}
	half := complex(0.5, 0)
	for _, p := range pairs {
		zz := quantum.MatZ.Kron(quantum.MatZ).Scale(half)
		term := quantum.Embed(zz, []int{p[0], p[1]}, s.NumQubits)
		out.Drift.AddInPlace(term, complex(zeta, 0))
	}
	return out, nil
}

// TypicalZZCrosstalk is a strong-but-realistic always-on ZZ rate for
// fixed-coupling transmons (≈1 MHz), expressed in rad/dt.
var TypicalZZCrosstalk = 2 * 3.141592653589793 * 1e-3 * DtNanoseconds

// IdealTwin returns the crosstalk-free version of a system (zero drift,
// same controls) — the model a naive compiler would calibrate against.
func (s *System) IdealTwin() *System {
	return &System{
		NumQubits: s.NumQubits,
		Dim:       s.Dim,
		Drift:     linalg.New(s.Dim, s.Dim),
		Controls:  append([]Control(nil), s.Controls...),
		Params:    s.Params,
	}
}
