// Package hamiltonian models the device per the paper's Eq. (1):
//
//	H(t) = H0 + Σ_k α_k(t)·H_k
//
// with a drift term H0 and time-dependent control Hamiltonians H_k whose
// amplitudes α_k(t) are bounded by the hardware. The evaluation platform
// (§VI-c) is a transmon architecture with XY interaction: per-qubit X and Y
// drives bounded at 5·μmax and per-pair XY couplings bounded at
// μmax = 0.02 GHz. Times are measured in the device sample unit dt
// (2/9 ns, the IBM convention), and amplitudes in rad/dt, so an amplitude
// of a rotates the Bloch vector at a rad per dt.
package hamiltonian

import (
	"fmt"
	"math"
	"strconv"

	"paqoc/internal/linalg"
	"paqoc/internal/quantum"
)

// Physical constants of the platform (§VI-c).
const (
	// DtNanoseconds is the duration of one dt sample (IBM convention).
	DtNanoseconds = 2.0 / 9.0
	// MuMaxGHz is the XY-interaction control-field limit, 0.02 GHz.
	MuMaxGHz = 0.02
	// SingleQubitFactor scales the single-qubit rotation field: 5·μmax.
	SingleQubitFactor = 5.0
)

// CouplingBound is μmax expressed in rad/dt: 2π·0.02 GHz · dt.
var CouplingBound = 2 * math.Pi * MuMaxGHz * DtNanoseconds

// DriveBound is the single-qubit drive limit in rad/dt: 5·μmax.
var DriveBound = SingleQubitFactor * CouplingBound

// Params bundles the physical control parameters of one device so they can
// vary per backend (internal/device builds a Params from each profile). The
// zero value is not meaningful; use DefaultParams for the paper's platform.
type Params struct {
	// DtNanoseconds is the duration of one dt sample.
	DtNanoseconds float64
	// MuMaxGHz is the two-qubit interaction control-field limit in GHz.
	MuMaxGHz float64
	// SingleQubitFactor scales the single-qubit drive bound relative to
	// the coupling bound.
	SingleQubitFactor float64
}

// DefaultParams returns the paper's §VI-c platform parameters — the values
// the package-level constants carry.
func DefaultParams() Params {
	return Params{
		DtNanoseconds:     DtNanoseconds,
		MuMaxGHz:          MuMaxGHz,
		SingleQubitFactor: SingleQubitFactor,
	}
}

// CouplingBound is μmax in rad/dt. The expression mirrors the package-level
// CouplingBound exactly so DefaultParams reproduces it bit for bit.
func (p Params) CouplingBound() float64 {
	return 2 * math.Pi * p.MuMaxGHz * p.DtNanoseconds
}

// DriveBound is the single-qubit drive limit in rad/dt.
func (p Params) DriveBound() float64 {
	return p.SingleQubitFactor * p.CouplingBound()
}

// IsZero reports whether p is the zero value (callers that take an optional
// Params fall back to DefaultParams).
func (p Params) IsZero() bool { return p == Params{} }

// Control is one controllable term α_k(t)·H_k. Controls are built by the
// System constructors, which index H's nonzero entries for
// HamiltonianInto; H must not be modified afterwards.
type Control struct {
	Name  string
	H     *linalg.Matrix // Hermitian generator on the full system space
	Bound float64        // |α_k| ≤ Bound, in rad/dt

	nz []int32 // indices into H.Data of its nonzero entries, ascending
}

// newControl builds a control and indexes its generator's nonzero
// entries. The index is non-nil even for an all-zero H, so
// HamiltonianInto can tell a control built here from a bare literal.
func newControl(name string, h *linalg.Matrix, bound float64) Control {
	count := 0
	for _, v := range h.Data {
		if v != 0 {
			count++
		}
	}
	nz := make([]int32, 0, count)
	for i, v := range h.Data {
		if v != 0 {
			nz = append(nz, int32(i))
		}
	}
	return Control{Name: name, H: h, Bound: bound, nz: nz}
}

// System is a concrete instance of Eq. (1) for a (sub)set of qubits.
type System struct {
	NumQubits int
	Dim       int
	Drift     *linalg.Matrix
	Controls  []Control
	// Params records the device parameters the constructor derived the
	// control bounds from, so code that estimates durations for this
	// system (the minimum-time search's prior) uses the same backend. Only
	// the constructors set it.
	Params Params
}

// XYTransmon builds the paper's platform Hamiltonian for n qubits: X and Y
// drives on every qubit and an XY (flip-flop) interaction on every coupled
// pair. The rotating-frame drift is zero. pairs lists coupled qubit index
// pairs local to this system (0-based).
func XYTransmon(n int, pairs [][2]int) *System {
	return XYTransmonWith(DefaultParams(), n, pairs)
}

// XYTransmonWith is XYTransmon with explicit device parameters: the drive
// and coupling bounds come from params instead of the package constants.
// XYTransmon(n, pairs) ≡ XYTransmonWith(DefaultParams(), n, pairs).
func XYTransmonWith(params Params, n int, pairs [][2]int) *System {
	if n <= 0 {
		panic("hamiltonian: need at least one qubit")
	}
	driveBound := params.DriveBound()
	couplingBound := params.CouplingBound()
	dim := 1 << n
	sys := &System{NumQubits: n, Dim: dim, Drift: linalg.New(dim, dim), Params: params}

	half := complex(0.5, 0)
	names := ControlNames(n, pairs, nil)
	for q := 0; q < n; q++ {
		sys.Controls = append(sys.Controls,
			newControl(names[2*q], quantum.Embed(quantum.MatX.Scale(half), []int{q}, n), driveBound),
			newControl(names[2*q+1], quantum.Embed(quantum.MatY.Scale(half), []int{q}, n), driveBound))
	}
	for i, p := range pairs {
		if p[0] == p[1] || p[0] < 0 || p[1] < 0 || p[0] >= n || p[1] >= n {
			panic(fmt.Sprintf("hamiltonian: bad coupling pair %v", p))
		}
		xx := quantum.MatX.Kron(quantum.MatX)
		yy := quantum.MatY.Kron(quantum.MatY)
		gen := xx.Add(yy).Scale(half)
		sys.Controls = append(sys.Controls,
			newControl(names[2*n+i], quantum.Embed(gen, []int{p[0], p[1]}, n), couplingBound))
	}
	return sys
}

// ControlNames returns the control names of XYTransmon(n, pairs), in
// control order: the X and Y drives "d<q>.x" and "d<q>.y" of every qubit,
// then "c<a>.<b>.xy" for every coupled pair as given. With a non-nil
// relabel, qubit q is named relabel[q] and each pair's lower label comes
// first: the names the same controls carry on a system whose qubits are
// relabelled.
func ControlNames(n int, pairs [][2]int, relabel []int) []string {
	label := func(q int) string {
		if relabel != nil {
			q = relabel[q]
		}
		return strconv.Itoa(q)
	}
	names := make([]string, 0, 2*n+len(pairs))
	for q := 0; q < n; q++ {
		d := "d" + label(q)
		names = append(names, d+".x", d+".y")
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		if relabel != nil && relabel[a] > relabel[b] {
			a, b = b, a
		}
		names = append(names, "c"+label(a)+"."+label(b)+".xy")
	}
	return names
}

// LinearChain returns the coupling pairs of a 1-D chain over n qubits —
// the interaction graph of a customized gate whose qubits sit on a line.
func LinearChain(n int) [][2]int {
	var pairs [][2]int
	for i := 0; i+1 < n; i++ {
		pairs = append(pairs, [2]int{i, i + 1})
	}
	return pairs
}

// AllPairs returns every qubit pair; used when the merged gate's qubits
// form a clique on the device.
func AllPairs(n int) [][2]int {
	var pairs [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	return pairs
}

// Hamiltonian assembles H(t) for one vector of control amplitudes.
// Allocates; see HamiltonianInto.
func (s *System) Hamiltonian(amps []float64) *linalg.Matrix {
	h := linalg.New(s.Dim, s.Dim)
	s.HamiltonianInto(h, amps)
	return h
}

// HamiltonianInto assembles H(t) into dst (Dim×Dim), without allocating.
// Each control adds a·H_k over H_k's indexed nonzero entries only, scaling
// both parts by the real amplitude a: the embedded Pauli generators are
// 1/8 to 1/16 nonzero. Against the dense complex accumulate
// dst += (a+0i)·H_k this can change only the sign of a zero entry, which
// no product reads (DESIGN.md, "Sparse assembly and traces").
func (s *System) HamiltonianInto(dst *linalg.Matrix, amps []float64) {
	if len(amps) != len(s.Controls) {
		panic(fmt.Sprintf("hamiltonian: %d amps for %d controls", len(amps), len(s.Controls)))
	}
	dst.CopyFrom(s.Drift)
	for k, c := range s.Controls {
		if c.nz == nil {
			panic(fmt.Sprintf("hamiltonian: control %q was not built by a System constructor", c.Name))
		}
		a := amps[k]
		if a == 0 {
			continue
		}
		h := c.H.Data[:len(dst.Data)]
		for _, i := range c.nz {
			v := h[i]
			dst.Data[i] += complex(float64(a*real(v)), float64(a*imag(v)))
		}
	}
}

// Propagator returns the unitary e^{-i·H(amps)·dt} for one slice of
// duration dt. Allocates; see PropagatorInto for the destination-passing
// form used by the GRAPE and pulse-simulation hot loops.
func (s *System) Propagator(amps []float64, dt float64) *linalg.Matrix {
	dst := linalg.New(s.Dim, s.Dim)
	s.PropagatorInto(dst, amps, dt, nil)
	return dst
}

// PropagatorInto computes e^{-i·H(amps)·dt} into dst (Dim×Dim) without
// allocating: the Hamiltonian is assembled in ws.Scratch and the
// exponential runs on ws's buffers. A nil ws allocates a temporary one.
// dst must not alias a workspace buffer. Results are bit-identical to
// Propagator.
func (s *System) PropagatorInto(dst *linalg.Matrix, amps []float64, dt float64, ws *linalg.Workspace) {
	if ws == nil {
		ws = linalg.NewWorkspace(s.Dim)
	}
	h := ws.Scratch(s.Dim)
	s.HamiltonianInto(h, amps)
	linalg.ExpmHermitianInto(dst, h, dt, ws)
}

// ClipAmps clamps each amplitude to its control's bound, in place.
func (s *System) ClipAmps(amps []float64) {
	for k := range amps {
		b := s.Controls[k].Bound
		if amps[k] > b {
			amps[k] = b
		} else if amps[k] < -b {
			amps[k] = -b
		}
	}
}
