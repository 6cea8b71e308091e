// Package quantum provides the standard gate library: names, arities,
// unitary matrices (including parameterized rotations), and helpers for
// embedding gate unitaries into multi-qubit Hilbert spaces. Qubit 0 is the
// most significant bit of the computational-basis index, matching the
// little-endian-on-wires convention used throughout the circuit IR.
package quantum

import (
	"fmt"
	"math"
	"math/cmplx"

	"paqoc/internal/linalg"
)

// Common fixed 2x2 unitaries.
var (
	sqrt1_2 = complex(1/math.Sqrt2, 0)

	// MatI is the single-qubit identity.
	MatI = linalg.FromRows([][]complex128{{1, 0}, {0, 1}})
	// MatX is the Pauli-X (NOT) gate.
	MatX = linalg.FromRows([][]complex128{{0, 1}, {1, 0}})
	// MatY is the Pauli-Y gate.
	MatY = linalg.FromRows([][]complex128{{0, -1i}, {1i, 0}})
	// MatZ is the Pauli-Z gate.
	MatZ = linalg.FromRows([][]complex128{{1, 0}, {0, -1}})
	// MatH is the Hadamard gate.
	MatH = linalg.FromRows([][]complex128{{sqrt1_2, sqrt1_2}, {sqrt1_2, -sqrt1_2}})
	// MatS is the phase gate S = sqrt(Z).
	MatS = linalg.FromRows([][]complex128{{1, 0}, {0, 1i}})
	// MatSdg is S†.
	MatSdg = linalg.FromRows([][]complex128{{1, 0}, {0, -1i}})
	// MatT is the T gate (π/8).
	MatT = linalg.FromRows([][]complex128{{1, 0}, {0, cmplx.Exp(1i * math.Pi / 4)}})
	// MatTdg is T†.
	MatTdg = linalg.FromRows([][]complex128{{1, 0}, {0, cmplx.Exp(-1i * math.Pi / 4)}})
	// MatSX is sqrt(X), a native IBM basis gate.
	MatSX = linalg.FromRows([][]complex128{
		{0.5 + 0.5i, 0.5 - 0.5i},
		{0.5 - 0.5i, 0.5 + 0.5i},
	})
)

// RX returns the rotation e^{-i θ X/2}.
func RX(theta float64) *linalg.Matrix {
	c, s := math.Cos(theta/2), math.Sin(theta/2)
	return linalg.FromRows([][]complex128{
		{complex(c, 0), complex(0, -s)},
		{complex(0, -s), complex(c, 0)},
	})
}

// RY returns the rotation e^{-i θ Y/2}.
func RY(theta float64) *linalg.Matrix {
	c, s := math.Cos(theta/2), math.Sin(theta/2)
	return linalg.FromRows([][]complex128{
		{complex(c, 0), complex(-s, 0)},
		{complex(s, 0), complex(c, 0)},
	})
}

// RZ returns the rotation e^{-i θ Z/2}.
func RZ(theta float64) *linalg.Matrix {
	return linalg.FromRows([][]complex128{
		{cmplx.Exp(complex(0, -theta/2)), 0},
		{0, cmplx.Exp(complex(0, theta/2))},
	})
}

// U1 returns the phase gate diag(1, e^{iλ}) (equal to RZ up to global phase).
func U1(lambda float64) *linalg.Matrix {
	return linalg.FromRows([][]complex128{{1, 0}, {0, cmplx.Exp(complex(0, lambda))}})
}

// U2 returns the IBM U2(φ, λ) gate.
func U2(phi, lambda float64) *linalg.Matrix {
	return U3(math.Pi/2, phi, lambda)
}

// U3 returns the general single-qubit gate U3(θ, φ, λ).
func U3(theta, phi, lambda float64) *linalg.Matrix {
	c, s := math.Cos(theta/2), math.Sin(theta/2)
	return linalg.FromRows([][]complex128{
		{complex(c, 0), -cmplx.Exp(complex(0, lambda)) * complex(s, 0)},
		{cmplx.Exp(complex(0, phi)) * complex(s, 0), cmplx.Exp(complex(0, phi+lambda)) * complex(c, 0)},
	})
}

// Two-qubit fixed unitaries, qubit order (control, target) = (q0, q1) with
// q0 the most significant index bit.
var (
	// MatCX is the controlled-NOT with control on the first qubit.
	MatCX = linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	})
	// MatCZ is the controlled-Z gate (symmetric in its qubits).
	MatCZ = linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, -1},
	})
	// MatSWAP exchanges two qubits.
	MatSWAP = linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
	})
	// MatISWAP is the iSWAP gate, native to XY-coupled hardware.
	MatISWAP = linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 0, 1i, 0},
		{0, 1i, 0, 0},
		{0, 0, 0, 1},
	})
)

// CPhase returns the controlled-phase gate diag(1,1,1,e^{iλ}).
func CPhase(lambda float64) *linalg.Matrix {
	m := linalg.Identity(4)
	m.Set(3, 3, cmplx.Exp(complex(0, lambda)))
	return m
}

// CRZ returns the controlled-RZ gate.
func CRZ(theta float64) *linalg.Matrix {
	m := linalg.Identity(4)
	m.Set(2, 2, cmplx.Exp(complex(0, -theta/2)))
	m.Set(3, 3, cmplx.Exp(complex(0, theta/2)))
	return m
}

// MatCCX is the Toffoli gate (controls on qubits 0 and 1, target qubit 2).
var MatCCX = func() *linalg.Matrix {
	m := linalg.Identity(8)
	m.Set(6, 6, 0)
	m.Set(7, 7, 0)
	m.Set(6, 7, 1)
	m.Set(7, 6, 1)
	return m
}()

// MatCCZ is the doubly-controlled Z gate.
var MatCCZ = func() *linalg.Matrix {
	m := linalg.Identity(8)
	m.Set(7, 7, -1)
	return m
}()

// MatCSWAP is the Fredkin (controlled-SWAP) gate, control on qubit 0.
var MatCSWAP = func() *linalg.Matrix {
	m := linalg.Identity(8)
	m.Set(5, 5, 0)
	m.Set(6, 6, 0)
	m.Set(5, 6, 1)
	m.Set(6, 5, 1)
	return m
}()

// gateDef is one entry of the gate table: the gate's arity, and its
// matrix if it takes no parameters, else its parameter count and
// constructor.
type gateDef struct {
	arity  int
	fixed  *linalg.Matrix
	params int
	build  func(p []float64) *linalg.Matrix
}

// gateTable holds every named gate. Names are lowercase, matching the
// circuit IR. Fixed entries are shared: GateUnitary copies them and
// GateMatrix does not.
var gateTable = map[string]gateDef{
	"id":      {arity: 1, fixed: MatI},
	"x":       {arity: 1, fixed: MatX},
	"y":       {arity: 1, fixed: MatY},
	"z":       {arity: 1, fixed: MatZ},
	"h":       {arity: 1, fixed: MatH},
	"s":       {arity: 1, fixed: MatS},
	"sdg":     {arity: 1, fixed: MatSdg},
	"t":       {arity: 1, fixed: MatT},
	"tdg":     {arity: 1, fixed: MatTdg},
	"sx":      {arity: 1, fixed: MatSX},
	"rx":      {arity: 1, params: 1, build: func(p []float64) *linalg.Matrix { return RX(p[0]) }},
	"ry":      {arity: 1, params: 1, build: func(p []float64) *linalg.Matrix { return RY(p[0]) }},
	"rz":      {arity: 1, params: 1, build: func(p []float64) *linalg.Matrix { return RZ(p[0]) }},
	"u1":      {arity: 1, params: 1, build: func(p []float64) *linalg.Matrix { return U1(p[0]) }},
	"u2":      {arity: 1, params: 2, build: func(p []float64) *linalg.Matrix { return U2(p[0], p[1]) }},
	"u3":      {arity: 1, params: 3, build: func(p []float64) *linalg.Matrix { return U3(p[0], p[1], p[2]) }},
	"cx":      {arity: 2, fixed: MatCX},
	"cz":      {arity: 2, fixed: MatCZ},
	"swap":    {arity: 2, fixed: MatSWAP},
	"iswap":   {arity: 2, fixed: MatISWAP},
	"cp":      {arity: 2, params: 1, build: func(p []float64) *linalg.Matrix { return CPhase(p[0]) }},
	"cphase":  {arity: 2, params: 1, build: func(p []float64) *linalg.Matrix { return CPhase(p[0]) }},
	"cu1":     {arity: 2, params: 1, build: func(p []float64) *linalg.Matrix { return CPhase(p[0]) }},
	"crz":     {arity: 2, params: 1, build: func(p []float64) *linalg.Matrix { return CRZ(p[0]) }},
	"ccx":     {arity: 3, fixed: MatCCX},
	"toffoli": {arity: 3, fixed: MatCCX},
	"ccz":     {arity: 3, fixed: MatCCZ},
	"cswap":   {arity: 3, fixed: MatCSWAP},
}

// gate looks a named gate up in the table. shared reports that u is the
// table's own matrix. A wrong parameter count is an error; a
// parameter-free gate still returns its matrix beside it.
func gate(name string, params []float64) (u *linalg.Matrix, shared bool, err error) {
	d, ok := gateTable[name]
	if !ok {
		return nil, false, fmt.Errorf("quantum: unknown gate %q", name)
	}
	if len(params) != d.params {
		err = fmt.Errorf("quantum: gate %q wants %d params, got %d", name, d.params, len(params))
	}
	if d.fixed != nil {
		return d.fixed, true, err
	}
	if err != nil {
		return nil, false, err
	}
	return d.build(params), false, nil
}

// GateUnitary returns the unitary for a named gate with the given
// parameters, as a matrix the caller owns. It returns an error for unknown
// names or wrong parameter counts.
func GateUnitary(name string, params []float64) (*linalg.Matrix, error) {
	u, shared, err := gate(name, params)
	if shared {
		u = u.Clone()
	}
	return u, err
}

// GateMatrix is GateUnitary without the copy, for callers that only read
// the matrix: a parameter-free gate's matrix is the gate table's shared
// instance and must not be modified.
func GateMatrix(name string, params []float64) (*linalg.Matrix, error) {
	u, _, err := gate(name, params)
	return u, err
}

// GateArity returns the number of qubits a named gate acts on, or 0 if the
// gate is unknown.
func GateArity(name string) int { return gateTable[name].arity }

// IsControlled reports whether the named gate has control qubit(s) leading
// its operand list; used by the miner's edge labelling (§III-A).
func IsControlled(name string) bool {
	switch name {
	case "cx", "cz", "cp", "cphase", "cu1", "crz", "ccx", "toffoli", "ccz", "cswap":
		return true
	}
	return false
}
