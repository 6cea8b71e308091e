// Package circuit defines the gate-level intermediate representation used
// throughout PAQOC: circuits over physical qubits, the gate dependence DAG,
// and utilities for depth, unitaries, and (de)serialization.
package circuit

import (
	"fmt"
	"sort"
	"strings"

	"paqoc/internal/linalg"
	"paqoc/internal/quantum"
)

// Gate is one gate application. For controlled gates the control qubit(s)
// come first in Qubits. Symbolic parameters (for parameterized circuits,
// §III-A) carry a label in Symbol and are excluded from unitary
// construction until bound.
type Gate struct {
	Name   string
	Qubits []int
	Params []float64
	Symbol string // e.g. "theta1"; empty for concrete gates
}

// Clone returns a deep copy of the gate.
func (g Gate) Clone() Gate {
	out := Gate{Name: g.Name, Symbol: g.Symbol}
	out.Qubits = append([]int(nil), g.Qubits...)
	out.Params = append([]float64(nil), g.Params...)
	return out
}

// Arity returns the number of qubits the gate acts on.
func (g Gate) Arity() int { return len(g.Qubits) }

// IsSymbolic reports whether the gate has an unbound symbolic parameter.
func (g Gate) IsSymbolic() bool { return g.Symbol != "" }

// Label returns the miner node label (§III-A): the operation name plus a
// symbolic or concrete angle rendering, so that rz(π/4) and rz(π/2) get
// distinct labels while rz(θ) stays symbolic across instances.
func (g Gate) Label() string {
	if g.Symbol != "" {
		return g.Name + "(" + g.Symbol + ")"
	}
	if len(g.Params) == 0 {
		return g.Name
	}
	parts := make([]string, len(g.Params))
	for i, p := range g.Params {
		parts[i] = fmt.Sprintf("%.6g", p)
	}
	return g.Name + "(" + strings.Join(parts, ",") + ")"
}

// String renders the gate in the text format, e.g. "cx 0 3" or "rz(1.5708) 2".
func (g Gate) String() string {
	qs := make([]string, len(g.Qubits))
	for i, q := range g.Qubits {
		qs[i] = fmt.Sprint(q)
	}
	return g.Label() + " " + strings.Join(qs, " ")
}

// Unitary returns the gate's unitary matrix; symbolic gates and unknown
// names yield an error.
func (g Gate) Unitary() (*linalg.Matrix, error) {
	if g.IsSymbolic() {
		return nil, g.unboundErr()
	}
	return quantum.GateUnitary(g.Name, g.Params)
}

// Matrix is Unitary without the copy, for callers that only read the
// matrix: a parameter-free gate's matrix is shared (quantum.GateMatrix)
// and must not be modified.
func (g Gate) Matrix() (*linalg.Matrix, error) {
	if g.IsSymbolic() {
		return nil, g.unboundErr()
	}
	return quantum.GateMatrix(g.Name, g.Params)
}

func (g Gate) unboundErr() error {
	return fmt.Errorf("circuit: gate %s has unbound symbol %q", g.Name, g.Symbol)
}

// Circuit is an ordered list of gates over NumQubits physical qubits. The
// list order is a valid linear extension of the dependence DAG.
type Circuit struct {
	NumQubits int
	Gates     []Gate
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit { return &Circuit{NumQubits: n} }

// Add appends a gate, validating qubit indices and arity.
func (c *Circuit) Add(name string, qubits ...int) *Circuit {
	return c.AddGate(Gate{Name: name, Qubits: qubits})
}

// AddParam appends a parameterized gate.
func (c *Circuit) AddParam(name string, params []float64, qubits ...int) *Circuit {
	return c.AddGate(Gate{Name: name, Qubits: qubits, Params: params})
}

// AddSymbolic appends a gate with a named unbound parameter.
func (c *Circuit) AddSymbolic(name, symbol string, qubits ...int) *Circuit {
	return c.AddGate(Gate{Name: name, Qubits: qubits, Symbol: symbol})
}

// AddGate appends a pre-built gate after validation.
func (c *Circuit) AddGate(g Gate) *Circuit {
	if want := quantum.GateArity(g.Name); want != 0 && want != len(g.Qubits) {
		panic(fmt.Sprintf("circuit: gate %s wants %d qubits, got %d", g.Name, want, len(g.Qubits)))
	}
	seen := make(map[int]bool, len(g.Qubits))
	for _, q := range g.Qubits {
		if q < 0 || q >= c.NumQubits {
			panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.NumQubits))
		}
		if seen[q] {
			panic(fmt.Sprintf("circuit: duplicate qubit %d in gate %s", q, g.Name))
		}
		seen[q] = true
	}
	c.Gates = append(c.Gates, g)
	return c
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := New(c.NumQubits)
	out.Gates = make([]Gate, len(c.Gates))
	for i, g := range c.Gates {
		out.Gates[i] = g.Clone()
	}
	return out
}

// Bind returns a copy with symbolic parameters substituted from the map.
// Unresolved symbols are left in place.
func (c *Circuit) Bind(values map[string]float64) *Circuit {
	out := c.Clone()
	for i := range out.Gates {
		g := &out.Gates[i]
		if g.Symbol == "" {
			continue
		}
		if v, ok := values[g.Symbol]; ok {
			g.Params = []float64{v}
			g.Symbol = ""
		}
	}
	return out
}

// CountByArity returns the number of 1-, 2-, and 3-qubit gates.
func (c *Circuit) CountByArity() (oneQ, twoQ, threeQ int) {
	for _, g := range c.Gates {
		switch g.Arity() {
		case 1:
			oneQ++
		case 2:
			twoQ++
		case 3:
			threeQ++
		}
	}
	return
}

// Depth returns the circuit depth (longest chain of dependent gates,
// counting each gate as one level).
func (c *Circuit) Depth() int {
	level := make([]int, c.NumQubits)
	depth := 0
	for _, g := range c.Gates {
		mx := 0
		for _, q := range g.Qubits {
			if level[q] > mx {
				mx = level[q]
			}
		}
		mx++
		for _, q := range g.Qubits {
			level[q] = mx
		}
		if mx > depth {
			depth = mx
		}
	}
	return depth
}

// UsedQubits returns the sorted set of qubits touched by any gate.
func (c *Circuit) UsedQubits() []int {
	set := make(map[int]bool)
	for _, g := range c.Gates {
		for _, q := range g.Qubits {
			set[q] = true
		}
	}
	out := make([]int, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// Unitary computes the full-circuit unitary. It refuses circuits over more
// than maxQubits qubits (the dimension grows as 2^n); pass e.g. 10.
func (c *Circuit) Unitary(maxQubits int) (*linalg.Matrix, error) {
	if c.NumQubits > maxQubits {
		return nil, fmt.Errorf("circuit: %d qubits exceeds unitary cap %d", c.NumQubits, maxQubits)
	}
	ops := make([]quantum.EmbeddedOp, 0, len(c.Gates))
	for _, g := range c.Gates {
		u, err := g.Matrix()
		if err != nil {
			return nil, err
		}
		ops = append(ops, quantum.EmbeddedOp{U: u, Wires: g.Qubits})
	}
	return quantum.SequenceUnitary(c.NumQubits, ops), nil
}

// String renders the circuit in the text format accepted by Parse.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qubits %d\n", c.NumQubits)
	for _, g := range c.Gates {
		b.WriteString(g.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Compact remaps the circuit onto its used qubits only (preserving order),
// returning the narrowed circuit and the old→new qubit mapping. Useful for
// simulating routed circuits whose device register is much wider than the
// set of touched wires.
func (c *Circuit) Compact() (*Circuit, map[int]int) {
	used := c.UsedQubits()
	remap := make(map[int]int, len(used))
	for i, q := range used {
		remap[q] = i
	}
	n := len(used)
	if n == 0 {
		n = 1
	}
	out := New(n)
	for _, g := range c.Gates {
		ng := g.Clone()
		for i, q := range ng.Qubits {
			ng.Qubits[i] = remap[q]
		}
		out.AddGate(ng)
	}
	return out, remap
}
