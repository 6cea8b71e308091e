package quantum

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"paqoc/internal/linalg"
)

// sequenceUnitaryReference is SequenceUnitary as first written: a fresh
// embedding and a fresh product per gate. It is the oracle for the
// buffered composition.
func sequenceUnitaryReference(n int, ops []EmbeddedOp) *linalg.Matrix {
	total := linalg.Identity(1 << n)
	for _, op := range ops {
		total = Embed(op.U, op.Wires, n).Mul(total)
	}
	return total
}

func sameEntryBits(x, y complex128) bool {
	same := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return math.IsNaN(a) && math.IsNaN(b)
		}
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return same(real(x), real(y)) && same(imag(x), imag(y))
}

func sameMatrixBits(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if !sameEntryBits(a.Data[i], b.Data[i]) {
			return false
		}
	}
	return true
}

// gateNames lists the gate table's names in a fixed order.
func gateNames() []string {
	names := make([]string, 0, len(gateTable))
	for name := range gateTable {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// randomAngle draws an angle, now and then −0, a multiple of π/4 or a
// non-finite value.
func randomAngle(rng *rand.Rand) float64 {
	switch rng.Intn(20) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return float64(rng.Intn(16)-8) * math.Pi / 4
	case 2:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300}[rng.Intn(4)]
	}
	return (rng.Float64()*2 - 1) * 4 * math.Pi
}

// TestSequenceUnitaryMatchesReference requires the buffered composition
// to equal the per-gate one bit for bit: random sequences over every gate
// in the table on 1–4 qubits, with −0 and non-finite angles among them.
func TestSequenceUnitaryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	names := gateNames()
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(4)
		var ops []EmbeddedOp
		for len(ops) < rng.Intn(12) {
			name := names[rng.Intn(len(names))]
			k := GateArity(name)
			if k > n {
				continue
			}
			params := make([]float64, gateTable[name].params)
			for i := range params {
				params[i] = randomAngle(rng)
			}
			u, err := GateMatrix(name, params)
			if err != nil {
				t.Fatal(err)
			}
			ops = append(ops, EmbeddedOp{U: u, Wires: rng.Perm(n)[:k]})
		}
		got, want := SequenceUnitary(n, ops), sequenceUnitaryReference(n, ops)
		if !sameMatrixBits(got, want) {
			t.Fatalf("trial %d (%d qubits, %d gates): composition differs from the reference", trial, n, len(ops))
		}
	}
}

// panicOf returns the value f panics with, or nil.
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestEmbedIntoMatchesEmbed checks that EmbedInto overwrites whatever its
// destination held with Embed's result, and that both panic alike on a
// unitary of the wrong size, a wire out of range and a repeated wire.
func TestEmbedIntoMatchesEmbed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(4)
		k := 1 + rng.Intn(min(n, 3))
		u := linalg.New(1<<k, 1<<k)
		for i := range u.Data {
			if rng.Intn(3) > 0 {
				u.Data[i] = complex(rng.NormFloat64(), math.Copysign(0, -1))
			}
		}
		wires := rng.Perm(n)[:k]
		dst := linalg.New(1<<n, 1<<n)
		for i := range dst.Data {
			dst.Data[i] = complex(math.NaN(), 1)
		}
		EmbedInto(dst, u, wires, n)
		if !sameMatrixBits(dst, Embed(u, wires, n)) {
			t.Fatalf("trial %d: EmbedInto differs from Embed", trial)
		}
	}
	dst := linalg.New(4, 4)
	for _, c := range []struct {
		u     *linalg.Matrix
		wires []int
		want  string
	}{
		{MatCX, []int{0}, "quantum: Embed unitary dim 4 does not match 1 wires"},
		{MatCX, []int{0, 2}, "quantum: wire 2 out of range [0,2)"},
		{MatCX, []int{1, 1}, "quantum: duplicate wire 1"},
		{MatCX, []int{-1, 1}, "quantum: wire -1 out of range [0,2)"},
	} {
		for name, f := range map[string]func(){
			"Embed":     func() { Embed(c.u, c.wires, 2) },
			"EmbedInto": func() { EmbedInto(dst, c.u, c.wires, 2) },
		} {
			if got := fmt.Sprint(panicOf(f)); got != c.want {
				t.Errorf("%s(wires %v) panicked with %q, want %q", name, c.wires, got, c.want)
			}
		}
	}
	if panicOf(func() { EmbedInto(linalg.New(2, 2), MatX, []int{0}, 2) }) == nil {
		t.Error("EmbedInto accepted a destination of the wrong size")
	}
}

// TestGateMatrixMatchesGateUnitary checks the two entry points of the
// gate table: the same bits and errors for every name and parameter
// count, a copy from GateUnitary and the shared matrix from GateMatrix.
func TestGateMatrixMatchesGateUnitary(t *testing.T) {
	for _, name := range append(gateNames(), "frobnicate") {
		for np := 0; np <= 3; np++ {
			params := []float64{0.3, -1.1, 2.5}[:np]
			um, errM := GateMatrix(name, params)
			uu, errU := GateUnitary(name, params)
			if fmt.Sprint(errM) != fmt.Sprint(errU) {
				t.Fatalf("%s/%d params: GateMatrix error %v, GateUnitary error %v", name, np, errM, errU)
			}
			if (um == nil) != (uu == nil) || um != nil && !sameMatrixBits(um, uu) {
				t.Fatalf("%s/%d params: the two entry points disagree", name, np)
			}
			if fixed := gateTable[name].fixed; fixed != nil {
				if um != fixed || uu == fixed {
					t.Fatalf("%s: GateMatrix must share the table's matrix and GateUnitary must copy it", name)
				}
			}
		}
	}
	u, _ := GateUnitary("x", nil)
	u.Data[0] = 7
	if m, _ := GateMatrix("x", nil); m.Data[0] != 0 {
		t.Error("writing GateUnitary's result changed the gate table")
	}
}
