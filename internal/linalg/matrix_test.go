package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			want := complex128(0)
			if r == c {
				want = 1
			}
			if id.At(r, c) != want {
				t.Fatalf("Identity(4)[%d][%d] = %v, want %v", r, c, id.At(r, c), want)
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	m := randomMatrix(5, 5, 1)
	if got := m.Mul(Identity(5)); !got.Equal(m, 1e-12) {
		t.Error("m·I != m")
	}
	if got := Identity(5).Mul(m); !got.Equal(m, 1e-12) {
		t.Error("I·m != m")
	}
}

func TestMulAssociativity(t *testing.T) {
	a := randomMatrix(3, 4, 2)
	b := randomMatrix(4, 5, 3)
	c := randomMatrix(5, 2, 4)
	left := a.Mul(b).Mul(c)
	right := a.Mul(b.Mul(c))
	if !left.Equal(right, 1e-10) {
		t.Error("(ab)c != a(bc)")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := FromRows([][]complex128{{19, 22}, {43, 50}})
	if !got.Equal(want, 0) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	got := a.MulVec([]complex128{1, 1i})
	if cmplx.Abs(got[0]-(1+2i)) > 1e-15 || cmplx.Abs(got[1]-(3+4i)) > 1e-15 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestDaggerInvolution(t *testing.T) {
	m := randomMatrix(4, 6, 5)
	if !m.Dagger().Dagger().Equal(m, 0) {
		t.Error("(m†)† != m")
	}
}

func TestDaggerOfProduct(t *testing.T) {
	a := randomMatrix(3, 3, 6)
	b := randomMatrix(3, 3, 7)
	left := a.Mul(b).Dagger()
	right := b.Dagger().Mul(a.Dagger())
	if !left.Equal(right, 1e-10) {
		t.Error("(ab)† != b†a†")
	}
}

func TestKronShapeAndValues(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}})
	b := FromRows([][]complex128{{3}, {4}})
	k := a.Kron(b)
	if k.Rows != 2 || k.Cols != 2 {
		t.Fatalf("Kron shape %dx%d", k.Rows, k.Cols)
	}
	want := FromRows([][]complex128{{3, 6}, {4, 8}})
	if !k.Equal(want, 0) {
		t.Errorf("Kron values wrong: %v", k)
	}
}

func TestKronMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	a := randomMatrix(2, 2, 8)
	b := randomMatrix(3, 3, 9)
	c := randomMatrix(2, 2, 10)
	d := randomMatrix(3, 3, 11)
	left := a.Kron(b).Mul(c.Kron(d))
	right := a.Mul(c).Kron(b.Mul(d))
	if !left.Equal(right, 1e-9) {
		t.Error("mixed-product property fails")
	}
}

func TestTrace(t *testing.T) {
	m := FromRows([][]complex128{{1 + 1i, 9}, {9, 2 - 1i}})
	if got := m.Trace(); got != 3 {
		t.Errorf("Trace = %v, want 3", got)
	}
}

func TestTraceCyclic(t *testing.T) {
	a := randomMatrix(4, 4, 12)
	b := randomMatrix(4, 4, 13)
	if d := cmplx.Abs(a.Mul(b).Trace() - b.Mul(a).Trace()); d > 1e-10 {
		t.Errorf("tr(ab) != tr(ba), delta %g", d)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromRows([][]complex128{{3, 0}, {0, 4}})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("‖m‖_F = %g, want 5", got)
	}
}

func TestOneNorm(t *testing.T) {
	m := FromRows([][]complex128{{1, -2}, {3, 4i}})
	if got := m.OneNorm(); math.Abs(got-6) > 1e-12 {
		t.Errorf("OneNorm = %g, want 6", got)
	}
}

func TestIsHermitianAndUnitary(t *testing.T) {
	h := FromRows([][]complex128{{2, 1 - 1i}, {1 + 1i, 3}})
	if !h.IsHermitian(1e-12) {
		t.Error("h should be Hermitian")
	}
	if h.IsUnitary(1e-12) {
		t.Error("h should not be unitary")
	}
	s := complex(1/math.Sqrt2, 0)
	u := FromRows([][]complex128{{s, s}, {s, -s}})
	if !u.IsUnitary(1e-12) {
		t.Error("Hadamard should be unitary")
	}
}

func TestExpmZero(t *testing.T) {
	z := New(4, 4)
	if !Expm(z).Equal(Identity(4), 1e-14) {
		t.Error("expm(0) != I")
	}
}

func TestExpmDiagonal(t *testing.T) {
	// expm(diag(a,b)) = diag(e^a, e^b)
	m := FromRows([][]complex128{{1i * math.Pi, 0}, {0, 2}})
	e := Expm(m)
	if cmplx.Abs(e.At(0, 0)-cmplx.Exp(1i*math.Pi)) > 1e-12 {
		t.Errorf("e[0][0] = %v", e.At(0, 0))
	}
	if cmplx.Abs(e.At(1, 1)-cmplx.Exp(2)) > 1e-10 {
		t.Errorf("e[1][1] = %v", e.At(1, 1))
	}
}

func TestExpmPauliX(t *testing.T) {
	// e^{-i θ X/2} = cos(θ/2) I - i sin(θ/2) X
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	theta := 1.234
	got := ExpmHermitian(x.Scale(0.5), theta)
	c, s := math.Cos(theta/2), math.Sin(theta/2)
	want := FromRows([][]complex128{
		{complex(c, 0), complex(0, -s)},
		{complex(0, -s), complex(c, 0)},
	})
	if !got.Equal(want, 1e-12) {
		t.Errorf("rotation mismatch:\n%v\nwant\n%v", got, want)
	}
}

func TestExpmHermitianIsUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		h := randomHermitian(8, rng)
		u := ExpmHermitian(h, rng.Float64()*10)
		if !u.IsUnitary(1e-9) {
			t.Fatalf("trial %d: expm(-iHt) not unitary", trial)
		}
	}
}

func TestExpmAdditivityCommuting(t *testing.T) {
	// For commuting A (same H, different times): e^{-iH(s+t)} = e^{-iHs}·e^{-iHt}
	rng := rand.New(rand.NewSource(7))
	h := randomHermitian(6, rng)
	a := ExpmHermitian(h, 0.7)
	b := ExpmHermitian(h, 1.9)
	ab := ExpmHermitian(h, 2.6)
	if !a.Mul(b).Equal(ab, 1e-9) {
		t.Error("propagator additivity fails")
	}
}

func TestTraceFidelitySelf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := ExpmHermitian(randomHermitian(4, rng), 1.0)
	if f := TraceFidelity(u, u); math.Abs(f-1) > 1e-10 {
		t.Errorf("self fidelity %g", f)
	}
	// Global phase invariance.
	v := u.Scale(cmplx.Exp(0.321i))
	if f := TraceFidelity(u, v); math.Abs(f-1) > 1e-10 {
		t.Errorf("phase-shifted fidelity %g", f)
	}
}

func TestGlobalPhaseDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := ExpmHermitian(randomHermitian(4, rng), 1.0)
	v := u.Scale(cmplx.Exp(1.0i))
	if d := GlobalPhaseDistance(u, v); d > 1e-9 {
		t.Errorf("distance to phase-shifted self = %g", d)
	}
	w := ExpmHermitian(randomHermitian(4, rng), 2.0)
	if d := GlobalPhaseDistance(u, w); d < 1e-3 {
		t.Errorf("distance between unrelated unitaries suspiciously small: %g", d)
	}
}

// globalPhaseDistanceOracle is GlobalPhaseDistance as first written:
// a scaled copy of b, a difference matrix, then its Frobenius norm.
func globalPhaseDistanceOracle(a, b *Matrix) float64 {
	tr := TraceOverlap(b, a)
	phase := complex(1, 0)
	if cmplx.Abs(tr) > 1e-15 {
		phase = tr / complex(cmplx.Abs(tr), 0)
	}
	return a.Sub(b.Scale(phase)).FrobeniusNorm()
}

// TestGlobalPhaseDistanceMatchesOracle requires the one-pass distance to
// equal the oracle bit for bit: random and nearly phase-equal operands of
// every shape up to 8×8, salted with ±0, NaN, Inf and underflowing
// products. Mismatched shapes still panic.
func TestGlobalPhaseDistanceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 3000; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		a := randomMatrix(rows, cols, rng.Int63())
		b := randomMatrix(rows, cols, rng.Int63())
		switch trial % 5 {
		case 1:
			b = a.Scale(cmplx.Exp(complex(0, rng.Float64()*6)))
			b.Data[rng.Intn(len(b.Data))] += complex(rng.NormFloat64()*1e-9, 0)
		case 2:
			saltEdgeCases(a, b)
		case 3:
			saltUnderflow(a, b)
		case 4:
			for i := range a.Data {
				if rng.Intn(3) == 0 {
					a.Data[i] = complex(math.Copysign(0, -1), 0)
				}
				if rng.Intn(3) == 0 {
					b.Data[i] = complex(0, math.Copysign(0, -1))
				}
			}
		}
		got, want := GlobalPhaseDistance(a, b), globalPhaseDistanceOracle(a, b)
		if !sameFloatBits(got, want) {
			t.Fatalf("trial %d (%dx%d): %v (bits %#x), oracle %v (bits %#x)",
				trial, rows, cols, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected a panic on mismatched shapes")
		}
	}()
	GlobalPhaseDistance(New(2, 2), New(4, 4))
}

func TestQuickKronDimensions(t *testing.T) {
	f := func(a, b uint8) bool {
		ra, rb := int(a%4)+1, int(b%4)+1
		m := Identity(ra).Kron(Identity(rb))
		return m.Rows == ra*rb && m.Equal(Identity(ra*rb), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickExpmUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHermitian(4, rng)
		return ExpmHermitian(h, rng.Float64()*5).IsUnitary(1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Mul shape mismatch")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func randomMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func randomHermitian(n int, rng *rand.Rand) *Matrix {
	m := New(n, n)
	for r := 0; r < n; r++ {
		m.Data[r*n+r] = complex(rng.NormFloat64(), 0)
		for c := r + 1; c < n; c++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			m.Data[r*n+c] = v
			m.Data[c*n+r] = cmplx.Conj(v)
		}
	}
	return m
}

func BenchmarkMul8x8(b *testing.B) {
	m := randomMatrix(8, 8, 1)
	o := randomMatrix(8, 8, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Mul(o)
	}
}

func BenchmarkExpm8x8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := randomHermitian(8, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExpmHermitian(h, 0.1)
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]complex128{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("Transpose wrong: %v", tr)
	}
	// Transpose does not conjugate.
	c := FromRows([][]complex128{{1i}})
	if c.Transpose().At(0, 0) != 1i {
		t.Error("Transpose must not conjugate")
	}
}

func TestMaxAbsAndSub(t *testing.T) {
	a := FromRows([][]complex128{{3, -4i}})
	if a.MaxAbs() != 4 {
		t.Errorf("MaxAbs = %g", a.MaxAbs())
	}
	b := FromRows([][]complex128{{1, -4i}})
	d := a.Sub(b)
	if d.At(0, 0) != 2 || d.At(0, 1) != 0 {
		t.Errorf("Sub wrong: %v", d)
	}
}

func TestAddInPlace(t *testing.T) {
	a := FromRows([][]complex128{{1, 0}, {0, 1}})
	b := FromRows([][]complex128{{0, 1}, {1, 0}})
	a.AddInPlace(b, 2)
	want := FromRows([][]complex128{{1, 2}, {2, 1}})
	if !a.Equal(want, 0) {
		t.Errorf("AddInPlace wrong: %v", a)
	}
}

func TestStringRendering(t *testing.T) {
	m := FromRows([][]complex128{{1 + 2i}})
	s := m.String()
	if !strings.Contains(s, "1") || !strings.Contains(s, "2") {
		t.Errorf("String output %q", s)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 2).Equal(New(2, 3), 1) {
		t.Error("different shapes must not be equal")
	}
}

func TestIsUnitaryNonSquare(t *testing.T) {
	if New(2, 3).IsUnitary(1e-9) {
		t.Error("non-square cannot be unitary")
	}
	if New(2, 3).IsHermitian(1e-9) {
		t.Error("non-square cannot be Hermitian")
	}
}

func TestTracePanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(2, 3).Trace()
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 1) },
		func() { FromRows(nil) },
		func() { FromRows([][]complex128{{1}, {1, 2}}) },
		func() { Expm(New(2, 3)) },
		func() { New(2, 2).MulVec([]complex128{1}) },
		func() { TraceFidelity(New(2, 2), New(3, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
