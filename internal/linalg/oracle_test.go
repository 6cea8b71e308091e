package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// expmIntoThreePass is ExpmInto's Taylor loop before the fused step and
// the Paterson–Stockmeyer polynomial: the squaring count from OneNorm, per
// term a complex ScaleInto by (1/k, 0) after a product (the first one
// I·A), an AddInPlace with factor 1, and a MaxAbs scan for the stopping
// rule max|term| < 1e-18. It is the tolerance oracle for ExpmInto
// (DESIGN.md, "Paterson–Stockmeyer exponential"). Its one change since is
// the squaring count's clamp, which only an overflowing norm reaches. It
// returns the largest entry modulus of the sum and of every squaring, the
// scale that rounding errors are relative to.
func expmIntoThreePass(dst, m *Matrix) (peak float64) {
	n := m.Rows
	scaled, term, tmp := New(n, n), New(n, n), New(n, n)
	squarings := threePassSquarings(m)
	ScaleInto(scaled, m, complex(math.Ldexp(1, -squarings), 0))
	IdentityInto(dst)
	IdentityInto(term)
	for k := 1; k <= 24; k++ {
		MulInto(tmp, term, scaled)
		ScaleInto(term, tmp, complex(1/float64(k), 0))
		dst.AddInPlace(term, 1)
		if term.MaxAbs() < 1e-18 {
			break
		}
	}
	peak = dst.MaxAbs()
	for s := 0; s < squarings; s++ {
		MulInto(tmp, dst, dst)
		copy(dst.Data, tmp.Data)
		peak = max(peak, dst.MaxAbs())
	}
	return peak
}

// threePassSquarings is the oracle's squaring count, ⌈log₂(‖m‖₁/0.5)⌉
// from OneNorm. It is clamped to maxSquarings in floating point before
// the conversion, so a norm whose quotient overflows gives the cap on
// every architecture.
func threePassSquarings(m *Matrix) int {
	norm := m.OneNorm()
	if norm <= 0.5 {
		return 0
	}
	return int(math.Min(math.Ceil(math.Log2(norm/0.5)), maxSquarings))
}

// expmTolerance is the per-entry distance allowed between an exponential
// of arg = −i·t·h (or of arg alone when h is nil) and the three-pass
// oracle: 1e-15·2^s, for the largest squaring count of the oracle,
// ExpmInto and ExpmHermitianInto. Each squaring can double an error, and
// both polynomials stop far below double rounding.
func expmTolerance(arg, h *Matrix, t float64) float64 {
	s := max(threePassSquarings(arg), squaringsFor(sqrtOneNorm(arg)))
	if h != nil {
		s = max(s, squaringsFor(math.Abs(t)*sqrtOneNorm(h)))
	}
	return 1e-15 * math.Ldexp(1, s)
}

// firstFarEntry returns the index of the first entry of got farther than
// tol from want's, or -1. A NaN distance counts as far.
func firstFarEntry(want, got *Matrix, tol float64) int {
	for i := range want.Data {
		if !(cmplx.Abs(got.Data[i]-want.Data[i]) <= tol) {
			return i
		}
	}
	return -1
}

// firstBitDiff returns the index of the first entry whose real or
// imaginary part differs from want's in any bit, or -1.
func firstBitDiff(want, got *Matrix) int {
	for i := range want.Data {
		w, g := want.Data[i], got.Data[i]
		if math.Float64bits(real(w)) != math.Float64bits(real(g)) ||
			math.Float64bits(imag(w)) != math.Float64bits(imag(g)) {
			return i
		}
	}
	return -1
}

// sparseHermitian returns a Hermitian matrix with about a fraction p of
// its off-diagonal pairs nonzero and real diagonal entries that are zero
// with probability 1−p: the shape of embedded Pauli generators.
func sparseHermitian(n int, p float64, rng *rand.Rand) *Matrix {
	m := New(n, n)
	for r := 0; r < n; r++ {
		if rng.Float64() < p {
			m.Data[r*n+r] = complex(rng.NormFloat64(), 0)
		}
		for c := r + 1; c < n; c++ {
			if rng.Float64() < p {
				v := complex(rng.NormFloat64(), rng.NormFloat64())
				m.Data[r*n+c] = v
				m.Data[c*n+r] = conj(v)
			}
		}
	}
	return m
}

// TestExpmIntoMatchesThreePass pins the Paterson–Stockmeyer exponential
// to within 1e-15·2^s per entry of the three-pass Taylor oracle on
// propagator arguments −i·t·H: dims 1–16, dense and sparse Hermitian H,
// and t from 1e-4 to 1e2 (zero to about twenty squarings).
func TestExpmIntoMatchesThreePass(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	times := []float64{1e-4, 1e-3, 0.01, 0.1, 0.5, 1, 4, 10, 100}
	worst := 0.0
	for n := 1; n <= 16; n++ {
		ws := NewWorkspace(n)
		arg, got, want := New(n, n), New(n, n), New(n, n)
		for trial := 0; trial < 4; trial++ {
			hs := map[string]*Matrix{
				"dense":  randomHermitian(n, rng),
				"sparse": sparseHermitian(n, 1.0/8, rng),
			}
			for kind, h := range hs {
				for _, tt := range append(times, math.Pow(10, rng.Float64()*6-4)) {
					ScaleInto(arg, h, complex(0, -tt))
					expmIntoThreePass(want, arg)
					tol := expmTolerance(arg, h, tt)
					ExpmInto(got, arg, ws)
					if i := firstFarEntry(want, got, tol); i >= 0 {
						t.Fatalf("n=%d %s t=%g: entry %d is %v, three-pass oracle %v (tolerance %g)",
							n, kind, tt, i, got.Data[i], want.Data[i], tol)
					}
					ExpmHermitianInto(got, h, tt, ws)
					if i := firstFarEntry(want, got, tol); i >= 0 {
						t.Fatalf("n=%d %s t=%g: ExpmHermitianInto entry %d is %v, oracle %v (tolerance %g)",
							n, kind, tt, i, got.Data[i], want.Data[i], tol)
					}
					for i := range want.Data {
						worst = max(worst, cmplx.Abs(got.Data[i]-want.Data[i])/(tol/1e-15))
					}
				}
			}
		}
	}
	t.Logf("largest distance %.3g·2^s", worst)
}

// TestCombineKernelMatchesGeneric pins combineParts — the AVX2 kernel
// where the host has AVX2 and FMA and the length is a multiple of 4 — against
// combineGeneric under math.Float64bits at every length 1–256, with the
// coefficients of the top block and of every Horner step, on operands
// that hold −0, subnormal parts and planted ±Inf and NaN.
func TestCombineKernelMatchesGeneric(t *testing.T) {
	if !hasAVX2FMA {
		t.Log("no AVX2 and FMA: combineParts is combineGeneric itself")
	}
	rng := rand.New(rand.NewSource(26))
	negZero := math.Copysign(0, -1)
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	part := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return negZero
		case 1:
			return 5e-324 * float64(rng.Intn(9)-4)
		case 2:
			return 0
		}
		return math.Ldexp(2*rng.Float64()-1, rng.Intn(40)-20)
	}
	c := &invFactorial
	coeffs := [][4]float64{
		{c[16], c[13], c[14], c[15]}, // top block: c16·A4 + B3
		{1, c[9], c[10], c[11]},
		{1, c[5], c[6], c[7]},
		{1, c[1], c[2], c[3]},
		{-0.5, 3, negZero, 5e-324}, // −0 and a subnormal coefficient
	}
	for n := 1; n <= 256; n++ {
		ops := make([][]complex128, 4)
		for trial := 0; trial < 3; trial++ {
			for k := range ops {
				ops[k] = make([]complex128, n)
				for i := range ops[k] {
					ops[k][i] = complex(part(), part())
				}
			}
			if trial > 0 {
				for plant := 0; plant < 1+n/16; plant++ {
					op, i := ops[rng.Intn(4)], rng.Intn(n)
					if rng.Intn(2) == 0 {
						op[i] = complex(specials[rng.Intn(3)], imag(op[i]))
					} else {
						op[i] = complex(real(op[i]), specials[rng.Intn(3)])
					}
				}
			}
			for _, k := range coeffs {
				want, got := make([]complex128, n), make([]complex128, n)
				combineGeneric(want, ops[0], ops[1], ops[2], ops[3], k[0], k[1], k[2], k[3])
				combineParts(got, ops[0], ops[1], ops[2], ops[3], k[0], k[1], k[2], k[3])
				for i := range want {
					if !sameBits(want[i], got[i]) {
						t.Fatalf("n=%d trial %d coefficients %v: entry %d is %v, Go loop %v", n, trial, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSquaringRule pins squaringsFor to its definition, the smallest
// s ≥ 0 with 2^-s·norm ≤ 0.5: at, and one ulp either side of, every
// threshold 0.5·2^j, and on random norms across the whole range. A norm
// that is +Inf or NaN gets maxSquarings. sqrtOneNorm hands a column whose
// squares overflow to OneNorm, so a finite argument is counted from its
// finite norm. The finite arguments whose old count converted +Inf to an
// int (−2^63 on amd64, which returned the identity) now count
// maxSquarings in ExpmInto and the oracle alike, far past
// noDigitsSquarings, so ExpmInto returns NaN in every entry for e^1e308
// and for the 2×2 with −1e308i twice in one column.
func TestSquaringRule(t *testing.T) {
	check := func(norm float64) {
		t.Helper()
		s := squaringsFor(norm)
		if s < 0 || s > maxSquarings || !(math.Ldexp(norm, -s) <= 0.5) || s > 0 && math.Ldexp(norm, 1-s) <= 0.5 {
			t.Fatalf("norm %v: %d squarings, not the smallest s with 2^-s·norm ≤ 0.5", norm, s)
		}
	}
	check(0)
	for j := -1100; j <= 1024; j++ {
		x := math.Ldexp(0.5, j)
		if x == 0 || math.IsInf(x, 0) {
			continue
		}
		check(x)
		check(math.Nextafter(x, 0))
		if up := math.Nextafter(x, math.Inf(1)); !math.IsInf(up, 0) {
			check(up)
		}
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 100000; i++ {
		if x := math.Float64frombits(rng.Uint64() &^ (1 << 63)); x <= math.MaxFloat64 {
			check(x)
		}
	}
	check(math.MaxFloat64)
	for _, norm := range []float64{math.Inf(1), math.NaN()} {
		if s := squaringsFor(norm); s != maxSquarings {
			t.Errorf("norm %v: %d squarings, want %d", norm, s, maxSquarings)
		}
	}

	big := &Matrix{Rows: 2, Cols: 2, Data: []complex128{complex(3e200, -4e200), 0, 1e160, 1}}
	if got, want := squaringsFor(sqrtOneNorm(big)), squaringsFor(big.OneNorm()); got != want {
		t.Errorf("squares overflow: %d squarings from sqrtOneNorm, OneNorm gives %d", got, want)
	}

	for _, m := range []*Matrix{
		{Rows: 1, Cols: 1, Data: []complex128{1e308}},
		{Rows: 2, Cols: 2, Data: []complex128{complex(0, -1e308), 0, complex(0, -1e308), 0}},
	} {
		if s, s3 := squaringsFor(sqrtOneNorm(m)), threePassSquarings(m); s != maxSquarings || s3 != maxSquarings {
			t.Errorf("%v: %d squarings, oracle %d; want %d on both", m.Data, s, s3, maxSquarings)
		}
		got := New(m.Rows, m.Rows)
		ExpmInto(got, m, nil)
		if i := firstNotNaN(got); i >= 0 {
			t.Errorf("%v: result %v; want NaN in every entry", m.Data, got.Data)
		}
	}
}

// firstNotNaN returns the index of the first entry with a part that is
// not NaN, or -1.
func firstNotNaN(m *Matrix) int {
	for i, v := range m.Data {
		if !math.IsNaN(real(v)) || !math.IsNaN(imag(v)) {
			return i
		}
	}
	return -1
}

// TestExpmNoDigitsIsNaN pins the cut at noDigitsSquarings: an argument
// that needs 50 or more squarings gets NaN in every entry from ExpmInto
// and ExpmHermitianInto, and one that needs 49 still gets a finite
// result (within 1e-15·2^49 ≈ 0.56 of e^m, the budget). The 2×2
// with −1e308i twice in one column came out (0, 0, −1, 1) before the cut,
// finite, where the exact exponential's first entry has modulus 1.
func TestExpmNoDigitsIsNaN(t *testing.T) {
	ws := NewWorkspace(4)
	got := New(2, 2)
	ExpmInto(got, &Matrix{Rows: 2, Cols: 2, Data: []complex128{complex(0, -1e308), 0, complex(0, -1e308), 0}}, ws)
	if i := firstNotNaN(got); i >= 0 {
		t.Fatalf("−1e308i twice in one column: e^m is %v; want NaN in every entry", got.Data)
	}
	// A 1×1 Hermitian H = (1) at t = 2^48 needs 49 squarings, one ulp more
	// needs 50; the exponential e^(−i·t) has modulus 1.
	h := &Matrix{Rows: 1, Cols: 1, Data: []complex128{1}}
	u := New(1, 1)
	for _, tt := range []float64{0x1p48, -0x1p48} {
		if s := squaringsFor(math.Abs(tt) * sqrtOneNorm(h)); s != noDigitsSquarings-1 {
			t.Fatalf("t=%g: %d squarings, want %d", tt, s, noDigitsSquarings-1)
		}
		ExpmHermitianInto(u, h, tt, ws)
		if v := u.Data[0]; !(math.Abs(cmplx.Abs(v)-1) <= 0.56) {
			t.Fatalf("t=%g (49 squarings): e^(−i·t) is %v; want modulus within 0.56 of 1", tt, v)
		}
		ExpmInto(u, &Matrix{Rows: 1, Cols: 1, Data: []complex128{complex(0, -tt)}}, ws)
		if v := u.Data[0]; !(math.Abs(cmplx.Abs(v)-1) <= 0.56) {
			t.Fatalf("ExpmInto at t=%g (49 squarings): e^(−i·t) is %v; want modulus within 0.56 of 1", tt, v)
		}
		next := math.Nextafter(tt, 2*tt)
		ExpmHermitianInto(u, h, next, ws)
		if firstNotNaN(u) >= 0 {
			t.Fatalf("t=%g (50 squarings): e^(−i·t) is %v; want NaN", next, u.Data[0])
		}
		ExpmInto(u, &Matrix{Rows: 1, Cols: 1, Data: []complex128{complex(0, -next)}}, ws)
		if firstNotNaN(u) >= 0 {
			t.Fatalf("ExpmInto at t=%g (50 squarings): e^(−i·t) is %v; want NaN", next, u.Data[0])
		}
	}
	// A 4×4 propagator argument far past the cut, dense and Hermitian.
	rng := rand.New(rand.NewSource(28))
	u4 := New(4, 4)
	ExpmHermitianInto(u4, randomHermitian(4, rng), 1e20, ws)
	if i := firstNotNaN(u4); i >= 0 {
		t.Fatalf("4×4 at t=1e20: entry %d is %v; want NaN in every entry", i, u4.Data[i])
	}
}

// fuzzMatrix decodes an n×n matrix from raw: each part is a signed byte
// mantissa times 2^(e/4) for a signed byte e, times scale. Scale carries
// NaN, ±Inf and extreme magnitudes; the exponents mix scales within one
// matrix. When hermitian is set the matrix becomes −i·H for the Hermitian
// H built from raw, the shape of every propagator argument.
func fuzzMatrix(n int, scale float64, hermitian bool, raw []byte) *Matrix {
	part := func(i int) float64 {
		if len(raw) < 2 {
			return 0
		}
		mant, exp := int8(raw[(2*i)%len(raw)]), int8(raw[(2*i+1)%len(raw)])
		return math.Ldexp(float64(mant), int(exp)/4) * scale
	}
	m := New(n, n)
	for i := range m.Data {
		m.Data[i] = complex(part(2*i), part(2*i+1))
	}
	if !hermitian {
		return m
	}
	h := New(n, n)
	for r := 0; r < n; r++ {
		h.Data[r*n+r] = complex(real(m.Data[r*n+r]), 0)
		for c := r + 1; c < n; c++ {
			h.Data[r*n+c] = m.Data[r*n+c]
			h.Data[c*n+r] = conj(m.Data[r*n+c])
		}
	}
	ScaleInto(m, h, complex(0, -1))
	return m
}

func allFinite(m *Matrix) bool {
	for _, v := range m.Data {
		if math.IsNaN(real(v)) || math.IsInf(real(v), 0) || math.IsNaN(imag(v)) || math.IsInf(imag(v), 0) {
			return false
		}
	}
	return true
}

// FuzzExpmInto checks ExpmInto against the three-pass oracle on arbitrary
// square inputs up to 16×16. No input may panic or hang. An input that
// needs noDigitsSquarings or more squarings gives NaN in every entry, and
// any other non-finite input gives a non-finite result on both sides. (OneNorm alone does not
// separate finite from non-finite input: it skips a column whose sum is
// NaN.) A finite propagator-shaped input −i·H, whose exponential is
// unitary, gives finite results within 1e-15·2^s per entry of each other,
// relative to the largest entry the oracle met, until 1e-15·2^s reaches 1
// and no digit survives the squarings. A general argument's exponential
// is ill-conditioned at large norm (a 14×14 came out 1.5% from the oracle
// at about 37 squarings, both results near 1e250), so a general argument
// is compared only when it needs no squaring, within n times that
// tolerance: a product's rounding is bounded by |X|·|X|, up to n times
// |X²| where its entries cancel.
func FuzzExpmInto(f *testing.F) {
	f.Add(uint8(3), 0.01, true, []byte{1, 2, 3, 250, 7, 9, 0, 128})
	f.Add(uint8(7), 1.0, true, []byte{90, 12, 200, 4, 33, 255, 17, 1, 2, 3})
	f.Add(uint8(15), 3e-3, false, []byte{127, 40, 129, 0, 64, 200})
	f.Add(uint8(0), 1e300, false, []byte{127, 127})
	f.Add(uint8(4), math.Inf(1), true, []byte{1, 0, 0, 0})
	f.Add(uint8(2), math.NaN(), false, []byte{5, 5})
	f.Add(uint8(9), 5e-324, true, []byte{100, 140, 3})
	// Finite inputs whose old squaring formula overflowed: ‖m‖₁ = 1e308,
	// where norm/0.5 does, and −1e308i twice in one column, where the norm
	// does.
	f.Add(uint8(0), 1e306, false, []byte{100, 0, 0, 0})
	f.Add(uint8(1), 1e306, false, []byte{0, 0, 156, 0, 0, 0, 0, 0, 0, 0, 156, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, dim uint8, scale float64, hermitian bool, raw []byte) {
		n := 1 + int(dim%16)
		m := fuzzMatrix(n, scale, hermitian, raw)
		want, got := New(n, n), New(n, n)
		peak := expmIntoThreePass(want, m)
		ExpmInto(got, m, nil)
		if s := squaringsFor(sqrtOneNorm(m)); s >= noDigitsSquarings {
			if i := firstNotNaN(got); i >= 0 {
				t.Fatalf("n=%d: %d squarings, entry %d is %v; want NaN in every entry", n, s, i, got.Data[i])
			}
			return
		}
		if !allFinite(m) {
			if allFinite(want) || allFinite(got) {
				t.Fatalf("n=%d non-finite input: result finite %v, oracle finite %v", n, allFinite(got), allFinite(want))
			}
			return
		}
		tol := expmTolerance(m, nil, 0)
		if tol >= 1 || !hermitian && tol > 1e-15 {
			return
		}
		if !allFinite(want) || !allFinite(got) {
			t.Fatalf("n=%d finite input: result finite %v, oracle finite %v", n, allFinite(got), allFinite(want))
		}
		tol *= max(1, peak)
		if !hermitian {
			tol *= float64(n)
		}
		if i := firstFarEntry(want, got, tol); i >= 0 {
			t.Fatalf("n=%d: entry %d is %v, three-pass oracle %v (tolerance %g)", n, i, got.Data[i], want.Data[i], tol)
		}
	})
}
