package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// expmIntoThreePass is ExpmInto's Taylor loop before the fused step: the
// squaring count from OneNorm, per term a complex ScaleInto by (1/k, 0)
// after a product (the first one I·A), an AddInPlace with factor 1, and a
// MaxAbs scan for the stopping rule. It is the bit-identity oracle for
// taylorStep, its AVX2 kernel and the squaring count (DESIGN.md, "Fused
// Taylor step"). Its one change since is the cap on the squaring count,
// which only an overflowing norm reaches.
func expmIntoThreePass(dst, m *Matrix) {
	n := m.Rows
	scaled, term, tmp := New(n, n), New(n, n), New(n, n)
	norm := m.OneNorm()
	squarings := 0
	if norm > 0.5 {
		squarings = min(int(math.Ceil(math.Log2(norm/0.5))), maxSquarings)
	}
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
	for s := 0; s < squarings; s++ {
		MulInto(tmp, dst, dst)
		copy(dst.Data, tmp.Data)
	}
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

// TestExpmIntoMatchesThreePass pins the fused Taylor step bit for bit on
// propagator arguments −i·t·H: dims 1–16, dense and sparse Hermitian H,
// and t from 1e-4 to 1e2 (zero to about twenty squarings).
func TestExpmIntoMatchesThreePass(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	times := []float64{1e-4, 1e-3, 0.01, 0.1, 0.5, 1, 4, 10, 100}
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
					ExpmInto(got, arg, ws)
					if i := firstBitDiff(want, got); i >= 0 {
						t.Fatalf("n=%d %s t=%g: entry %d is %v, three-pass oracle %v",
							n, kind, tt, i, got.Data[i], want.Data[i])
					}
					ExpmHermitianInto(got, h, tt, ws)
					if i := firstBitDiff(want, got); i >= 0 {
						t.Fatalf("n=%d %s t=%g: ExpmHermitianInto entry %d is %v, oracle %v",
							n, kind, tt, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// stoppingBandCases are scaled term entries on every branch of the
// stopping rule: decided by max(|re|, |im|) alone, and in the band
// [0.5e-18, 1e-18) that needs cmplx.Abs.
var stoppingBandCases = []complex128{
	0, 1e-18, 0.99e-18, complex(0, -1e-18), complex(0.4e-18, 0.4e-18),
	complex(0.6e-18, 0.6e-18), complex(0.71e-18, 0.71e-18), // |v| just below, just above 1e-18
	complex(-0.9e-18, 0.5e-18), complex(0.5e-18, 0), complex(0, 0.49e-18),
	5e-324, complex(-0.7e-18, -0.7e-18), complex(1, -2),
}

// TestTaylorStepStoppingBand drives taylorStep through every branch of its
// stopping rule — entries decided by max(|re|, |im|) alone and entries in
// the band [0.5e-18, 1e-18) that need cmplx.Abs — against the three-pass
// ScaleInto + AddInPlace + MaxAbs it replaces.
func TestTaylorStepStoppingBand(t *testing.T) {
	for _, r := range []float64{1, 0.5, 1.0 / 3, 1.0 / 24} {
		for i, v := range stoppingBandCases {
			for _, base := range []complex128{0, 1, complex(0.25, -3)} {
				tm := &Matrix{Rows: 1, Cols: 1, Data: []complex128{complex(real(v)/r, imag(v)/r)}}
				wantTerm, wantDst := New(1, 1), &Matrix{Rows: 1, Cols: 1, Data: []complex128{base}}
				ScaleInto(wantTerm, tm, complex(r, 0))
				wantDst.AddInPlace(wantTerm, 1)
				wantConv := wantTerm.MaxAbs() < 1e-18

				gotDst := []complex128{base}
				gotConv := taylorStep(gotDst, tm.Data, r)
				if gotConv != wantConv {
					t.Errorf("r=%g case %d (%v): converged %v, three-pass %v", r, i, v, gotConv, wantConv)
				}
				if tm.Data[0] != wantTerm.Data[0] || gotDst[0] != wantDst.Data[0] {
					t.Errorf("r=%g case %d (%v): term/dst %v/%v, three-pass %v/%v",
						r, i, v, tm.Data[0], gotDst[0], wantTerm.Data[0], wantDst.Data[0])
				}
			}
		}
	}
}

// TestTaylorStepKernelMatchesScalar pins stepTerm — the AVX2 kernel and
// its band fallback where the host has AVX2 — against the scalar
// taylorStep under math.Float64bits: term, sum and flag. The terms are
// random, either of order one or below the band, with −0 and subnormal
// parts; each stopping-band case is planted at every index in turn, so
// every lane of the kernel's maximum decides the flag once.
func TestTaylorStepKernelMatchesScalar(t *testing.T) {
	if !hasAVX2 {
		t.Log("no AVX2: stepTerm is taylorStep itself")
	}
	rng := rand.New(rand.NewSource(25))
	negZero := math.Copysign(0, -1)
	part := func(scale float64) float64 {
		switch rng.Intn(8) {
		case 0:
			return negZero
		case 1:
			return 5e-324 * float64(rng.Intn(9)-4)
		}
		return scale * (2*rng.Float64() - 1)
	}
	check := func(what string, term, sum []complex128, r float64) {
		t.Helper()
		wantTerm, wantSum := append([]complex128(nil), term...), append([]complex128(nil), sum...)
		gotTerm, gotSum := append([]complex128(nil), term...), append([]complex128(nil), sum...)
		wantConv := taylorStep(wantSum, wantTerm, r)
		gotConv := stepTerm(gotSum, gotTerm, r)
		if gotConv != wantConv {
			t.Fatalf("%s: converged %v, scalar %v", what, gotConv, wantConv)
		}
		for i := range wantTerm {
			if !sameFloatBits(real(wantTerm[i]), real(gotTerm[i])) || !sameFloatBits(imag(wantTerm[i]), imag(gotTerm[i])) ||
				!sameFloatBits(real(wantSum[i]), real(gotSum[i])) || !sameFloatBits(imag(wantSum[i]), imag(gotSum[i])) {
				t.Fatalf("%s: entry %d term/sum %v/%v, scalar %v/%v", what, i, gotTerm[i], gotSum[i], wantTerm[i], wantSum[i])
			}
		}
	}
	for _, n := range []int{4, 16, 64, 256} {
		for _, r := range []float64{1, 1.0 / 3, 1.0 / 24} {
			term, sum := make([]complex128, n), make([]complex128, n)
			fill := func(termScale float64) {
				for i := range term {
					term[i] = complex(part(termScale), part(termScale))
					sum[i] = complex(part(2), part(2))
				}
			}
			for trial := 0; trial < 4; trial++ {
				fill(1)
				check(fmt.Sprintf("n=%d r=%g order-one trial %d", n, r, trial), term, sum, r)
			}
			for c, v := range stoppingBandCases {
				for at := 0; at < n; at++ {
					// Below the band once scaled by r, bar the planted entry.
					fill(0.4e-18 / r)
					term[at] = complex(real(v)/r, imag(v)/r)
					check(fmt.Sprintf("n=%d r=%g case %d (%v) at %d", n, r, c, v, at), term, sum, r)
				}
			}
		}
	}
}

// TestSquaringCountMatchesOneNorm pins squaringCount to the integer that
// OneNorm and the ⌈log₂(‖m‖₁/0.5)⌉ formula give, on matrices of every
// dimension 1–16 whose one-norm is planted at, and within 1e-12 of, the
// thresholds 0.5·2^j for j = −1…60 and near the top of the range, where
// squares overflow and the formula's ‖m‖₁/0.5 overflows too: as one real
// entry (both norms exact), as a random column scaled to the norm (the
// two norms a few ulps apart), and in a column of entries below 1e-154,
// whose squares underflow.
func TestSquaringCountMatchesOneNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	offsets := []float64{0, 1e-12, -1e-12, 1e-13, -1e-13, 0x1p-52, -0x1p-52}
	var targets []float64
	for j := -1; j <= 60; j++ {
		for _, off := range offsets {
			targets = append(targets, math.Ldexp(0.5, j)*(1+off))
		}
	}
	targets = append(targets, 0x1p1022*1.5, 0x1p1023*(1-1e-12), 0x1p1023, 0x1p1023*1.5, math.MaxFloat64)
	for n := 1; n <= 16; n++ {
		m := New(n, n)
		for _, target := range targets {
			for kind := 0; kind < 3; kind++ {
				// Every other column carries a third of the norm.
				for i := range m.Data {
					m.Data[i] = complex(target/3/float64(n)*(2*rng.Float64()-1), target/3/float64(n)*(2*rng.Float64()-1))
				}
				col := rng.Intn(n)
				switch kind {
				case 0:
					for r := 0; r < n; r++ {
						m.Data[r*n+col] = 0
					}
					m.Data[rng.Intn(n)*n+col] = complex(target, 0)
				case 1:
					var s float64
					for r := 0; r < n; r++ {
						v := complex(rng.NormFloat64(), rng.NormFloat64())
						m.Data[r*n+col] = v
						s += cmplx.Abs(v)
					}
					for r := 0; r < n; r++ {
						m.Data[r*n+col] *= complex(target/s, 0)
					}
				case 2:
					for r := 0; r < n; r++ {
						m.Data[r*n+col] = complex(1e-160*rng.Float64(), -1e-160*rng.Float64())
					}
					m.Data[rng.Intn(n)*n+col] = complex(target, 0)
				}
				if got, want := squaringCount(m), squaringsFor(m.OneNorm()); got != want {
					t.Fatalf("n=%d norm %v (kind %d): %d squarings, OneNorm gives %d", n, m.OneNorm(), kind, got, want)
				}
			}
		}
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

// FuzzExpmInto checks the fused Taylor step against the three-pass
// oracle on arbitrary square inputs up to 16×16. An input whose entries
// are all finite gives a bit-identical result, including inputs whose
// one-norm overflows. Any other input must not panic or hang and gives a
// non-finite result on both sides. (OneNorm alone does not separate the
// two: it skips a column whose sum is NaN.)
func FuzzExpmInto(f *testing.F) {
	f.Add(uint8(3), 0.01, true, []byte{1, 2, 3, 250, 7, 9, 0, 128})
	f.Add(uint8(7), 1.0, true, []byte{90, 12, 200, 4, 33, 255, 17, 1, 2, 3})
	f.Add(uint8(15), 3e-3, false, []byte{127, 40, 129, 0, 64, 200})
	f.Add(uint8(0), 1e300, false, []byte{127, 127})
	f.Add(uint8(4), math.Inf(1), true, []byte{1, 0, 0, 0})
	f.Add(uint8(2), math.NaN(), false, []byte{5, 5})
	f.Add(uint8(9), 5e-324, true, []byte{100, 140, 3})
	// Finite inputs whose squaring formula overflows: ‖m‖₁ = 1e308, where
	// norm/0.5 does, and −1e308i twice in one column, where the norm does.
	f.Add(uint8(0), 1e306, false, []byte{100, 0, 0, 0})
	f.Add(uint8(1), 1e306, false, []byte{0, 0, 156, 0, 0, 0, 0, 0, 0, 0, 156, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, dim uint8, scale float64, hermitian bool, raw []byte) {
		n := 1 + int(dim%16)
		m := fuzzMatrix(n, scale, hermitian, raw)
		want, got := New(n, n), New(n, n)
		expmIntoThreePass(want, m)
		ExpmInto(got, m, nil)
		if allFinite(m) {
			if i := firstBitDiff(want, got); i >= 0 {
				t.Fatalf("n=%d: entry %d is %v, three-pass oracle %v", n, i, got.Data[i], want.Data[i])
			}
			return
		}
		if allFinite(want) || allFinite(got) {
			t.Fatalf("n=%d non-finite input: fused result finite %v, oracle finite %v", n, allFinite(got), allFinite(want))
		}
	})
}
