package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// expmIntoThreePass is ExpmInto's Taylor loop before the fused step: per
// term a complex ScaleInto by (1/k, 0), an AddInPlace with factor 1, and a
// MaxAbs scan for the stopping rule. It is the bit-identity oracle for
// taylorStep (DESIGN.md, "Fused Taylor step").
func expmIntoThreePass(dst, m *Matrix) {
	n := m.Rows
	scaled, term, tmp := New(n, n), New(n, n), New(n, n)
	norm := m.OneNorm()
	squarings := 0
	if norm > 0.5 {
		squarings = int(math.Ceil(math.Log2(norm / 0.5)))
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

// TestTaylorStepStoppingBand drives taylorStep through every branch of its
// stopping rule — entries decided by max(|re|, |im|) alone and entries in
// the band [0.5e-18, 1e-18) that need cmplx.Abs — against the three-pass
// ScaleInto + AddInPlace + MaxAbs it replaces.
func TestTaylorStepStoppingBand(t *testing.T) {
	cases := []complex128{
		0, 1e-18, 0.99e-18, complex(0, -1e-18), complex(0.4e-18, 0.4e-18),
		complex(0.6e-18, 0.6e-18), complex(0.71e-18, 0.71e-18), // |v| just below, just above 1e-18
		complex(-0.9e-18, 0.5e-18), complex(0.5e-18, 0), complex(0, 0.49e-18),
		5e-324, complex(-0.7e-18, -0.7e-18), complex(1, -2),
	}
	for _, r := range []float64{1, 0.5, 1.0 / 3, 1.0 / 24} {
		for i, v := range cases {
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
