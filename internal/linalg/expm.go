package linalg

import (
	"math"
	"math/cmplx"
)

// Workspace holds the scratch buffers of the matrix-exponential kernels
// (and one extra caller scratch) for one matrix dimension, so repeated
// exponentials — GRAPE slice propagators, pulse-simulation evolution —
// run without allocating. A Workspace is owned by a single goroutine;
// the zero value is not usable, construct with NewWorkspace. Kernels
// grow the buffers automatically when handed a larger dimension.
type Workspace struct {
	n                      int
	arg, scaled, term, tmp *Matrix
	scratch                *Matrix
}

// NewWorkspace returns a workspace sized for n×n exponentials.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// ensure (re)sizes the exponential buffers for dimension n.
func (w *Workspace) ensure(n int) {
	if w.n >= n {
		return
	}
	w.n = n
	w.arg = New(n, n)
	w.scaled = New(n, n)
	w.term = New(n, n)
	w.tmp = New(n, n)
}

// sized returns an n×n view of an n'×n' buffer (n' ≥ n), so one
// workspace serves every dimension up to its high-water mark.
func sized(m *Matrix, n int) *Matrix {
	if m.Rows == n {
		return m
	}
	return &Matrix{Rows: n, Cols: n, Data: m.Data[:n*n]}
}

// Scratch returns the workspace's caller scratch buffer, an n×n matrix
// untouched by the Expm kernels (they use their own internal buffers).
// Every call returns the same storage, so a caller must not hold two
// live Scratch results; contents are unspecified on entry.
func (w *Workspace) Scratch(n int) *Matrix {
	if w.scratch == nil || w.scratch.Rows < n {
		w.scratch = New(n, n)
	}
	return sized(w.scratch, n)
}

// Expm returns the matrix exponential e^m computed by scaling-and-squaring
// with a Taylor series on the scaled matrix. For the anti-Hermitian
// arguments that arise from -i·H·t propagators this is accurate to near
// machine precision at the dimensions used here (≤16). Allocates a fresh
// result and workspace; see ExpmInto for the destination-passing form.
func Expm(m *Matrix) *Matrix {
	if !m.IsSquare() {
		panic("linalg: Expm of non-square matrix")
	}
	out := New(m.Rows, m.Cols)
	ExpmInto(out, m, nil)
	return out
}

// ExpmInto computes e^m into dst, reusing ws's scaling-and-squaring
// buffers (a nil ws allocates a temporary one). dst must be m-shaped and
// must not alias m or any workspace buffer; m must not be a workspace
// buffer other than the one handed out by ExpmHermitianInto. The result
// is bit-identical to Expm — same operation order, only storage reuse.
func ExpmInto(dst, m *Matrix, ws *Workspace) {
	if !m.IsSquare() {
		panic("linalg: Expm of non-square matrix")
	}
	n := m.Rows
	mustSameShape(dst, m)
	if ws == nil {
		ws = NewWorkspace(n)
	}
	ws.ensure(n)
	scaled, term, tmp := sized(ws.scaled, n), sized(ws.term, n), sized(ws.tmp, n)

	// Scale so the one-norm of the argument A is ≤ 0.5, then square back.
	squarings := squaringCount(m)

	// Taylor series: I + A + A²/2! + …; with ‖A‖ ≤ 0.5 convergence is fast.
	// The first term is A itself: the first step scales a copy of m by the
	// real 2^-squarings in place and adds it to I. The complex scale by
	// (2^-squarings, 0) and the product I·A it replaces differ from that
	// only in the sign of zero parts, which reaches no bit (DESIGN.md,
	// "Fused Taylor step"). Every later term is one product into buf and
	// one step scaling it by 1/k; buf and spare then trade places.
	copy(scaled.Data, m.Data)
	IdentityInto(dst)
	buf, spare := term, tmp
	term = scaled
	r := math.Ldexp(1, -squarings)
	for k := 1; !stepTerm(dst.Data, term.Data, r) && k < 24; k++ {
		MulInto(buf, term, scaled)
		term = buf
		buf, spare = spare, buf
		r = 1 / float64(k+1)
	}
	// Square by trading dst and tmp; an odd count ends in tmp and pays
	// the one copy.
	cur, next := dst, tmp
	for s := 0; s < squarings; s++ {
		MulInto(next, cur, cur)
		cur, next = next, cur
	}
	if cur != dst {
		copy(dst.Data, cur.Data)
	}
}

// maxSquarings caps the squaring count at what a finite one-norm can
// need: every finite norm is below 2^1024, and 1025 halvings bring that
// to 0.5. An overflowing norm converts to an implementation-defined int:
// −2^63 on amd64, which squares nothing and keeps that platform's bits,
// but MaxInt64 on arm64, whose squaring loop would never end.
const maxSquarings = 1025

// squaringCount returns ExpmInto's squaring count for m: 0 when
// ‖m‖₁ ≤ 0.5, else min(⌈log₂(‖m‖₁/0.5)⌉, maxSquarings) from OneNorm. It
// sums √(re²+im²) instead of cmplx.Abs. That norm is within a few ulps
// of OneNorm, plus 1e-160 where a square underflows, so away from the
// thresholds 0.5·2^j both norms give one integer, read off the binary
// exponent. OneNorm and the formula decide within a relative 1e-9 of a
// power of two, and when a square overflows: a finite cheap norm is below
// 1e156, far from where the formula's ‖m‖₁/0.5 overflows (DESIGN.md,
// "Fused Taylor step").
func squaringCount(m *Matrix) int {
	norm := sqrtOneNorm(m)
	if norm < 0.5*(1-1e-9) {
		return 0
	}
	// frac lies in [0.5, 1) for a finite norm; Inf fails both tests.
	if frac, exp := math.Frexp(norm); frac > 0.5*(1+1e-9) && frac < 1-1e-9 {
		return exp + 1
	}
	return squaringsFor(m.OneNorm())
}

// squaringsFor is the squaring count of a matrix whose one-norm is norm.
func squaringsFor(norm float64) int {
	if norm <= 0.5 {
		return 0
	}
	return min(int(math.Ceil(math.Log2(norm/0.5))), maxSquarings)
}

// sqrtOneNorm is OneNorm with √(re²+im²) in place of cmplx.Abs.
func sqrtOneNorm(m *Matrix) float64 {
	var mx float64
	for c := 0; c < m.Cols; c++ {
		var s float64
		for i := c; i < len(m.Data); i += m.Cols {
			v := m.Data[i]
			s += math.Sqrt(real(v)*real(v) + imag(v)*imag(v))
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// taylorStep scales the series term t in place by the real r, adds it into
// dst, and reports whether every scaled entry has modulus below 1e-18 —
// the stopping rule of a separate ScaleInto(·, complex(r, 0)), AddInPlace
// and MaxAbs, in one pass and bit for bit (DESIGN.md, "Fused Taylor step"):
//
//   - A real scale differs from the complex product by (r, 0) only in the
//     sign of zero parts, and neither dst (an identity plus sums) nor a
//     MulInto result ever holds −0, so sums and products come out equal.
//   - |v| = hypot(re, im) lies in [m, 1.415·m] for m = max(|re|, |im|),
//     so m ≥ 1e-18 fails the rule and m < 0.5e-18 passes it; only the
//     entries in between pay for cmplx.Abs.
func taylorStep(dst, t []complex128, r float64) bool {
	converged := true
	dst = dst[:len(t)]
	for i, v := range t {
		v = complex(real(v)*r, imag(v)*r)
		t[i] = v
		dst[i] += v
		if converged {
			m := math.Abs(real(v))
			if a := math.Abs(imag(v)); a > m {
				m = a
			}
			if m >= 1e-18 || m >= 0.5e-18 && cmplx.Abs(v) >= 1e-18 {
				converged = false
			}
		}
	}
	return converged
}

// termConverged applies taylorStep's stopping rule to a term that is
// already scaled: it reports whether every entry has modulus below 1e-18.
func termConverged(t []complex128) bool {
	for _, v := range t {
		m := math.Abs(real(v))
		if a := math.Abs(imag(v)); a > m {
			m = a
		}
		if m >= 1e-18 || m >= 0.5e-18 && cmplx.Abs(v) >= 1e-18 {
			return false
		}
	}
	return true
}

// ExpmHermitian returns e^(-i·H·t) for Hermitian H: the unitary propagator
// for evolution time t. Allocates; see ExpmHermitianInto.
func ExpmHermitian(h *Matrix, t float64) *Matrix {
	out := New(h.Rows, h.Cols)
	ExpmHermitianInto(out, h, t, nil)
	return out
}

// ExpmHermitianInto computes e^(-i·H·t) into dst without allocating (ws
// supplies the argument and series buffers; nil allocates a temporary
// workspace). dst must not alias h; h may be ws.Scratch — the kernel
// reads it only while forming its internal -i·t·H argument.
func ExpmHermitianInto(dst, h *Matrix, t float64, ws *Workspace) {
	if ws == nil {
		ws = NewWorkspace(h.Rows)
	}
	ws.ensure(h.Rows)
	arg := sized(ws.arg, h.Rows)
	ScaleInto(arg, h, complex(0, -t))
	ExpmInto(dst, arg, ws)
}

// TraceFidelity returns |tr(A†·B)|² / d², the standard gate fidelity between
// two unitaries of dimension d (1 when A = B up to global phase).
func TraceFidelity(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols || !a.IsSquare() {
		panic("linalg: TraceFidelity shape mismatch")
	}
	tr := a.Dagger().Mul(b).Trace()
	d := float64(a.Rows)
	return (real(tr)*real(tr) + imag(tr)*imag(tr)) / (d * d)
}

// TraceOverlap returns tr(A†·B); the complex overlap used by GRAPE
// gradients.
func TraceOverlap(a, b *Matrix) complex128 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: TraceOverlap shape mismatch")
	}
	// tr(A†B) = Σ_ij conj(A_ij)·B_ij without forming the product.
	var t complex128
	for i := range a.Data {
		t += cmplx.Conj(a.Data[i]) * b.Data[i]
	}
	return t
}

// GlobalPhaseDistance returns min_φ ‖A - e^{iφ}B‖_F, the Frobenius distance
// between unitaries modulo global phase. The optimal phase aligns
// tr(B†·A) with the positive real axis.
func GlobalPhaseDistance(a, b *Matrix) float64 {
	tr := TraceOverlap(b, a)
	phase := complex(1, 0)
	if cmplx.Abs(tr) > 1e-15 {
		phase = tr / complex(cmplx.Abs(tr), 0)
	}
	return a.Sub(b.Scale(phase)).FrobeniusNorm()
}
