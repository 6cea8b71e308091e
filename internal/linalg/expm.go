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

	// Scale so the one-norm of the argument is ≤ 0.5, then square back.
	norm := m.OneNorm()
	squarings := 0
	if norm > 0.5 {
		squarings = int(math.Ceil(math.Log2(norm / 0.5)))
	}
	ScaleInto(scaled, m, complex(math.Ldexp(1, -squarings), 0))

	// Taylor series: I + A + A²/2! + …; with ‖A‖ ≤ 0.5 convergence is fast.
	// Each step is one product and one fused pass (taylorStep); the
	// product lands in tmp, which then becomes the next term.
	IdentityInto(dst)
	IdentityInto(term)
	for k := 1; k <= 24; k++ {
		MulInto(tmp, term, scaled)
		term, tmp = tmp, term
		if taylorStep(dst.Data, term.Data, 1/float64(k)) {
			break
		}
	}
	for s := 0; s < squarings; s++ {
		MulInto(tmp, dst, dst)
		copy(dst.Data, tmp.Data)
	}
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
