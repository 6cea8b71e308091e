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
	n               int
	a, a2, a3, a4   *Matrix // the scaled argument A and its powers
	horner, product *Matrix
	scratch         *Matrix
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
	w.a, w.a2, w.a3, w.a4 = New(n, n), New(n, n), New(n, n), New(n, n)
	w.horner, w.product = New(n, n), New(n, n)
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
// with a degree-16 Taylor polynomial on the scaled matrix. For the
// anti-Hermitian arguments that arise from -i·H·t propagators this is
// accurate to near machine precision at the dimensions used here (≤16).
// Allocates a fresh result and workspace; see ExpmInto for the
// destination-passing form.
func Expm(m *Matrix) *Matrix {
	if !m.IsSquare() {
		panic("linalg: Expm of non-square matrix")
	}
	out := New(m.Rows, m.Cols)
	ExpmInto(out, m, nil)
	return out
}

// ExpmInto computes e^m into dst, reusing ws's buffers (a nil ws
// allocates a temporary one). dst must be m-shaped and must not alias m
// or a workspace buffer other than ws.Scratch. The result is
// bit-identical to Expm — same operation order, only storage reuse. An
// argument that needs noDigitsSquarings or more squarings gets NaN in
// every entry.
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
	s := squaringsFor(sqrtOneNorm(m))
	a := sized(ws.a, n)
	r := math.Ldexp(1, -s)
	for i, v := range m.Data {
		a.Data[i] = complex(real(v)*r, imag(v)*r)
	}
	expmScaled(dst, s, ws)
}

// ExpmHermitian returns e^(-i·H·t) for Hermitian H: the unitary propagator
// for evolution time t. Allocates; see ExpmHermitianInto.
func ExpmHermitian(h *Matrix, t float64) *Matrix {
	out := New(h.Rows, h.Cols)
	ExpmHermitianInto(out, h, t, nil)
	return out
}

// ExpmHermitianInto computes e^(-i·H·t) into dst without allocating (ws
// supplies the polynomial's buffers; nil allocates a temporary
// workspace). dst must not alias h; h may be ws.Scratch. The squaring
// count comes from |t|·‖H‖, and the argument −i·t·2^-s·H is formed in
// one pass: each part is one product by the real t·2^-s. As in ExpmInto,
// noDigitsSquarings or more squarings give NaN in every entry.
func ExpmHermitianInto(dst, h *Matrix, t float64, ws *Workspace) {
	if !h.IsSquare() {
		panic("linalg: Expm of non-square matrix")
	}
	n := h.Rows
	mustSameShape(dst, h)
	if ws == nil {
		ws = NewWorkspace(n)
	}
	ws.ensure(n)
	s := squaringsFor(math.Abs(t) * sqrtOneNorm(h))
	a := sized(ws.a, n)
	c := math.Ldexp(t, -s)
	for i, v := range h.Data {
		a.Data[i] = complex(c*imag(v), -(c * real(v)))
	}
	expmScaled(dst, s, ws)
}

// invFactorial holds c_k = 1/k!, each rounded once from the exact
// constant.
var invFactorial = [17]float64{
	1, 1, 1.0 / 2, 1.0 / 6, 1.0 / 24, 1.0 / 120, 1.0 / 720, 1.0 / 5040,
	1.0 / 40320, 1.0 / 362880, 1.0 / 3628800, 1.0 / 39916800,
	1.0 / 479001600, 1.0 / 6227020800, 1.0 / 87178291200,
	1.0 / 1307674368000, 1.0 / 20922789888000,
}

// expmScaled finishes an exponential whose scaled argument A = 2^-s·m is
// in ws.a: it evaluates the degree-16 Taylor polynomial of A by
// Paterson–Stockmeyer and squares the result s times into dst. With
// ‖A‖₁ ≤ 0.5 the truncation error is at most 0.5^17/17!·e^0.5 ≈ 4e-20
// (DESIGN.md, "Paterson–Stockmeyer exponential").
//
// With A2 = A·A, A3 = A2·A, A4 = A2·A2 and
// B_i = c_{4i}·I + c_{4i+1}·A + c_{4i+2}·A2 + c_{4i+3}·A3, the polynomial
// is A4·(A4·(A4·(c16·A4 + B3) + B2) + B1) + B0: three products for the
// powers, three for the Horner steps, six in all. From noDigitsSquarings
// squarings on it writes NaN to dst instead and runs no product.
func expmScaled(dst *Matrix, s int, ws *Workspace) {
	if s >= noDigitsSquarings {
		fillNaN(dst)
		return
	}
	n := dst.Rows
	a, a2, a3, a4 := sized(ws.a, n), sized(ws.a2, n), sized(ws.a3, n), sized(ws.a4, n)
	h, p := sized(ws.horner, n), sized(ws.product, n)
	MulInto(a2, a, a)
	MulInto(a3, a2, a)
	MulInto(a4, a2, a2)
	c := &invFactorial
	combine(h, a4, a, a2, a3, c[16], c[12:16])
	// The last Horner step writes where s squarings, trading that buffer
	// and dst, end in dst: dst itself for an even s, else a4, which the
	// last step's product has finished reading.
	last := dst
	if s%2 == 1 {
		last = a4
	}
	for i := 2; i >= 0; i-- {
		MulInto(p, a4, h)
		out := h
		if i == 0 {
			out = last
		}
		combine(out, p, a, a2, a3, 1, c[4*i:4*i+4])
	}
	cur, next := last, a4
	if last == a4 {
		next = dst
	}
	for ; s > 0; s-- {
		MulInto(next, cur, cur)
		cur, next = next, cur
	}
}

// combine sets h = ct·t + c[1]·a + c[2]·a2 + c[3]·a3 + c[0]·I. The real
// coefficients scale real and imaginary parts alike, so the sum runs over
// float64 lanes in the order ((ct·t + c1·a) + c2·a2) + c3·a3 with every
// product rounded on its own (combineParts), and c[0] is added to the
// diagonal's real parts afterwards.
func combine(h, t, a, a2, a3 *Matrix, ct float64, c []float64) {
	combineParts(h.Data, t.Data, a.Data, a2.Data, a3.Data, ct, c[1], c[2], c[3])
	n := h.Rows
	for d := 0; d < n*n; d += n + 1 {
		h.Data[d] = complex(real(h.Data[d])+c[0], imag(h.Data[d]))
	}
}

// combineGeneric is combineParts in Go. The float64 conversions round each
// product on its own, so no architecture contracts a product and a sum
// into one FMA and every platform gives the AVX2 kernel's bits.
func combineGeneric(h, t, a, a2, a3 []complex128, ct, c1, c2, c3 float64) {
	t, a, a2, a3 = t[:len(h)], a[:len(h)], a2[:len(h)], a3[:len(h)]
	for i := range h {
		re := float64(ct*real(t[i])) + float64(c1*real(a[i]))
		re += float64(c2 * real(a2[i]))
		re += float64(c3 * real(a3[i]))
		im := float64(ct*imag(t[i])) + float64(c1*imag(a[i]))
		im += float64(c2 * imag(a2[i]))
		im += float64(c3 * imag(a3[i]))
		h[i] = complex(re, im)
	}
}

// maxSquarings is the most squarings any finite one-norm needs: every
// finite norm is below 2^1024, and 1025 halvings bring that to 0.5. A
// non-finite norm gets the same count.
const maxSquarings = 1025

// noDigitsSquarings is the squaring count at which an exponential keeps
// no digit: each squaring can double an error, and 1e-15·2^s ≥ 1 from
// s = 50 on (DESIGN.md, "Paterson–Stockmeyer exponential"). Rather than
// return a finite matrix that shares no digit with e^m, the exponentials
// write NaN there, so a propagator built from one gives a NaN fidelity,
// which no search counts as a hit. GRAPE's slice arguments need about one
// squaring.
const noDigitsSquarings = 50

// fillNaN writes NaN to both parts of every entry of dst.
func fillNaN(dst *Matrix) {
	nan := math.NaN()
	for i := range dst.Data {
		dst.Data[i] = complex(nan, nan)
	}
}

// squaringsFor returns the squaring count for an argument of one-norm
// norm: the smallest s ≥ 0 with 2^-s·norm ≤ 0.5. It is read off the
// binary exponent, so no float converts to an int, and a norm that is
// +Inf or NaN gets maxSquarings on every architecture.
func squaringsFor(norm float64) int {
	if norm <= 0.5 {
		return 0
	}
	if !(norm <= math.MaxFloat64) {
		return maxSquarings
	}
	// norm = frac·2^exp with frac in [0.5, 1), so 2^(exp-1) ≤ norm < 2^exp.
	frac, exp := math.Frexp(norm)
	if frac == 0.5 {
		return exp
	}
	return exp + 1
}

// sqrtOneNorm is OneNorm with √(re²+im²) in place of cmplx.Abs: within a
// few ulps of it, plus about 1e-160 per entry where a square underflows.
// Where a square overflows, a part above about 1.3e154, OneNorm itself
// decides. Like OneNorm it skips a column whose sum is NaN. At dimensions
// 4, 8 and 16 the column sums come from an AVX2 kernel with the Go
// loop's bits (sqrtColSums); the maximum does not depend on the order of
// the columns.
func sqrtOneNorm(m *Matrix) float64 {
	var sums [16]float64
	var mx float64
	if sqrtColSums(&sums, m) {
		for _, s := range sums[:m.Cols] {
			if s > mx {
				mx = s
			}
		}
	} else {
		for c := 0; c < m.Cols; c++ {
			var s float64
			for i := c; i < len(m.Data); i += m.Cols {
				re, im := real(m.Data[i]), imag(m.Data[i])
				s += math.Sqrt(float64(re*re) + float64(im*im))
			}
			if s > mx {
				mx = s
			}
		}
	}
	if math.IsInf(mx, 1) {
		return m.OneNorm()
	}
	return mx
}

// TraceFidelity returns |tr(A†·B)|² / d², the standard gate fidelity between
// two unitaries of dimension d (1 when A = B up to global phase).
func TraceFidelity(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols || !a.IsSquare() {
		panic("linalg: TraceFidelity shape mismatch")
	}
	tr := a.Dagger().Mul(b).Trace()
	d := float64(a.Rows)
	return (float64(real(tr)*real(tr)) + float64(imag(tr)*imag(tr))) / (d * d)
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
		t += CMul(conj(a.Data[i]), b.Data[i])
	}
	return t
}

// GlobalPhaseDistance returns min_φ ‖A - e^{iφ}B‖_F, the Frobenius distance
// between unitaries modulo global phase. The optimal phase aligns
// tr(B†·A) with the positive real axis. It runs in one pass with the bits
// of a.Sub(b.Scale(phase)).FrobeniusNorm(): each entry a − CMul(phase, b),
// squared and summed in FrobeniusNorm's order.
func GlobalPhaseDistance(a, b *Matrix) float64 {
	tr := TraceOverlap(b, a)
	phase := complex(1, 0)
	if cmplx.Abs(tr) > 1e-15 {
		phase = tr / complex(cmplx.Abs(tr), 0)
	}
	var s float64
	for i, av := range a.Data {
		d := av - CMul(phase, b.Data[i])
		re, im := real(d), imag(d)
		s += float64(re*re) + float64(im*im)
	}
	return math.Sqrt(s)
}
