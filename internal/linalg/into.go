package linalg

import "math"

// Destination-passing kernels. Every XxxInto function writes its result
// into a caller-owned destination instead of allocating, so hot loops
// (GRAPE iterations, pulse-simulation slice evolution) can reuse one set
// of buffers across millions of operations. The value-returning Matrix
// methods are thin wrappers over these kernels, so both APIs produce
// bit-identical results.
//
// Aliasing rules (see DESIGN.md "Destination-passing kernels"):
//
//   - MulInto, MulVecInto, DaggerInto: dst must NOT alias any source
//     operand (the kernel writes dst while still reading the sources).
//   - AddInto, SubInto, ScaleInto, AddScaledInto: dst MAY alias a source
//     (element i of dst depends only on element i of the sources).
//
// Shapes are strict: dst must already have the result shape; kernels
// panic on mismatch rather than resizing, so a buffer bug fails loudly.

// CopyFrom copies o's elements into m. Shapes must match.
func (m *Matrix) CopyFrom(o *Matrix) {
	mustSameShape(m, o)
	copy(m.Data, o.Data)
}

// IdentityInto overwrites dst with the identity matrix.
func IdentityInto(dst *Matrix) {
	if !dst.IsSquare() {
		panic("linalg: IdentityInto on non-square matrix")
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	n := dst.Rows
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] = 1
	}
}

// MulInto computes the matrix product a·b into dst. dst must not alias
// a or b. Every entry is mulIntoGeneric's fused sum, on every
// architecture; square products of dimension 2, 4, 8 or 16 (the 1–4-qubit
// unitary spaces that dominate GRAPE and pulse simulation) dispatch to
// AVX2+FMA kernels with the same bits where the host has them (see
// kernels_amd64.go).
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic("linalg: MulInto shape mismatch")
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("linalg: MulInto bad destination shape")
	}
	if mulIntoFast(dst, a, b) {
		return
	}
	mulIntoGeneric(dst, a, b)
}

// mulIntoGeneric is the portable kernel behind MulInto and the
// definition of its bits (DESIGN.md, "Destination-passing kernels"). For
// each entry (r, c) two chains run over k ascending, skipping k where
// a[r][k] == 0 (±0 skips, NaN never does), each from +0 with one
// accumulator and one rounding per step:
//
//	P ← fma(re a[r][k], (re b[k][c], im b[k][c]), P)
//	Q ← fma(im a[r][k], (im b[k][c], re b[k][c]), Q)
//
// and the entry is (P.re − Q.re, P.im + Q.im).
func mulIntoGeneric(dst, a, b *Matrix) {
	n := b.Cols
	var buf [64]int
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Cols : (r+1)*a.Cols]
		drow := dst.Data[r*n : (r+1)*n]
		// ks lists the k with a[r][k] != 0, ascending, so a sparse row is
		// scanned once and not once per entry. A row with more nonzeros
		// than buf holds is scanned per entry instead (ks == nil).
		ks := buf[:0]
		for k, av := range arow {
			if av != 0 {
				if len(ks) == len(buf) {
					ks = nil
					break
				}
				ks = append(ks, k)
			}
		}
		for c := range drow {
			var pr, pi, qr, qi float64
			if ks != nil {
				for _, k := range ks {
					av, bv := arow[k], b.Data[k*n+c]
					pr = fma(real(av), real(bv), pr)
					pi = fma(real(av), imag(bv), pi)
					qr = fma(imag(av), imag(bv), qr)
					qi = fma(imag(av), real(bv), qi)
				}
			} else {
				for k, av := range arow {
					if av == 0 {
						continue
					}
					bv := b.Data[k*n+c]
					pr = fma(real(av), real(bv), pr)
					pi = fma(real(av), imag(bv), pi)
					qr = fma(imag(av), imag(bv), qr)
					qi = fma(imag(av), real(bv), qi)
				}
			}
			drow[c] = complex(pr-qr, pi+qi)
		}
	}
}

// fma is x·y + z rounded once, with IEEE 754's sign for a zero result on
// every host. math.FMA gives it where the hardware fuses (amd64 with
// FMA3, arm64); Go's software fallback returns x*y + z when z is zero,
// which turns a negative product that underflows to −0 into +0, so a
// zero addend is handled here: the product rounded once keeps its sign
// when it underflows, and otherwise adding the zero is exact.
func fma(x, y, z float64) float64 {
	if z != 0 {
		return math.FMA(x, y, z)
	}
	p := float64(x * y)
	if p == 0 && x != 0 && y != 0 {
		return p
	}
	return p + z
}

// CMul is Go's complex product a·b, (ar·br − ai·bi, ar·bi + ai·br), with
// every real product rounded on its own, so no architecture contracts a
// product with the sum after it into an FMA: amd64's bits everywhere.
func CMul(a, b complex128) complex128 {
	return complex(float64(real(a)*real(b))-float64(imag(a)*imag(b)),
		float64(real(a)*imag(b))+float64(imag(a)*real(b)))
}

// MulVecInto computes the matrix-vector product m·v into dst. dst must
// not alias v and must have length m.Rows. Square systems of dimension
// 4, 8, or 16 dispatch to unrolled kernels with the same accumulation
// order as the generic loop. Every product is rounded on its own (CMul),
// unfused on every architecture.
func MulVecInto(dst []complex128, m *Matrix, v []complex128) {
	if m.Cols != len(v) {
		panic("linalg: MulVec length mismatch")
	}
	if len(dst) != m.Rows {
		panic("linalg: MulVecInto bad destination length")
	}
	if m.Rows == m.Cols {
		switch m.Rows {
		case 4:
			mulVecInto4(dst, m, v)
			return
		case 8:
			mulVecInto8(dst, m, v)
			return
		case 16:
			mulVecInto16(dst, m, v)
			return
		}
	}
	mulVecIntoGeneric(dst, m, v)
}

func mulVecIntoGeneric(dst []complex128, m *Matrix, v []complex128) {
	for r := 0; r < m.Rows; r++ {
		var s complex128
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, mv := range row {
			s += CMul(mv, v[c])
		}
		dst[r] = s
	}
}

// The unrolled matvec kernels keep the generic loop's exact FP order
// (ascending-c chained accumulation from a +0 start); the win is bounds
// -check elimination via array-pointer conversion plus 4-way unrolling.

func mulVecInto4(dst []complex128, m *Matrix, v []complex128) {
	md := (*[16]complex128)(m.Data)
	vv := (*[4]complex128)(v)
	dd := (*[4]complex128)(dst)
	for r := 0; r < 4; r++ {
		row := md[r*4 : r*4+4 : r*4+4]
		var s complex128
		s += CMul(row[0], vv[0])
		s += CMul(row[1], vv[1])
		s += CMul(row[2], vv[2])
		s += CMul(row[3], vv[3])
		dd[r] = s
	}
}

func mulVecInto8(dst []complex128, m *Matrix, v []complex128) {
	md := (*[64]complex128)(m.Data)
	vv := (*[8]complex128)(v)
	dd := (*[8]complex128)(dst)
	for r := 0; r < 8; r++ {
		row := md[r*8 : r*8+8 : r*8+8]
		var s complex128
		for c := 0; c < 8; c += 4 {
			s += CMul(row[c], vv[c])
			s += CMul(row[c+1], vv[c+1])
			s += CMul(row[c+2], vv[c+2])
			s += CMul(row[c+3], vv[c+3])
		}
		dd[r] = s
	}
}

func mulVecInto16(dst []complex128, m *Matrix, v []complex128) {
	md := (*[256]complex128)(m.Data)
	vv := (*[16]complex128)(v)
	dd := (*[16]complex128)(dst)
	for r := 0; r < 16; r++ {
		row := md[r*16 : r*16+16 : r*16+16]
		var s complex128
		for c := 0; c < 16; c += 4 {
			s += CMul(row[c], vv[c])
			s += CMul(row[c+1], vv[c+1])
			s += CMul(row[c+2], vv[c+2])
			s += CMul(row[c+3], vv[c+3])
		}
		dd[r] = s
	}
}

// DaggerInto computes the conjugate transpose m† into dst. dst must not
// alias m.
func DaggerInto(dst, m *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic("linalg: DaggerInto bad destination shape")
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			dst.Data[c*dst.Cols+r] = conj(m.Data[r*m.Cols+c])
		}
	}
}

// AddInto computes a + b into dst. dst may alias a or b.
func AddInto(dst, a, b *Matrix) {
	mustSameShape(a, b)
	mustSameShape(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// SubInto computes a - b into dst. dst may alias a or b.
func SubInto(dst, a, b *Matrix) {
	mustSameShape(a, b)
	mustSameShape(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// ScaleInto computes s·m into dst. dst may alias m.
func ScaleInto(dst, m *Matrix, s complex128) {
	mustSameShape(dst, m)
	for i := range dst.Data {
		dst.Data[i] = CMul(s, m.Data[i])
	}
}

// AddScaledInto computes a + s·b into dst. dst may alias a or b.
func AddScaledInto(dst, a, b *Matrix, s complex128) {
	mustSameShape(a, b)
	mustSameShape(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + CMul(s, b.Data[i])
	}
}

// conj avoids pulling cmplx into the inner loops' inlining budget.
func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// productKernel is a square product kernel in assembly: its name, which
// the tests and the CI log print, and the function, which writes a·b to
// dst for n×n operands of its one dimension n.
type productKernel struct {
	name string
	mul  func(dst, a, b *complex128)
}
