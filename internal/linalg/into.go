package linalg

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
// a or b. Square products of dimension 4, 8, or 16 (the 2/3/4-qubit
// unitary spaces that dominate GRAPE and pulse simulation) dispatch to
// blocked kernels that are bit-identical to the generic loop; see
// kernels_amd64.go.
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

// mulIntoGeneric is the portable scalar kernel behind MulInto, and the
// oracle the specialized kernels are tested against.
func mulIntoGeneric(dst, a, b *Matrix) {
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Cols : (r+1)*a.Cols]
		drow := dst.Data[r*b.Cols : (r+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			krow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for c, bv := range krow {
				drow[c] += av * bv
			}
		}
	}
}

// MulVecInto computes the matrix-vector product m·v into dst. dst must
// not alias v and must have length m.Rows. Square systems of dimension
// 4, 8, or 16 dispatch to unrolled kernels with the same accumulation
// order as the generic loop.
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
			s += mv * v[c]
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
		s += row[0] * vv[0]
		s += row[1] * vv[1]
		s += row[2] * vv[2]
		s += row[3] * vv[3]
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
			s += row[c] * vv[c]
			s += row[c+1] * vv[c+1]
			s += row[c+2] * vv[c+2]
			s += row[c+3] * vv[c+3]
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
			s += row[c] * vv[c]
			s += row[c+1] * vv[c+1]
			s += row[c+2] * vv[c+2]
			s += row[c+3] * vv[c+3]
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
		dst.Data[i] = s * m.Data[i]
	}
}

// AddScaledInto computes a + s·b into dst. dst may alias a or b.
func AddScaledInto(dst, a, b *Matrix, s complex128) {
	mustSameShape(a, b)
	mustSameShape(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + s*b.Data[i]
	}
}

// conj avoids pulling cmplx into the inner loops' inlining budget.
func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }
