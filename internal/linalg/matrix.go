// Package linalg provides dense complex-matrix algebra for the quantum
// stack: products, tensor (Kronecker) products, adjoints, norms, and the
// matrix exponential. Matrices in this codebase are small (dimension 2..16,
// i.e. 1..4 qubits), so the implementations favour clarity and numerical
// robustness over asymptotic cleverness.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, Data[r*Cols+c]
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must share a length.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 {
		panic("linalg: FromRows needs at least one row")
	}
	m := New(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[r*m.Cols:(r+1)*m.Cols], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) complex128 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v complex128) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// IsSquare reports whether the matrix is square.
func (m *Matrix) IsSquare() bool { return m.Rows == m.Cols }

// Equal reports element-wise equality within tol (absolute).
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Add returns m + o. Allocates; see AddInto for the destination-passing
// form.
func (m *Matrix) Add(o *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	AddInto(out, m, o)
	return out
}

// Sub returns m - o. Allocates; see SubInto.
func (m *Matrix) Sub(o *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	SubInto(out, m, o)
	return out
}

// Scale returns s*m. Allocates; see ScaleInto.
func (m *Matrix) Scale(s complex128) *Matrix {
	out := New(m.Rows, m.Cols)
	ScaleInto(out, m, s)
	return out
}

// AddInPlace accumulates s*o into m.
func (m *Matrix) AddInPlace(o *Matrix, s complex128) {
	mustSameShape(m, o)
	for i := range m.Data {
		m.Data[i] += CMul(s, o.Data[i])
	}
}

// Mul returns the matrix product m·o. Allocates; see MulInto for the
// destination-passing form used on hot paths.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := New(m.Rows, o.Cols)
	MulInto(out, m, o)
	return out
}

// MulVec returns the matrix-vector product m·v. Allocates; see
// MulVecInto.
func (m *Matrix) MulVec(v []complex128) []complex128 {
	if m.Cols != len(v) {
		panic("linalg: MulVec length mismatch")
	}
	out := make([]complex128, m.Rows)
	MulVecInto(out, m, v)
	return out
}

// Dagger returns the conjugate transpose m†. Allocates; see DaggerInto.
func (m *Matrix) Dagger() *Matrix {
	out := New(m.Cols, m.Rows)
	DaggerInto(out, m)
	return out
}

// Transpose returns the (non-conjugated) transpose.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*out.Cols+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// Kron returns the Kronecker (tensor) product m ⊗ o.
func (m *Matrix) Kron(o *Matrix) *Matrix {
	out := New(m.Rows*o.Rows, m.Cols*o.Cols)
	for r1 := 0; r1 < m.Rows; r1++ {
		for c1 := 0; c1 < m.Cols; c1++ {
			a := m.Data[r1*m.Cols+c1]
			if a == 0 {
				continue
			}
			for r2 := 0; r2 < o.Rows; r2++ {
				base := (r1*o.Rows+r2)*out.Cols + c1*o.Cols
				orow := o.Data[r2*o.Cols : (r2+1)*o.Cols]
				for c2, b := range orow {
					out.Data[base+c2] = CMul(a, b)
				}
			}
		}
	}
	return out
}

// Trace returns the trace of a square matrix.
func (m *Matrix) Trace() complex128 {
	if !m.IsSquare() {
		panic("linalg: Trace of non-square matrix")
	}
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// FrobeniusNorm returns sqrt(Σ|a_ij|²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		re, im := real(v), imag(v)
		s += float64(re*re) + float64(im*im)
	}
	return math.Sqrt(s)
}

// MaxAbs returns max_ij |a_ij|.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// OneNorm returns the maximum absolute column sum.
func (m *Matrix) OneNorm() float64 {
	var mx float64
	for c := 0; c < m.Cols; c++ {
		var s float64
		for r := 0; r < m.Rows; r++ {
			s += cmplx.Abs(m.Data[r*m.Cols+c])
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// IsUnitary reports whether m†·m ≈ I within tol.
func (m *Matrix) IsUnitary(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	p := m.Dagger().Mul(m)
	return p.Equal(Identity(m.Rows), tol)
}

// IsHermitian reports whether m ≈ m† within tol.
func (m *Matrix) IsHermitian(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	return m.Equal(m.Dagger(), tol)
}

// String renders the matrix compactly for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		b.WriteString("[")
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				b.WriteString(", ")
			}
			v := m.Data[r*m.Cols+c]
			fmt.Fprintf(&b, "%.4g%+.4gi", real(v), imag(v))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func mustSameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
