package linalg

import (
	"math"
	"testing"
)

// The specialized matmul/matvec kernels must be bit-identical to the
// generic scalar loops: the golden experiment tables pin latencies to
// the last ulp through 4- and 8-dim unitary products, so any FP
// reordering in MulInto would silently shift the physics. These tests
// compare the dispatched path against mulIntoGeneric bit-for-bit over
// random matrices salted with the edge cases the kernels special-case
// (±0 skip rows, NaN/Inf in skipped and unskipped positions).

func kernelRand(seed uint64) func() float64 {
	s := seed
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(int64(s%2000))/1000 - 1
	}
}

func randomTestMatrix(rows, cols int, seed uint64) *Matrix {
	m := New(rows, cols)
	next := kernelRand(seed)
	for i := range m.Data {
		m.Data[i] = complex(next(), next())
	}
	return m
}

// saltEdgeCases plants zeros (skip rows), negative zeros, NaN, and Inf
// at deterministic positions.
func saltEdgeCases(a, b *Matrix) {
	nan := math.NaN()
	for i := 0; i < len(a.Data); i += 7 {
		a.Data[i] = 0
	}
	for i := 3; i < len(a.Data); i += 11 {
		a.Data[i] = complex(math.Copysign(0, -1), 0)
	}
	if len(b.Data) > 5 {
		b.Data[5] = complex(nan, 1)
	}
	if len(b.Data) > 9 {
		b.Data[9] = complex(math.Inf(1), -2)
	}
}

// sameBits treats all NaNs as equal (payload propagation through vector
// ops is not specified) but otherwise requires exact bit equality,
// including the sign of zero.
func sameBits(x, y complex128) bool {
	return sameFloatBits(real(x), real(y)) && sameFloatBits(imag(x), imag(y))
}

func sameFloatBits(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

func TestMulKernelsBitIdentical(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for trial := uint64(0); trial < 4; trial++ {
			a := randomTestMatrix(n, n, 1+trial*31+uint64(n))
			b := randomTestMatrix(n, n, 2+trial*37+uint64(n))
			if trial%2 == 1 {
				saltEdgeCases(a, b)
			}
			want := New(n, n)
			got := New(n, n)
			mulIntoGeneric(want, a, b)
			MulInto(got, a, b)
			for i := range want.Data {
				if !sameBits(want.Data[i], got.Data[i]) {
					t.Fatalf("n=%d trial=%d: element %d differs: generic %v, dispatched %v",
						n, trial, i, want.Data[i], got.Data[i])
				}
			}
		}
	}
}

func TestMulVecKernelsBitIdentical(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for trial := uint64(0); trial < 4; trial++ {
			m := randomTestMatrix(n, n, 3+trial*41+uint64(n))
			vm := randomTestMatrix(1, n, 4+trial*43+uint64(n))
			if trial%2 == 1 {
				saltEdgeCases(m, vm)
			}
			v := vm.Data
			want := make([]complex128, n)
			got := make([]complex128, n)
			mulVecIntoGeneric(want, m, v)
			MulVecInto(got, m, v)
			for i := range want {
				if !sameBits(want[i], got[i]) {
					t.Fatalf("n=%d trial=%d: element %d differs: generic %v, dispatched %v",
						n, trial, i, want[i], got[i])
				}
			}
		}
	}
}

// Non-square products must still fall through to the generic kernel.
func TestMulKernelsNonSquareFallback(t *testing.T) {
	a := randomTestMatrix(8, 4, 7)
	b := randomTestMatrix(4, 8, 8)
	want := New(8, 8)
	got := New(8, 8)
	mulIntoGeneric(want, a, b)
	MulInto(got, a, b)
	for i := range want.Data {
		if !sameBits(want.Data[i], got.Data[i]) {
			t.Fatalf("element %d differs on non-square product", i)
		}
	}
}

func benchMulPair(b *testing.B, n int, generic bool) {
	x := randomTestMatrix(n, n, 101)
	y := randomTestMatrix(n, n, 102)
	dst := New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if generic {
			mulIntoGeneric(dst, x, y)
		} else {
			MulInto(dst, x, y)
		}
	}
}

func BenchmarkMulGeneric8(b *testing.B)    { benchMulPair(b, 8, true) }
func BenchmarkMulDispatched8(b *testing.B) { benchMulPair(b, 8, false) }
func BenchmarkMulGeneric16(b *testing.B)   { benchMulPair(b, 16, true) }
func BenchmarkMulDispatched16(b *testing.B) {
	benchMulPair(b, 16, false)
}
