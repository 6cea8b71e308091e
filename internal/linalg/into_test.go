package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestIntoKernelsMatchValueAPI pins the wrapper contract: every value-
// returning method and its Into kernel produce bit-identical results.
func TestIntoKernelsMatchValueAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 8} {
		a := randomMatrix(n, n, rng.Int63())
		b := randomMatrix(n, n, rng.Int63())
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}

		check := func(name string, want, got *Matrix) {
			t.Helper()
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("n=%d %s: element %d differs: %v vs %v", n, name, i, want.Data[i], got.Data[i])
				}
			}
		}

		dst := New(n, n)
		MulInto(dst, a, b)
		check("Mul", a.Mul(b), dst)
		DaggerInto(dst, a)
		check("Dagger", a.Dagger(), dst)
		AddInto(dst, a, b)
		check("Add", a.Add(b), dst)
		SubInto(dst, a, b)
		check("Sub", a.Sub(b), dst)
		ScaleInto(dst, a, 2-3i)
		check("Scale", a.Scale(2-3i), dst)
		AddScaledInto(dst, a, b, 2-3i)
		check("AddScaled", a.Add(b.Scale(2-3i)), dst)
		IdentityInto(dst)
		check("Identity", Identity(n), dst)

		ws := NewWorkspace(n)
		ExpmInto(dst, a.Scale(0.05), ws)
		check("Expm", Expm(a.Scale(0.05)), dst)
		h := a.Add(a.Dagger()).Scale(0.5) // Hermitian
		ExpmHermitianInto(dst, h, 0.3, ws)
		check("ExpmHermitian", ExpmHermitian(h, 0.3), dst)

		vdst := make([]complex128, n)
		MulVecInto(vdst, a, v)
		want := a.MulVec(v)
		for i := range want {
			if want[i] != vdst[i] {
				t.Fatalf("n=%d MulVec: element %d differs", n, i)
			}
		}
	}
}

// TestAliasingAllowed exercises the documented aliasing guarantee of the
// element-wise kernels: dst may be a source operand.
func TestAliasingAllowed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(4, 4, rng.Int63())
	b := randomMatrix(4, 4, rng.Int63())

	want := a.Add(b)
	got := a.Clone()
	AddInto(got, got, b)
	if !want.Equal(got, 0) {
		t.Error("AddInto with dst aliasing a diverged")
	}

	want = a.Scale(1 + 2i)
	got = a.Clone()
	ScaleInto(got, got, 1+2i)
	if !want.Equal(got, 0) {
		t.Error("ScaleInto with dst aliasing m diverged")
	}

	want = a.Add(b.Scale(-0.5))
	got = a.Clone()
	AddScaledInto(got, got, b, -0.5)
	if !want.Equal(got, 0) {
		t.Error("AddScaledInto with dst aliasing a diverged")
	}
}

// TestIntoKernelShapePanics checks the strict-shape contract: kernels
// panic on a mis-sized destination instead of resizing it.
func TestIntoKernelShapePanics(t *testing.T) {
	a := New(2, 2)
	bad := New(3, 3)
	for name, fn := range map[string]func(){
		"MulInto":    func() { MulInto(bad, a, a) },
		"DaggerInto": func() { DaggerInto(bad, a) },
		"AddInto":    func() { AddInto(bad, a, a) },
		"ScaleInto":  func() { ScaleInto(bad, a, 1) },
		"MulVecInto": func() { MulVecInto(make([]complex128, 3), a, make([]complex128, 2)) },
		"ExpmInto":   func() { ExpmInto(bad, a, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on bad destination shape", name)
				}
			}()
			fn()
		}()
	}
}

// TestIntoKernelsZeroAlloc is the allocation-regression gate for the
// destination-passing API: with warm destinations and workspace, the hot
// kernels must not allocate at all.
func TestIntoKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 8
	a := randomMatrix(n, n, rng.Int63())
	b := randomMatrix(n, n, rng.Int63())
	h := a.Add(a.Dagger()).Scale(0.5)
	v := make([]complex128, n)
	dst := New(n, n)
	vdst := make([]complex128, n)
	ws := NewWorkspace(n)

	for name, fn := range map[string]func(){
		"MulInto":           func() { MulInto(dst, a, b) },
		"MulVecInto":        func() { MulVecInto(vdst, a, v) },
		"DaggerInto":        func() { DaggerInto(dst, a) },
		"AddInto":           func() { AddInto(dst, a, b) },
		"SubInto":           func() { SubInto(dst, a, b) },
		"ScaleInto":         func() { ScaleInto(dst, a, 0.5) },
		"AddScaledInto":     func() { AddScaledInto(dst, a, b, 0.5) },
		"IdentityInto":      func() { IdentityInto(dst) },
		"ExpmHermitianInto": func() { ExpmHermitianInto(dst, h, 0.3, ws) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op with warm buffers, want 0", name, allocs)
		}
	}

	// The exponential at every dimension, on the AVX2 combination
	// kernel's lengths and the Go loop's alike, with and without
	// squarings.
	for n := 1; n <= 16; n++ {
		a := randomMatrix(n, n, rng.Int63())
		h := a.Add(a.Dagger()).Scale(0.5)
		dst := New(n, n)
		ws := NewWorkspace(n)
		for _, dt := range []float64{0.01, 3} {
			if allocs := testing.AllocsPerRun(20, func() { ExpmHermitianInto(dst, h, dt, ws) }); allocs != 0 {
				t.Errorf("ExpmHermitianInto n=%d t=%v: %v allocs/op with warm buffers, want 0", n, dt, allocs)
			}
		}
	}
}

// TestWorkspaceServesSmallerDims checks the sized() reslicing path: a
// workspace grown for 8×8 must serve 4×4 exponentials correctly.
func TestWorkspaceServesSmallerDims(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ws := NewWorkspace(8)
	for _, n := range []int{8, 4, 2, 8} {
		a := randomMatrix(n, n, rng.Int63())
		h := a.Add(a.Dagger()).Scale(0.5)
		dst := New(n, n)
		ExpmHermitianInto(dst, h, 0.2, ws)
		want := ExpmHermitian(h, 0.2)
		if !want.Equal(dst, 0) {
			t.Fatalf("n=%d: workspace reuse across dims diverged", n)
		}
	}
}

func BenchmarkMulValue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomMatrix(8, 8, rng.Int63())
	y := randomMatrix(8, 8, rng.Int63())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomMatrix(8, 8, rng.Int63())
	y := randomMatrix(8, 8, rng.Int63())
	dst := New(8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

func BenchmarkExpmHermitianValue(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randomMatrix(8, 8, rng.Int63())
	h := x.Add(x.Dagger()).Scale(0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ExpmHermitian(h, 0.3)
	}
}

// BenchmarkExpmHermitianInto is the exponential's layer row at the 1-,
// 2-, 3- and 4-qubit dimensions: e^(-i·H·0.3) for a random Hermitian H.
func BenchmarkExpmHermitianInto(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			x := randomMatrix(n, n, rng.Int63())
			h := x.Add(x.Dagger()).Scale(0.5)
			dst := New(n, n)
			ws := NewWorkspace(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ExpmHermitianInto(dst, h, 0.3, ws)
			}
		})
	}
}
