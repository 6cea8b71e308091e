//go:build amd64

package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// The amd64 kernels called by name: hostKernels for the portable tests,
// the hosts without the kernels simulated by swapping the kernel table,
// the table a host dispatches to, and the kernels' layer rows.

// hostKernels lists the product kernels this host can run at square
// dimension n, read from the kernel tables of a host with AVX2+FMA3 only
// and of one with AVX-512F too: the AVX2 kernel where CPUID reports AVX2
// and FMA3, and also the AVX-512F one where it reports AVX-512F.
func hostKernels(n int) []productKernel {
	var ks []productKernel
	for _, k := range []productKernel{kernelsFor(hasAVX2FMA, false)[n], kernelsFor(hasAVX2FMA, hasAVX512)[n]} {
		if k.mul != nil && (len(ks) == 0 || ks[0].name != k.name) {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestNoFMAHostSameBits turns the kernels off, as on a host without AVX2
// and FMA, and checks that MulInto, ExpmHermitianInto and sqrtOneNorm
// give the kernels' bits at every dimension 1–16, on dense and sparse
// operands. Where the kernels are off the Go loops run on math.FMA;
// TestFMAZeroAddend covers a host that also lacks FMA hardware.
func TestNoFMAHostSameBits(t *testing.T) {
	if !hasAVX2FMA {
		t.Skip("no AVX2 and FMA: every path is already the Go loop")
	}
	saved := mulKernel
	defer func() { hasAVX2FMA, mulKernel = true, saved }()
	rng := rand.New(rand.NewSource(27))
	for n := 1; n <= 16; n++ {
		ws := NewWorkspace(n)
		for trial := 0; trial < 6; trial++ {
			a, b := randomTestMatrix(n, n, uint64(13*n+trial)), randomTestMatrix(n, n, uint64(17*n+trial))
			h := randomHermitian(n, rng)
			if trial%2 == 1 {
				saltEdgeCases(a, b)
				h = sparseHermitian(n, 1.0/8, rng)
			}
			tt := []float64{0.3, 4, 100}[trial%3]
			var prod, expm [2]*Matrix
			var norm [2]float64
			for side, fast := range []bool{true, false} {
				hasAVX2FMA, mulKernel = fast, saved
				if !fast {
					mulKernel = kernelsFor(false, false)
				}
				prod[side], expm[side] = New(n, n), New(n, n)
				MulInto(prod[side], a, b)
				ExpmHermitianInto(expm[side], h, tt, ws)
				norm[side] = sqrtOneNorm(h)
			}
			hasAVX2FMA, mulKernel = true, saved
			for i := range prod[0].Data {
				if !sameBits(prod[0].Data[i], prod[1].Data[i]) {
					t.Fatalf("n=%d trial %d: product entry %d is %v with the kernels, %v without", n, trial, i, prod[0].Data[i], prod[1].Data[i])
				}
			}
			if i := firstBitDiff(expm[0], expm[1]); i >= 0 {
				t.Fatalf("n=%d trial %d t=%g: exponential entry %d is %v with the kernels, %v without", n, trial, tt, i, expm[0].Data[i], expm[1].Data[i])
			}
			if !sameFloatBits(norm[0], norm[1]) {
				t.Fatalf("n=%d trial %d: squaring norm %v with the kernels, %v without", n, trial, norm[0], norm[1])
			}
		}
	}
}

// TestNoAVX512HostSameBits swaps in the kernel table of a host with AVX2
// and FMA but no AVX-512F, where the AVX2 kernels run at 4 and 8, and
// checks that MulInto and ExpmHermitianInto give the AVX-512 kernels'
// bits at every dimension 1–16, on dense and sparse operands.
func TestNoAVX512HostSameBits(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512F (CPUID leaf 7 EBX bit 16, with ZMM state saved by the OS): the AVX2 kernels are the only ones")
	}
	saved := mulKernel
	defer func() { mulKernel = saved }()
	rng := rand.New(rand.NewSource(28))
	for n := 1; n <= 16; n++ {
		ws := NewWorkspace(n)
		for trial := 0; trial < 6; trial++ {
			a, b := randomTestMatrix(n, n, uint64(29*n+trial)), randomTestMatrix(n, n, uint64(31*n+trial))
			h := randomHermitian(n, rng)
			if trial%2 == 1 {
				saltEdgeCases(a, b)
				saltRowPairs(a, b)
				h = sparseHermitian(n, 1.0/8, rng)
			}
			tt := []float64{0.3, 4, 100}[trial%3]
			var prod, expm [2]*Matrix
			for side, table := range [][17]productKernel{saved, kernelsFor(true, false)} {
				mulKernel = table
				prod[side], expm[side] = New(n, n), New(n, n)
				MulInto(prod[side], a, b)
				ExpmHermitianInto(expm[side], h, tt, ws)
			}
			mulKernel = saved
			for i := range prod[0].Data {
				if !sameBits(prod[0].Data[i], prod[1].Data[i]) {
					t.Fatalf("n=%d trial %d: product entry %d is %v with AVX-512, %v without", n, trial, i, prod[0].Data[i], prod[1].Data[i])
				}
			}
			if i := firstBitDiff(expm[0], expm[1]); i >= 0 {
				t.Fatalf("n=%d trial %d t=%g: exponential entry %d is %v with AVX-512, %v without", n, trial, tt, i, expm[0].Data[i], expm[1].Data[i])
			}
		}
	}
}

// TestMulKernelSet logs the product kernel MulInto runs at each kernel
// dimension on this host, so a CI log shows whether the AVX-512 kernels
// ran. It checks this host's table, and the table of every other mix of
// the two features, against the CPUID bits: an AVX-512F kernel runs only
// where the host has AVX-512F, and wherever it has one at that dimension;
// any kernel only where it has AVX2 and FMA3.
func TestMulKernelSet(t *testing.T) {
	t.Logf("CPUID: AVX2+FMA3 %v, AVX-512F %v", hasAVX2FMA, hasAVX512)
	for n, k := range mulKernel {
		if name := k.name; n&(n-1) == 0 && n > 1 {
			if name == "" {
				name = "Go loop"
			}
			t.Logf("%2d×%-2d %s", n, n, name)
		}
	}
	type host struct{ avx2FMA, avx512 bool }
	tables := map[host][17]productKernel{{hasAVX2FMA, hasAVX512}: mulKernel}
	for _, h := range []host{{false, false}, {true, false}, {true, true}} {
		if _, ok := tables[h]; !ok {
			tables[h] = kernelsFor(h.avx2FMA, h.avx512)
		}
	}
	for h, table := range tables {
		for n, k := range table {
			wide := avx512Kernels[n]
			switch {
			case k.mul != nil && !h.avx2FMA:
				t.Errorf("%+v: %d×%d runs %s without AVX2 and FMA3", h, n, n, k.name)
			case k.mul != nil && k.name == wide.name && !h.avx512:
				t.Errorf("%+v: %d×%d runs %s without AVX-512F", h, n, n, k.name)
			case wide.mul != nil && h.avx2FMA && h.avx512 && k.name != wide.name:
				t.Errorf("%+v: %d×%d runs %q with AVX-512F, not %s", h, n, n, k.name, wide.name)
			}
		}
	}
}

// mulKernelOperands returns the operands of BenchmarkMulKernel's rows:
// dense random ones, or A and A for A = −i·4·H with H the shape of a
// GRAPE slice Hamiltonian on a chain of log₂ n qubits (an X/Y drive on
// every qubit, an XY coupling on every neighbouring pair, no diagonal),
// the sparse left operand of the exponential's first product.
func mulKernelOperands(n int, sparse bool) (a, b *Matrix) {
	if !sparse {
		return randomTestMatrix(n, n, 101), randomTestMatrix(n, n, 102)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	h := New(n, n)
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			x := r ^ c
			drive := x&(x-1) == 0
			hop := x%3 == 0 && x/3&(x/3-1) == 0 && r&x != 0 && r&x != x
			if drive || hop {
				v := complex(rng.Float64()*2-1, rng.Float64()*2-1)
				h.Data[r*n+c], h.Data[c*n+r] = v, conj(v)
			}
		}
	}
	a = New(n, n)
	ScaleInto(a, h, complex(0, -4))
	return a, a
}

// BenchmarkMulKernel times each product kernel at 4 and 8 called
// directly, both instruction sets in one binary, on dense operands and on
// a sparse left operand. The AVX-512 rows skip on a host without
// AVX-512F.
func BenchmarkMulKernel(b *testing.B) {
	for _, set := range []struct {
		name   string
		avx512 bool
	}{{"fma", false}, {"avx512", true}} {
		for _, n := range []int{4, 8} {
			for _, shape := range []string{"dense", "sparse-left"} {
				b.Run(fmt.Sprintf("%s/%d/%s", set.name, n, shape), func(b *testing.B) {
					if !hasAVX2FMA || set.avx512 && !hasAVX512 {
						b.Skipf("no %s kernel at %d×%d on this host (AVX-512F or AVX2+FMA3 missing)", set.name, n, n)
					}
					mul := kernelsFor(true, set.avx512)[n].mul
					x, y := mulKernelOperands(n, shape == "sparse-left")
					dst := New(n, n)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						mul(&dst.Data[0], &x.Data[0], &y.Data[0])
					}
				})
			}
		}
	}
}
