//go:build amd64

package linalg

// AVX2+FMA kernels for the square dimensions the compiler actually
// produces (2/4/8/16: 1/2/3/4-qubit unitary spaces), and AVX-512F
// kernels for the two that carry GRAPE's products, 4 and 8. The matmul
// kernels vectorize across columns only and compute mulIntoGeneric's
// fused chains bit for bit (TestMulKernelsBitIdentical,
// TestEachKernelBitIdentical, FuzzMulKernels).

// hasAVX2FMA reports whether the AVX2 kernels may run: CPUID must report
// AVX2 and FMA3 and the OS must save YMM state. Elsewhere the Go loops
// run, with the same bits (TestNoFMAHostSameBits turns it off).
// hasAVX512 reports whether the AVX-512F product kernels may run as
// well: CPUID must report AVX-512F and the OS must save the opmask and
// all 32 ZMM registers.
var hasAVX2FMA, hasAVX512 = detectCPU()

func detectCPU() (avx2FMA, avx512 bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false, false
	}
	// The OS must have enabled XMM and YMM state saving in XCR0, and for
	// AVX-512 the opmask, ZMM_Hi256 and Hi16_ZMM state too.
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2, avx512f = 1 << 5, 1 << 16
	if b7&avx2 == 0 {
		return false, false
	}
	return true, b7&avx512f != 0 && xcr0&0xe6 == 0xe6
}

// fmaKernels and avx512Kernels are each instruction set's product
// kernels, indexed by square dimension; every other entry is empty.
var (
	fmaKernels = [17]productKernel{
		2:  {"mulInto2FMA", mulInto2FMA},
		4:  {"mulInto4FMA", mulInto4FMA},
		8:  {"mulInto8FMA", mulInto8FMA},
		16: {"mulInto16FMA", mulInto16FMA},
	}
	avx512Kernels = [17]productKernel{
		4: {"mulInto4AVX512", mulInto4AVX512},
		8: {"mulInto8AVX512", mulInto8AVX512},
	}
)

// mulKernel[n] is the kernel MulInto runs at square dimension n, picked
// once from CPUID, so a call pays one table read and no feature test.
var mulKernel = kernelsFor(hasAVX2FMA, hasAVX512)

// kernelsFor is the kernel table of a host with the given features: the
// AVX2+FMA kernels, with the AVX-512F ones in their place where the host
// has AVX-512F as well.
func kernelsFor(avx2FMA, avx512 bool) (k [17]productKernel) {
	if !avx2FMA {
		return k
	}
	k = fmaKernels
	if avx512 {
		for n, wide := range avx512Kernels {
			if wide.mul != nil {
				k[n] = wide
			}
		}
	}
	return k
}

//go:noescape
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

//go:noescape
func mulInto2FMA(dst, a, b *complex128)

//go:noescape
func mulInto4FMA(dst, a, b *complex128)

//go:noescape
func mulInto8FMA(dst, a, b *complex128)

//go:noescape
func mulInto16FMA(dst, a, b *complex128)

//go:noescape
func mulInto4AVX512(dst, a, b *complex128)

//go:noescape
func mulInto8AVX512(dst, a, b *complex128)

//go:noescape
func combineAVX2(h, t, a, a2, a3 *complex128, n int, ct, c1, c2, c3 float64)

//go:noescape
func sqrtColSums4AVX2(sums *float64, m *complex128)

//go:noescape
func sqrtColSums8AVX2(sums *float64, m *complex128)

//go:noescape
func sqrtColSums16AVX2(sums *float64, m *complex128)

// mulIntoFast runs mulKernel's kernel for a square product, reporting
// whether there was one. Shape checks already ran.
func mulIntoFast(dst, a, b *Matrix) bool {
	n := a.Rows
	if n != a.Cols || b.Cols != b.Rows || n >= len(mulKernel) {
		return false
	}
	mul := mulKernel[n].mul
	if mul == nil {
		return false
	}
	mul(&dst.Data[0], &a.Data[0], &b.Data[0])
	return true
}

// combineParts is combineGeneric on AVX2 when the length is a multiple
// of 4, as it is at dimensions 2, 4, 8 and 16. The kernel multiplies each
// float64 lane by its broadcast coefficient with VMULPD and sums in
// combineGeneric's order with VADDPD, no FMA, so both give one rounding
// per product and per sum and the same bits (DESIGN.md,
// "Paterson–Stockmeyer exponential").
func combineParts(h, t, a, a2, a3 []complex128, ct, c1, c2, c3 float64) {
	n := len(h)
	if !hasAVX2FMA || n == 0 || n%4 != 0 {
		combineGeneric(h, t, a, a2, a3, ct, c1, c2, c3)
		return
	}
	_, _, _, _ = t[n-1], a[n-1], a2[n-1], a3[n-1]
	combineAVX2(&h[0], &t[0], &a[0], &a2[0], &a3[0], n, ct, c1, c2, c3)
}

// sqrtColSums writes the column sums of √(re²+im²) of a square m of
// dimension 4, 8 or 16 into sums[:n], in an order of columns of the
// kernel's choosing, and reports whether it did. Each column sums in row
// order from +0, one rounding per product, sum and root, so every sum
// has sqrtOneNorm's Go-loop bits.
func sqrtColSums(sums *[16]float64, m *Matrix) bool {
	if !hasAVX2FMA || m.Rows != m.Cols {
		return false
	}
	switch m.Rows {
	case 4:
		sqrtColSums4AVX2(&sums[0], &m.Data[0])
	case 8:
		sqrtColSums8AVX2(&sums[0], &m.Data[0])
	case 16:
		sqrtColSums16AVX2(&sums[0], &m.Data[0])
	default:
		return false
	}
	return true
}
