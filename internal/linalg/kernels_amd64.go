//go:build amd64

package linalg

// AVX2+FMA kernels for the square dimensions the compiler actually
// produces (2/4/8/16: 1/2/3/4-qubit unitary spaces). The matmul kernels
// vectorize across columns only and compute mulIntoGeneric's fused
// chains bit for bit (TestMulKernelsBitIdentical, FuzzMulKernels).

// hasAVX2FMA reports whether the kernels may run: CPUID must report
// AVX2 and FMA3 and the OS must save YMM state. Elsewhere the Go loops
// run, with the same bits (TestNoFMAHostSameBits turns it off).
var hasAVX2FMA = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// The OS must have enabled XMM and YMM state saving in XCR0.
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
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
func combineAVX2(h, t, a, a2, a3 *complex128, n int, ct, c1, c2, c3 float64)

//go:noescape
func sqrtColSums4AVX2(sums *float64, m *complex128)

//go:noescape
func sqrtColSums8AVX2(sums *float64, m *complex128)

//go:noescape
func sqrtColSums16AVX2(sums *float64, m *complex128)

// mulIntoFast dispatches to a specialized kernel when the shapes allow,
// reporting whether it handled the product. Shape checks already ran.
func mulIntoFast(dst, a, b *Matrix) bool {
	if !hasAVX2FMA || a.Rows != a.Cols || b.Cols != b.Rows {
		return false
	}
	switch a.Rows {
	case 2:
		mulInto2FMA(&dst.Data[0], &a.Data[0], &b.Data[0])
	case 4:
		mulInto4FMA(&dst.Data[0], &a.Data[0], &b.Data[0])
	case 8:
		mulInto8FMA(&dst.Data[0], &a.Data[0], &b.Data[0])
	case 16:
		mulInto16FMA(&dst.Data[0], &a.Data[0], &b.Data[0])
	default:
		return false
	}
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
