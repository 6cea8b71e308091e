//go:build amd64

package linalg

// AVX2 matmul kernels for the square dimensions the compiler actually
// produces (4/8/16: 2/3/4-qubit unitary spaces). The assembly vectorizes
// across *columns* only: every dst element still accumulates av*bv in
// ascending k with a single accumulator, rows with av == 0 are skipped,
// and the complex product is the naive (ar·br−ai·bi, ar·bi+ai·br)
// formula via VMULPD+VADDSUBPD with no FMA contraction — so every
// intermediate rounding matches the scalar kernel and results are
// bit-identical to mulIntoGeneric. TestMulKernelsBitIdentical pins this.

var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
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
func mulInto4AVX2(dst, a, b *complex128)

//go:noescape
func mulInto8AVX2(dst, a, b *complex128)

//go:noescape
func mulInto16AVX2(dst, a, b *complex128)

//go:noescape
func combineAVX2(h, t, a, a2, a3 *complex128, n int, ct, c1, c2, c3 float64)

// mulIntoFast dispatches to a specialized kernel when the shapes allow,
// reporting whether it handled the product. Shape checks already ran.
func mulIntoFast(dst, a, b *Matrix) bool {
	if !hasAVX2 || a.Rows != a.Cols || b.Cols != b.Rows {
		return false
	}
	switch a.Rows {
	case 4:
		mulInto4AVX2(&dst.Data[0], &a.Data[0], &b.Data[0])
	case 8:
		mulInto8AVX2(&dst.Data[0], &a.Data[0], &b.Data[0])
	case 16:
		mulInto16AVX2(&dst.Data[0], &a.Data[0], &b.Data[0])
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
	if !hasAVX2 || n == 0 || n%4 != 0 {
		combineGeneric(h, t, a, a2, a3, ct, c1, c2, c3)
		return
	}
	_, _, _, _ = t[n-1], a[n-1], a2[n-1], a3[n-1]
	combineAVX2(&h[0], &t[0], &a[0], &a2[0], &a3[0], n, ct, c1, c2, c3)
}
