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
func taylorStepAVX2(sum, term *complex128, n int, r float64) float64

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

// stepTerm is taylorStep on AVX2 when the length is a multiple of 4, as
// every term of dimension 2, 4, 8 or 16 is, and taylorStep otherwise. The
// kernel scales the term by r in place with VMULPD — the two roundings of
// complex(real(v)*r, imag(v)*r) — adds it into sum with VADDPD, and
// returns the largest |re| or |im| of the scaled term. At or above 1e-18
// some entry fails the stopping rule; below 0.5e-18 every entry passes
// it; in between, taylorStep's own rule decides over the scaled term
// (DESIGN.md, "Fused Taylor step").
func stepTerm(sum, t []complex128, r float64) bool {
	if !hasAVX2 || len(t) == 0 || len(t)%4 != 0 {
		return taylorStep(sum, t, r)
	}
	_ = sum[len(t)-1]
	m := taylorStepAVX2(&sum[0], &t[0], len(t), r)
	return m < 0.5e-18 || m < 1e-18 && termConverged(t)
}
