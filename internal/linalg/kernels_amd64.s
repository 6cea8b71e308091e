#include "textflag.h"

// AVX2 complex128 matmul kernels. See kernels_amd64.go for the
// bit-identity contract: vectorization is across columns only, each
// destination element keeps the scalar ascending-k single-accumulator
// chain, av == 0 rows are skipped with the same ==0 semantics (NaN
// never skips, -0 does), and the complex product is VMULPD+VADDSUBPD
// (naive formula, no FMA).
//
// Register plan (shared by all three sizes):
//   Y0..Y7   column-block accumulators for the current output row
//   Y8/Y9    b row block / its re-im swap
//   Y10/Y11  broadcast real(av) / imag(av)
//   X12      zero (for the av == 0 test)
//   X13/X14  av / compare mask

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mulInto4AVX2(dst, a, b *complex128)
TEXT ·mulInto4AVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DX
	VXORPD X12, X12, X12
	MOVQ   $4, R8

row4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   DX, BX
	MOVQ   SI, CX
	MOVQ   $4, R9

k4:
	VMOVUPD   (CX), X13
	VCMPPD    $0, X13, X12, X14
	VMOVMSKPD X14, AX
	CMPQ      AX, $3
	JE        skip4

	VBROADCASTSD (CX), Y10
	VBROADCASTSD 8(CX), Y11

	VMOVUPD   (BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y0, Y0

	VMOVUPD   32(BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y1, Y1

skip4:
	ADDQ $16, CX
	ADDQ $64, BX
	DECQ R9
	JNZ  k4

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	DECQ    R8
	JNZ     row4

	VZEROUPPER
	RET

// func mulInto8AVX2(dst, a, b *complex128)
TEXT ·mulInto8AVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DX
	VXORPD X12, X12, X12
	MOVQ   $8, R8

row8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   DX, BX
	MOVQ   SI, CX
	MOVQ   $8, R9

k8:
	VMOVUPD   (CX), X13
	VCMPPD    $0, X13, X12, X14
	VMOVMSKPD X14, AX
	CMPQ      AX, $3
	JE        skip8

	VBROADCASTSD (CX), Y10
	VBROADCASTSD 8(CX), Y11

	VMOVUPD   (BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y0, Y0

	VMOVUPD   32(BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y1, Y1

	VMOVUPD   64(BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y2, Y2

	VMOVUPD   96(BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y3, Y3

skip8:
	ADDQ $16, CX
	ADDQ $128, BX
	DECQ R9
	JNZ  k8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	DECQ    R8
	JNZ     row8

	VZEROUPPER
	RET

// func mulInto16AVX2(dst, a, b *complex128)
TEXT ·mulInto16AVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DX
	VXORPD X12, X12, X12
	MOVQ   $16, R8

row16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   DX, BX
	MOVQ   SI, CX
	MOVQ   $16, R9

k16:
	VMOVUPD   (CX), X13
	VCMPPD    $0, X13, X12, X14
	VMOVMSKPD X14, AX
	CMPQ      AX, $3
	JE        skip16

	VBROADCASTSD (CX), Y10
	VBROADCASTSD 8(CX), Y11

	VMOVUPD   (BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y0, Y0

	VMOVUPD   32(BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y1, Y1

	VMOVUPD   64(BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y2, Y2

	VMOVUPD   96(BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y3, Y3

	VMOVUPD   128(BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y4, Y4

	VMOVUPD   160(BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y5, Y5

	VMOVUPD   192(BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y6, Y6

	VMOVUPD   224(BX), Y8
	VSHUFPD   $5, Y8, Y8, Y9
	VMULPD    Y8, Y10, Y8
	VMULPD    Y9, Y11, Y9
	VADDSUBPD Y9, Y8, Y8
	VADDPD    Y8, Y7, Y7

skip16:
	ADDQ $16, CX
	ADDQ $256, BX
	DECQ R9
	JNZ  k16

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	DECQ    R8
	JNZ     row16

	VZEROUPPER
	RET

// func taylorStepAVX2(sum, term *complex128, n int, r float64) float64
//
// One Taylor term's pass, four entries (two registers) per iteration;
// n is a multiple of 4. Each part is scaled by r with one VMULPD rounding
// and stored back into term, added into sum with one VADDPD rounding, and
// its |·| folded into two running maxima. VMAXPD returns its second
// source when either operand is NaN, so with the running maximum as that
// source a NaN part is skipped, as taylorStep's comparisons skip it.
//
//   Y0/Y1  scaled term entries   Y2/Y3  new sums
//   Y12/Y13 running maxima       Y14 sign-clearing mask   Y15 broadcast r
TEXT ·taylorStepAVX2(SB), NOSPLIT, $0-40
	MOVQ         sum+0(FP), DI
	MOVQ         term+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD r+24(FP), Y15
	VPCMPEQQ     Y14, Y14, Y14
	VPSRLQ       $1, Y14, Y14
	VXORPD       Y12, Y12, Y12
	VXORPD       Y13, Y13, Y13

step:
	VMULPD  (SI), Y15, Y0
	VMULPD  32(SI), Y15, Y1
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	VADDPD  (DI), Y0, Y2
	VADDPD  32(DI), Y1, Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	VANDPD  Y14, Y0, Y0
	VANDPD  Y14, Y1, Y1
	VMAXPD  Y12, Y0, Y12
	VMAXPD  Y13, Y1, Y13
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $4, CX
	JNZ     step

	VMAXPD       Y13, Y12, Y12
	VEXTRACTF128 $1, Y12, X13
	VMAXPD       X13, X12, X12
	VPERMILPD    $1, X12, X13
	VMAXPD       X13, X12, X12
	VMOVSD       X12, ret+32(FP)
	VZEROUPPER
	RET
