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

// func combineAVX2(h, t, a, a2, a3 *complex128, n int, ct, c1, c2, c3 float64)
//
// One Paterson–Stockmeyer combination over float64 lanes, four complex
// entries (two registers) per iteration; n is a multiple of 4. Each lane
// is ((ct·t + c1·a) + c2·a2) + c3·a3, every product and every sum rounded
// on its own (VMULPD, VADDPD; no FMA), the order of combineGeneric.
//
//   Y0/Y1  running sums   Y2/Y3  products
//   Y12..Y15  broadcast ct, c1, c2, c3
TEXT ·combineAVX2(SB), NOSPLIT, $0-80
	MOVQ         h+0(FP), DI
	MOVQ         t+8(FP), SI
	MOVQ         a+16(FP), R8
	MOVQ         a2+24(FP), R9
	MOVQ         a3+32(FP), R10
	MOVQ         n+40(FP), CX
	VBROADCASTSD ct+48(FP), Y12
	VBROADCASTSD c1+56(FP), Y13
	VBROADCASTSD c2+64(FP), Y14
	VBROADCASTSD c3+72(FP), Y15

combine:
	VMULPD  (SI), Y12, Y0
	VMULPD  32(SI), Y12, Y1
	VMULPD  (R8), Y13, Y2
	VMULPD  32(R8), Y13, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R9), Y14, Y2
	VMULPD  32(R9), Y14, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R10), Y15, Y2
	VMULPD  32(R10), Y15, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, DI
	SUBQ    $4, CX
	JNZ     combine

	VZEROUPPER
	RET
