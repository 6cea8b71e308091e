#include "textflag.h"

// AVX2+FMA complex128 matmul kernels. See mulIntoGeneric for the
// contract they compute bit for bit: vectorization is across columns
// only, each destination entry keeps two single-accumulator chains over
// ascending k, and av == 0 rows are skipped with the same == 0 semantics
// (NaN never skips, −0 does). Per column block and k, P += re(av)·b and
// Q += im(av)·b are one VFMADD231PD each; Q holds the second chain with
// its parts swapped, (Σ im a·re b, Σ im a·im b), so the inner loop needs
// no shuffle. At row end VPERMILPD swaps Q back and VADDSUBPD forms
// (P.re − Q.re, P.im + Q.im).
//
// Register plan (2×2, 8×8 and 16×16; 4×4 has its own below):
//   Y0..Y3   P, one column block (two entries) each
//   Y4..Y7   Q, the same blocks
//   Y8       b row block
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

// func mulInto2FMA(dst, a, b *complex128)
TEXT ·mulInto2FMA(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DX
	VXORPD X12, X12, X12
	MOVQ   $2, R8

row2:
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4
	MOVQ   DX, BX
	MOVQ   SI, CX
	MOVQ   $2, R9

k2:
	VMOVUPD   (CX), X13
	VCMPPD    $0, X13, X12, X14
	VMOVMSKPD X14, AX
	CMPQ      AX, $3
	JE        skip2

	VBROADCASTSD (CX), Y10
	VBROADCASTSD 8(CX), Y11

	VMOVUPD     (BX), Y8
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y8, Y11, Y4

skip2:
	ADDQ $16, CX
	ADDQ $32, BX
	DECQ R9
	JNZ  k2

	VPERMILPD $5, Y4, Y4
	VADDSUBPD Y4, Y0, Y0
	VMOVUPD   Y0, (DI)
	ADDQ      $32, DI
	ADDQ      $32, SI
	DECQ      R8
	JNZ       row2

	VZEROUPPER
	RET

// func mulInto4FMA(dst, a, b *complex128)
//
// One row holds four accumulators, one FMA latency per k apart, so the
// 4×4 kernel runs rows in pairs: row r in Y0..Y3 and row r+1 in Y4..Y7
// (P blocks, then Q blocks), each with its own av == 0 test, sharing
// b's row in Y8/Y9. Row r+1's broadcasts are Y12/Y13, its compare uses
// X14 against the zero in X15.
TEXT ·mulInto4FMA(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DX
	VXORPD X15, X15, X15
	MOVQ   $2, R8

rows4:
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
	MOVQ   $4, R9

k4:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9

	VMOVUPD   (CX), X14
	VCMPPD    $0, X14, X15, X14
	VMOVMSKPD X14, AX
	CMPQ      AX, $3
	JE        skip4r0

	VBROADCASTSD (CX), Y10
	VBROADCASTSD 8(CX), Y11
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y9, Y11, Y3

skip4r0:
	VMOVUPD   64(CX), X14
	VCMPPD    $0, X14, X15, X14
	VMOVMSKPD X14, AX
	CMPQ      AX, $3
	JE        skip4r1

	VBROADCASTSD 64(CX), Y12
	VBROADCASTSD 72(CX), Y13
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y9, Y13, Y7

skip4r1:
	ADDQ $16, CX
	ADDQ $64, BX
	DECQ R9
	JNZ  k4

	VPERMILPD $5, Y2, Y2
	VADDSUBPD Y2, Y0, Y0
	VMOVUPD   Y0, (DI)
	VPERMILPD $5, Y3, Y3
	VADDSUBPD Y3, Y1, Y1
	VMOVUPD   Y1, 32(DI)
	VPERMILPD $5, Y6, Y6
	VADDSUBPD Y6, Y4, Y4
	VMOVUPD   Y4, 64(DI)
	VPERMILPD $5, Y7, Y7
	VADDSUBPD Y7, Y5, Y5
	VMOVUPD   Y5, 96(DI)
	ADDQ      $128, DI
	ADDQ      $128, SI
	DECQ      R8
	JNZ       rows4

	VZEROUPPER
	RET

// func mulInto8FMA(dst, a, b *complex128)
TEXT ·mulInto8FMA(SB), NOSPLIT, $0-24
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
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
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

	VMOVUPD     (BX), Y8
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y8, Y11, Y4
	VMOVUPD     32(BX), Y8
	VFMADD231PD Y8, Y10, Y1
	VFMADD231PD Y8, Y11, Y5
	VMOVUPD     64(BX), Y8
	VFMADD231PD Y8, Y10, Y2
	VFMADD231PD Y8, Y11, Y6
	VMOVUPD     96(BX), Y8
	VFMADD231PD Y8, Y10, Y3
	VFMADD231PD Y8, Y11, Y7

skip8:
	ADDQ $16, CX
	ADDQ $128, BX
	DECQ R9
	JNZ  k8

	VPERMILPD $5, Y4, Y4
	VADDSUBPD Y4, Y0, Y0
	VMOVUPD   Y0, (DI)
	VPERMILPD $5, Y5, Y5
	VADDSUBPD Y5, Y1, Y1
	VMOVUPD   Y1, 32(DI)
	VPERMILPD $5, Y6, Y6
	VADDSUBPD Y6, Y2, Y2
	VMOVUPD   Y2, 64(DI)
	VPERMILPD $5, Y7, Y7
	VADDSUBPD Y7, Y3, Y3
	VMOVUPD   Y3, 96(DI)
	ADDQ      $128, DI
	ADDQ      $128, SI
	DECQ      R8
	JNZ       row8

	VZEROUPPER
	RET

// func mulInto16FMA(dst, a, b *complex128)
//
// The sixteen P and Q registers of a whole row would leave none for
// the broadcasts, so each row runs as two halves of eight columns,
// each half with its own pass over k.
TEXT ·mulInto16FMA(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DX
	VXORPD X12, X12, X12
	MOVQ   $16, R8

row16:
	MOVQ DX, R10 // b's first column of this half
	MOVQ $2, R11

half16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R10, BX
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

	VMOVUPD     (BX), Y8
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y8, Y11, Y4
	VMOVUPD     32(BX), Y8
	VFMADD231PD Y8, Y10, Y1
	VFMADD231PD Y8, Y11, Y5
	VMOVUPD     64(BX), Y8
	VFMADD231PD Y8, Y10, Y2
	VFMADD231PD Y8, Y11, Y6
	VMOVUPD     96(BX), Y8
	VFMADD231PD Y8, Y10, Y3
	VFMADD231PD Y8, Y11, Y7

skip16:
	ADDQ $16, CX
	ADDQ $256, BX
	DECQ R9
	JNZ  k16

	VPERMILPD $5, Y4, Y4
	VADDSUBPD Y4, Y0, Y0
	VMOVUPD   Y0, (DI)
	VPERMILPD $5, Y5, Y5
	VADDSUBPD Y5, Y1, Y1
	VMOVUPD   Y1, 32(DI)
	VPERMILPD $5, Y6, Y6
	VADDSUBPD Y6, Y2, Y2
	VMOVUPD   Y2, 64(DI)
	VPERMILPD $5, Y7, Y7
	VADDSUBPD Y7, Y3, Y3
	VMOVUPD   Y3, 96(DI)
	ADDQ      $128, DI
	ADDQ      $128, R10
	DECQ      R11
	JNZ       half16

	ADDQ $256, SI
	DECQ R8
	JNZ  row16

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

// The squaring count's column sums, for sqrtOneNorm at dimensions 4, 8
// and 16. One pass per row: for each group of four columns, VMULPD
// squares the parts, VHADDPD adds re² + im² within each entry, VSQRTPD
// takes the four moduli and VADDPD adds them to that group's
// accumulator, so each column sums its moduli in row order from +0 with
// one rounding per product, sum and root, as the Go loop does. VHADDPD
// interleaves two registers' entries, so a group's sums come out as
// columns 0, 2, 1, 3; only their maximum is read.
//
//   Y0..Y3  one accumulator per group of four columns
//   Y4..Y11 row entries, their squares and moduli

// func sqrtColSums4AVX2(sums *float64, m *complex128)
TEXT ·sqrtColSums4AVX2(SB), NOSPLIT, $0-16
	MOVQ sums+0(FP), DI
	MOVQ m+8(FP), SI
	VXORPD Y0, Y0, Y0
	MOVQ $4, R8

rows4:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMULPD  Y4, Y4, Y4
	VMULPD  Y5, Y5, Y5
	VHADDPD Y5, Y4, Y4
	VSQRTPD Y4, Y4
	VADDPD  Y4, Y0, Y0
	ADDQ $64, SI
	DECQ R8
	JNZ  rows4

	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func sqrtColSums8AVX2(sums *float64, m *complex128)
TEXT ·sqrtColSums8AVX2(SB), NOSPLIT, $0-16
	MOVQ sums+0(FP), DI
	MOVQ m+8(FP), SI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ $8, R8

rows8:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMULPD  Y4, Y4, Y4
	VMULPD  Y5, Y5, Y5
	VHADDPD Y5, Y4, Y4
	VSQRTPD Y4, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VHADDPD Y7, Y6, Y6
	VSQRTPD Y6, Y6
	VADDPD  Y6, Y1, Y1
	ADDQ $128, SI
	DECQ R8
	JNZ  rows8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func sqrtColSums16AVX2(sums *float64, m *complex128)
TEXT ·sqrtColSums16AVX2(SB), NOSPLIT, $0-16
	MOVQ sums+0(FP), DI
	MOVQ m+8(FP), SI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ $16, R8

rows16:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMULPD  Y4, Y4, Y4
	VMULPD  Y5, Y5, Y5
	VHADDPD Y5, Y4, Y4
	VSQRTPD Y4, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VHADDPD Y7, Y6, Y6
	VSQRTPD Y6, Y6
	VADDPD  Y6, Y1, Y1
	VMOVUPD 128(SI), Y8
	VMOVUPD 160(SI), Y9
	VMULPD  Y8, Y8, Y8
	VMULPD  Y9, Y9, Y9
	VHADDPD Y9, Y8, Y8
	VSQRTPD Y8, Y8
	VADDPD  Y8, Y2, Y2
	VMOVUPD 192(SI), Y10
	VMOVUPD 224(SI), Y11
	VMULPD  Y10, Y10, Y10
	VMULPD  Y11, Y11, Y11
	VHADDPD Y11, Y10, Y10
	VSQRTPD Y10, Y10
	VADDPD  Y10, Y3, Y3
	ADDQ $256, SI
	DECQ R8
	JNZ  rows16

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// AVX-512F kernels for 4×4 and 8×8, with the contract above bit for bit:
// the same chains over ascending k, one ZMM register (four entries) per
// column block. There is no 512-bit VADDSUBPD, so the row end computes
// (P.re − Q.re, P.im + Q.im) as VFMADDSUB231PD of P, a vector of ones and
// the swapped Q: P·1 is exact, so each lane is P ∓ Q rounded once, the
// value and the sign of zero that VADDSUBPD gives. The av == 0 test runs
// on the integer side, off the vector ports the FMAs use: av is ±0 in
// both parts exactly when the OR of their bits, shifted left by one to
// drop both signs, is zero (NaN never is).
//
// Every instruction beyond AVX2/FMA is AVX-512F: the accumulators clear
// with VPXORQ, since the 512-bit VXORPD is AVX-512DQ. The kernels use only
// Z0..Z15, all of which VZEROUPPER clears, so no 512-bit state outlives a
// call.
//
//   Z0..Z7   P and Q accumulators
//   Z8/Z9    b row blocks
//   Z10/Z11  broadcast real(av) / imag(av)
//   Z12      ones

// func mulInto4AVX512(dst, a, b *complex128)
//
// One pass for all four rows: row r's P in Z(r), its Q in Z(r+4), one
// FMA latency of independent accumulators per k.
TEXT ·mulInto4AVX512(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         $0x3ff0000000000000, AX
	VPBROADCASTQ AX, Z12
	VPXORQ       Z0, Z0, Z0
	VPXORQ       Z1, Z1, Z1
	VPXORQ       Z2, Z2, Z2
	VPXORQ       Z3, Z3, Z3
	VPXORQ       Z4, Z4, Z4
	VPXORQ       Z5, Z5, Z5
	VPXORQ       Z6, Z6, Z6
	VPXORQ       Z7, Z7, Z7
	MOVQ         $4, R9

k4x512:
	VMOVUPD (DX), Z8

	MOVQ (SI), AX
	ORQ  8(SI), AX
	ADDQ AX, AX
	JEQ  skip4x512r0
	VBROADCASTSD (SI), Z10
	VBROADCASTSD 8(SI), Z11
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z8, Z11, Z4

skip4x512r0:
	MOVQ 64(SI), AX
	ORQ  72(SI), AX
	ADDQ AX, AX
	JEQ  skip4x512r1
	VBROADCASTSD 64(SI), Z10
	VBROADCASTSD 72(SI), Z11
	VFMADD231PD  Z8, Z10, Z1
	VFMADD231PD  Z8, Z11, Z5

skip4x512r1:
	MOVQ 128(SI), AX
	ORQ  136(SI), AX
	ADDQ AX, AX
	JEQ  skip4x512r2
	VBROADCASTSD 128(SI), Z10
	VBROADCASTSD 136(SI), Z11
	VFMADD231PD  Z8, Z10, Z2
	VFMADD231PD  Z8, Z11, Z6

skip4x512r2:
	MOVQ 192(SI), AX
	ORQ  200(SI), AX
	ADDQ AX, AX
	JEQ  skip4x512r3
	VBROADCASTSD 192(SI), Z10
	VBROADCASTSD 200(SI), Z11
	VFMADD231PD  Z8, Z10, Z3
	VFMADD231PD  Z8, Z11, Z7

skip4x512r3:
	ADDQ $16, SI
	ADDQ $64, DX
	DECQ R9
	JNZ  k4x512

	VPERMILPD      $0x55, Z4, Z4
	VFMADDSUB231PD Z12, Z0, Z4
	VMOVUPD        Z4, (DI)
	VPERMILPD      $0x55, Z5, Z5
	VFMADDSUB231PD Z12, Z1, Z5
	VMOVUPD        Z5, 64(DI)
	VPERMILPD      $0x55, Z6, Z6
	VFMADDSUB231PD Z12, Z2, Z6
	VMOVUPD        Z6, 128(DI)
	VPERMILPD      $0x55, Z7, Z7
	VFMADDSUB231PD Z12, Z3, Z7
	VMOVUPD        Z7, 192(DI)

	VZEROUPPER
	RET

// func mulInto8AVX512(dst, a, b *complex128)
//
// Rows run in pairs, each pass sharing b's row k (Z8/Z9) between them:
// row r's P blocks in Z0/Z1 and Q blocks in Z2/Z3, row r+1's in Z4/Z5
// and Z6/Z7.
TEXT ·mulInto8AVX512(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         $0x3ff0000000000000, AX
	VPBROADCASTQ AX, Z12
	MOVQ         $4, R8

rows8x512:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   DX, BX
	MOVQ   SI, CX
	MOVQ   $8, R9

k8x512:
	VMOVUPD (BX), Z8
	VMOVUPD 64(BX), Z9

	MOVQ (CX), AX
	ORQ  8(CX), AX
	ADDQ AX, AX
	JEQ  skip8x512r0
	VBROADCASTSD (CX), Z10
	VBROADCASTSD 8(CX), Z11
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z8, Z11, Z2
	VFMADD231PD  Z9, Z10, Z1
	VFMADD231PD  Z9, Z11, Z3

skip8x512r0:
	MOVQ 128(CX), AX
	ORQ  136(CX), AX
	ADDQ AX, AX
	JEQ  skip8x512r1
	VBROADCASTSD 128(CX), Z10
	VBROADCASTSD 136(CX), Z11
	VFMADD231PD  Z8, Z10, Z4
	VFMADD231PD  Z8, Z11, Z6
	VFMADD231PD  Z9, Z10, Z5
	VFMADD231PD  Z9, Z11, Z7

skip8x512r1:
	ADDQ $16, CX
	ADDQ $128, BX
	DECQ R9
	JNZ  k8x512

	VPERMILPD      $0x55, Z2, Z2
	VFMADDSUB231PD Z12, Z0, Z2
	VMOVUPD        Z2, (DI)
	VPERMILPD      $0x55, Z3, Z3
	VFMADDSUB231PD Z12, Z1, Z3
	VMOVUPD        Z3, 64(DI)
	VPERMILPD      $0x55, Z6, Z6
	VFMADDSUB231PD Z12, Z4, Z6
	VMOVUPD        Z6, 128(DI)
	VPERMILPD      $0x55, Z7, Z7
	VFMADDSUB231PD Z12, Z5, Z7
	VMOVUPD        Z7, 192(DI)
	ADDQ           $256, DI
	ADDQ           $256, SI
	DECQ           R8
	JNZ            rows8x512

	VZEROUPPER
	RET
