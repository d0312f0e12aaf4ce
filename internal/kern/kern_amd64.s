// AVX2 bodies for the primitives of kern.go. Each computes exactly what its
// scalar body does: every lane runs the scalar chain s += a·b as VMULPS then
// VADDPS (never a fused multiply-add), one accumulator per output element,
// in increasing index order, under the same MXCSR — so results match the
// scalar Go bit for bit. Y15 is left alone (Go's ABIInternal zero register).
//
// Axpy and AxpyRuns end each row with a 4/2/1 tail of plain loads and
// stores. A VMASKMOVPS tail measured 2-3x slower at 4- to 15-float rows: a
// masked store does not forward to the next load of the same floats, and
// the engines accumulate into the same rows call after call.

#include "textflag.h"

// func cpuAVX2() bool
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID                      // EAX = highest basic leaf
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID                      // leaf 1: ECX.OSXSAVE[27], ECX.AVX[28]
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV                     // XCR0: XMM[1] and YMM[2] state enabled
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID                      // leaf 7.0: EBX.AVX2[5]
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)

no:
	RET

// func axpyAVX2(dst, src []float32, a float32)
//
// dst[i] += a·src[i] for i < min(len(dst), len(src)): 32 floats per
// iteration, then 8, then a 4/2/1 tail.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX
	VBROADCASTSS a+48(FP), Y0
	CMPQ         CX, $32
	JLT          axpy8

axpy32:
	VMULPS  (SI), Y0, Y1
	VMULPS  32(SI), Y0, Y2
	VMULPS  64(SI), Y0, Y3
	VMULPS  96(SI), Y0, Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     axpy32

axpy8:
	CMPQ CX, $8
	JLT  axpytail

axpy8loop:
	VMULPS  (SI), Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     axpy8loop

axpytail:
	TESTQ   $4, CX
	JEQ     axpy2
	VMULPS  (SI), X0, X1
	VADDPS  (DI), X1, X1
	VMOVUPS X1, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI

axpy2:
	TESTQ   $2, CX
	JEQ     axpy1
	VMOVSD  (SI), X1
	VMOVSD  (DI), X2
	VMULPS  X1, X0, X1
	VADDPS  X2, X1, X1
	VMOVSD  X1, (DI)
	ADDQ    $8, SI
	ADDQ    $8, DI

axpy1:
	TESTQ   $1, CX
	JEQ     axpydone
	VMULSS  (SI), X0, X1
	VADDSS  (DI), X1, X1
	VMOVSS  X1, (DI)

axpydone:
	VZEROUPPER
	RET

// func axpyRunsAVX2(dst, src []float32, a float32, n, dstStride, srcStride int)
//
// The whole multi-run walk of AxpyRuns in one call. Each run is n/8 vectors
// and a 4/2/1 tail; the run count falls out of the length checks, with no
// division.
TEXT ·axpyRunsAVX2(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), R8
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), R9
	VBROADCASTSS a+48(FP), Y0
	MOVQ         n+56(FP), CX
	MOVQ         dstStride+64(FP), R10
	MOVQ         srcStride+72(FP), R11
	TESTQ        CX, CX
	JLE          runsdone
	MOVQ         CX, DX
	SHRQ         $3, DX                // DX = whole vectors per run

run:
	CMPQ R8, CX
	JLT  runsdone                   // len(dst) < n
	CMPQ R9, CX
	JLT  runsdone                   // len(src) < n
	XORQ AX, AX                     // byte offset into the run
	MOVQ DX, BX
	TESTQ BX, BX
	JEQ  runtail

runvec:
	VMOVUPS (SI)(AX*1), Y1
	VMULPS  Y1, Y0, Y1
	VADDPS  (DI)(AX*1), Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    BX
	JNE     runvec

runtail:
	TESTQ   $4, CX
	JEQ     run2
	VMULPS  (SI)(AX*1), X0, X1
	VADDPS  (DI)(AX*1), X1, X1
	VMOVUPS X1, (DI)(AX*1)
	ADDQ    $16, AX

run2:
	TESTQ   $2, CX
	JEQ     run1
	VMOVSD  (SI)(AX*1), X1
	VMOVSD  (DI)(AX*1), X2
	VMULPS  X1, X0, X1
	VADDPS  X2, X1, X1
	VMOVSD  X1, (DI)(AX*1)
	ADDQ    $8, AX

run1:
	TESTQ   $1, CX
	JEQ     runnext
	VMULSS  (SI)(AX*1), X0, X1
	VADDSS  (DI)(AX*1), X1, X1
	VMOVSS  X1, (DI)(AX*1)

runnext:
	// A stride <= 0, or one past the end of its side, ends the walk.
	TESTQ R10, R10
	JLE   runsdone
	TESTQ R11, R11
	JLE   runsdone
	CMPQ  R10, R8
	JGT   runsdone
	CMPQ  R11, R9
	JGT   runsdone
	LEAQ  (DI)(R10*4), DI
	SUBQ  R10, R8
	LEAQ  (SI)(R11*4), SI
	SUBQ  R11, R9
	JMP   run

runsdone:
	VZEROUPPER
	RET

// func dot8AVX2(a, bp []float32) (s0, s1, s2, s3, s4, s5, s6, s7 float32)
//
// One ymm accumulator, lane c = s_c: broadcast a[k], multiply by the
// panel row bp[8k:8k+8], add. The k loop is unrolled 4x.
TEXT ·dot8AVX2(SB), NOSPLIT, $0-80
	MOVQ    a_base+0(FP), SI
	MOVQ    a_len+8(FP), CX
	MOVQ    bp_base+24(FP), DI
	MOVQ    bp_len+32(FP), AX
	SHRQ    $3, AX
	CMPQ    AX, CX
	CMOVQLT AX, CX                  // CX = min(len(a), len(bp)/8)
	VXORPS  Y0, Y0, Y0
	CMPQ    CX, $4
	JLT     dot8tail

dot8loop4:
	VBROADCASTSS (SI), Y1
	VMULPS       (DI), Y1, Y1
	VADDPS       Y1, Y0, Y0
	VBROADCASTSS 4(SI), Y2
	VMULPS       32(DI), Y2, Y2
	VADDPS       Y2, Y0, Y0
	VBROADCASTSS 8(SI), Y3
	VMULPS       64(DI), Y3, Y3
	VADDPS       Y3, Y0, Y0
	VBROADCASTSS 12(SI), Y4
	VMULPS       96(DI), Y4, Y4
	VADDPS       Y4, Y0, Y0
	ADDQ         $16, SI
	ADDQ         $128, DI
	SUBQ         $4, CX
	CMPQ         CX, $4
	JGE          dot8loop4

dot8tail:
	TESTQ CX, CX
	JEQ   dot8done

dot8loop1:
	VBROADCASTSS (SI), Y1
	VMULPS       (DI), Y1, Y1
	VADDPS       Y1, Y0, Y0
	ADDQ         $4, SI
	ADDQ         $32, DI
	DECQ         CX
	JNE          dot8loop1

dot8done:
	VMOVUPS Y0, s0+48(FP)
	VZEROUPPER
	RET

// func dot8x4AVX2(s *[4][8]float32, a0, a1, a2, a3, bp []float32)
//
// Four ymm accumulators, one per row, share each panel row load; the four
// chains are independent, so the adds pipeline. The k loop is unrolled 2x.
TEXT ·dot8x4AVX2(SB), NOSPLIT, $0-128
	MOVQ    a0_base+8(FP), R8
	MOVQ    a0_len+16(FP), CX
	MOVQ    a1_base+32(FP), R9
	MOVQ    a1_len+40(FP), AX
	CMPQ    AX, CX
	CMOVQLT AX, CX
	MOVQ    a2_base+56(FP), R10
	MOVQ    a2_len+64(FP), AX
	CMPQ    AX, CX
	CMOVQLT AX, CX
	MOVQ    a3_base+80(FP), R11
	MOVQ    a3_len+88(FP), AX
	CMPQ    AX, CX
	CMOVQLT AX, CX
	MOVQ    bp_base+104(FP), SI
	MOVQ    bp_len+112(FP), AX
	SHRQ    $3, AX
	CMPQ    AX, CX
	CMOVQLT AX, CX                  // CX = K
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	XORQ    BX, BX                  // byte offset into each row
	CMPQ    CX, $2
	JLT     x4tail

x4loop2:
	VMOVUPS      (SI), Y4
	VBROADCASTSS (R8)(BX*1), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS (R9)(BX*1), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS (R10)(BX*1), Y7
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS (R11)(BX*1), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3
	VMOVUPS      32(SI), Y9
	VBROADCASTSS 4(R8)(BX*1), Y10
	VMULPS       Y9, Y10, Y10
	VADDPS       Y10, Y0, Y0
	VBROADCASTSS 4(R9)(BX*1), Y11
	VMULPS       Y9, Y11, Y11
	VADDPS       Y11, Y1, Y1
	VBROADCASTSS 4(R10)(BX*1), Y12
	VMULPS       Y9, Y12, Y12
	VADDPS       Y12, Y2, Y2
	VBROADCASTSS 4(R11)(BX*1), Y13
	VMULPS       Y9, Y13, Y13
	VADDPS       Y13, Y3, Y3
	ADDQ         $8, BX
	ADDQ         $64, SI
	SUBQ         $2, CX
	CMPQ         CX, $2
	JGE          x4loop2

x4tail:
	TESTQ        CX, CX
	JEQ          x4done
	VMOVUPS      (SI), Y4
	VBROADCASTSS (R8)(BX*1), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS (R9)(BX*1), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS (R10)(BX*1), Y7
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS (R11)(BX*1), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3

x4done:
	MOVQ    s+0(FP), DI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func dot8x4SegAVX2(dst []float32, stride int, a0, a1, a2, a3, bp []float32, seg int)
//
// dst is cut to the block. Y0..Y3 hold the block's rows (at DI, R12 =
// stride·4 bytes apart) for the whole call. Each segment sums its fresh
// dot in Y4..Y7 as dot8x4AVX2 does (four chains, the step loop unrolled
// 2x), and Y0..Y3 then add it. BX is the byte offset into each row, R13
// the steps left in the segment, CX the rows left in the call.
TEXT ·dot8x4SegAVX2(SB), NOSPLIT, $0-160
	MOVQ         a0_base+32(FP), R8
	MOVQ         a0_len+40(FP), CX
	MOVQ         a1_base+56(FP), R9
	MOVQ         a1_len+64(FP), AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX
	MOVQ         a2_base+80(FP), R10
	MOVQ         a2_len+88(FP), AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX
	MOVQ         a3_base+104(FP), R11
	MOVQ         a3_len+112(FP), AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX
	MOVQ         bp_base+128(FP), SI
	MOVQ         bp_len+136(FP), AX
	SHRQ         $3, AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX                    // CX = K
	MOVQ         seg+152(FP), DX
	TESTQ        DX, DX
	JLE          segret
	CMPQ         CX, DX
	JLT          segret                    // no whole segment: the block is unchanged
	MOVQ         dst_base+0(FP), DI
	MOVQ         stride+24(FP), R12
	SHLQ         $2, R12
	LEAQ         (R12)(R12*2), AX          // AX = 3·stride·4
	VMOVUPS      (DI), Y0
	VMOVUPS      (DI)(R12*1), Y1
	VMOVUPS      (DI)(R12*2), Y2
	VMOVUPS      (DI)(AX*1), Y3
	XORQ         BX, BX

segnext:
	SUBQ         DX, CX
	VXORPS       Y4, Y4, Y4
	VXORPS       Y5, Y5, Y5
	VXORPS       Y6, Y6, Y6
	VXORPS       Y7, Y7, Y7
	MOVQ         DX, R13
	CMPQ         R13, $2
	JLT          segtail

segloop2:
	VMOVUPS      (SI), Y8
	VBROADCASTSS (R8)(BX*1), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y4, Y4
	VBROADCASTSS (R9)(BX*1), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y5, Y5
	VBROADCASTSS (R10)(BX*1), Y11
	VMULPS       Y8, Y11, Y11
	VADDPS       Y11, Y6, Y6
	VBROADCASTSS (R11)(BX*1), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y7, Y7
	VMOVUPS      32(SI), Y13
	VBROADCASTSS 4(R8)(BX*1), Y9
	VMULPS       Y13, Y9, Y9
	VADDPS       Y9, Y4, Y4
	VBROADCASTSS 4(R9)(BX*1), Y10
	VMULPS       Y13, Y10, Y10
	VADDPS       Y10, Y5, Y5
	VBROADCASTSS 4(R10)(BX*1), Y11
	VMULPS       Y13, Y11, Y11
	VADDPS       Y11, Y6, Y6
	VBROADCASTSS 4(R11)(BX*1), Y12
	VMULPS       Y13, Y12, Y12
	VADDPS       Y12, Y7, Y7
	ADDQ         $8, BX
	ADDQ         $64, SI
	SUBQ         $2, R13
	CMPQ         R13, $2
	JGE          segloop2

segtail:
	TESTQ        R13, R13
	JEQ          segadd
	VMOVUPS      (SI), Y8
	VBROADCASTSS (R8)(BX*1), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y4, Y4
	VBROADCASTSS (R9)(BX*1), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y5, Y5
	VBROADCASTSS (R10)(BX*1), Y11
	VMULPS       Y8, Y11, Y11
	VADDPS       Y11, Y6, Y6
	VBROADCASTSS (R11)(BX*1), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y7, Y7
	ADDQ         $4, BX
	ADDQ         $32, SI

segadd:
	VADDPS       Y4, Y0, Y0
	VADDPS       Y5, Y1, Y1
	VADDPS       Y6, Y2, Y2
	VADDPS       Y7, Y3, Y3
	CMPQ         CX, DX
	JGE          segnext
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, (DI)(R12*1)
	VMOVUPS      Y2, (DI)(R12*2)
	VMOVUPS      Y3, (DI)(AX*1)
	VZEROUPPER

segret:
	RET

// func nonZerosAVX2(idx []int32, x []float32) int
//
// x is already cut to len(idx). 32 floats per iteration: four compares
// against zero (NEQ_UQ: true for NaN, false for ±0), their movemasks
// joined into one 32-bit mask, and one index store per set bit, lowest
// first; then 8 at a time; then a scalar tail testing the bits below the
// sign. A zero block costs its compares and one branch.
TEXT ·nonZerosAVX2(SB), NOSPLIT, $0-56
	MOVQ   idx_base+0(FP), DI
	MOVQ   x_base+24(FP), SI
	MOVQ   x_len+32(FP), CX
	XORQ   AX, AX                   // indices written
	XORQ   BX, BX                   // index of the block's first float
	VXORPS Y0, Y0, Y0
	CMPQ   CX, $32
	JLT    nz8

nz32:
	VCMPPS    $4, (SI), Y0, Y1
	VCMPPS    $4, 32(SI), Y0, Y2
	VCMPPS    $4, 64(SI), Y0, Y3
	VCMPPS    $4, 96(SI), Y0, Y4
	VMOVMSKPS Y1, DX
	VMOVMSKPS Y2, R8
	VMOVMSKPS Y3, R9
	VMOVMSKPS Y4, R10
	SHLL      $8, R8
	SHLL      $16, R9
	SHLL      $24, R10
	ORL       R8, DX
	ORL       R9, DX
	ORL       R10, DX
	JEQ       nz32next

nz32bits:
	BSFL DX, R8
	LEAQ (BX)(R8*1), R9
	MOVL R9, (DI)(AX*4)
	INCQ AX
	LEAL -1(DX), R8
	ANDL R8, DX                     // clear the lowest set bit
	JNE  nz32bits

nz32next:
	ADDQ $128, SI
	ADDQ $32, BX
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  nz32

nz8:
	CMPQ CX, $8
	JLT  nztail

nz8loop:
	VCMPPS    $4, (SI), Y0, Y1
	VMOVMSKPS Y1, DX
	TESTL     DX, DX
	JEQ       nz8next

nz8bits:
	BSFL DX, R8
	LEAQ (BX)(R8*1), R9
	MOVL R9, (DI)(AX*4)
	INCQ AX
	LEAL -1(DX), R8
	ANDL R8, DX
	JNE  nz8bits

nz8next:
	ADDQ $32, SI
	ADDQ $8, BX
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  nz8loop

nztail:
	TESTQ CX, CX
	JEQ   nzdone

nztailloop:
	MOVL  (SI), DX
	ANDL  $0x7fffffff, DX           // zero exactly for ±0
	JEQ   nztailnext
	MOVL  BX, (DI)(AX*4)
	INCQ  AX

nztailnext:
	ADDQ $4, SI
	INCQ BX
	DECQ CX
	JNE  nztailloop

nzdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func axpyBlockAVX2(dst, src, vals []float32, offs []int32, slots *blockSlots, k, limit int)
//
// The held block: Y0..Y(k-1) load the block's k vectors once (vector s at
// byte offset slots.dst[s] of dst), every list entry adds vals[p] times
// the k window vectors at src + 4·offs[p] + slots.src[s], and the block is
// stored once. The unrolled slot sequence leaves after slot k-1; the exit
// branches take the same way for the whole walk. An offset above limit
// (negative ones included, compared unsigned) ends the walk. Y12 holds the
// broadcast value, Y13 the product.
TEXT ·axpyBlockAVX2(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ vals_base+48(FP), R8
	MOVQ vals_len+56(FP), CX
	MOVQ offs_base+72(FP), R9
	MOVQ slots+96(FP), R10
	MOVQ k+104(FP), DX
	MOVQ limit+112(FP), R11

	MOVQ    96(R10), R12
	VMOVUPS (DI)(R12*1), Y0
	CMPQ    DX, $1
	JEQ     blkwalk
	MOVQ    104(R10), R12
	VMOVUPS (DI)(R12*1), Y1
	CMPQ    DX, $2
	JEQ     blkwalk
	MOVQ    112(R10), R12
	VMOVUPS (DI)(R12*1), Y2
	CMPQ    DX, $3
	JEQ     blkwalk
	MOVQ    120(R10), R12
	VMOVUPS (DI)(R12*1), Y3
	CMPQ    DX, $4
	JEQ     blkwalk
	MOVQ    128(R10), R12
	VMOVUPS (DI)(R12*1), Y4
	CMPQ    DX, $5
	JEQ     blkwalk
	MOVQ    136(R10), R12
	VMOVUPS (DI)(R12*1), Y5
	CMPQ    DX, $6
	JEQ     blkwalk
	MOVQ    144(R10), R12
	VMOVUPS (DI)(R12*1), Y6
	CMPQ    DX, $7
	JEQ     blkwalk
	MOVQ    152(R10), R12
	VMOVUPS (DI)(R12*1), Y7
	CMPQ    DX, $8
	JEQ     blkwalk
	MOVQ    160(R10), R12
	VMOVUPS (DI)(R12*1), Y8
	CMPQ    DX, $9
	JEQ     blkwalk
	MOVQ    168(R10), R12
	VMOVUPS (DI)(R12*1), Y9
	CMPQ    DX, $10
	JEQ     blkwalk
	MOVQ    176(R10), R12
	VMOVUPS (DI)(R12*1), Y10
	CMPQ    DX, $11
	JEQ     blkwalk
	MOVQ    184(R10), R12
	VMOVUPS (DI)(R12*1), Y11

blkwalk:
	TESTQ CX, CX
	JEQ   blkstore

blkentry:
	MOVLQSX      (R9), AX
	CMPQ         AX, R11
	JHI          blkstore
	LEAQ         (SI)(AX*4), BX
	VBROADCASTSS (R8), Y12
	MOVQ         0(R10), R12
	VMULPS       (BX)(R12*1), Y12, Y13
	VADDPS       Y13, Y0, Y0
	CMPQ         DX, $1
	JEQ          blknext
	MOVQ         8(R10), R12
	VMULPS       (BX)(R12*1), Y12, Y13
	VADDPS       Y13, Y1, Y1
	CMPQ         DX, $2
	JEQ          blknext
	MOVQ         16(R10), R12
	VMULPS       (BX)(R12*1), Y12, Y13
	VADDPS       Y13, Y2, Y2
	CMPQ         DX, $3
	JEQ          blknext
	MOVQ         24(R10), R12
	VMULPS       (BX)(R12*1), Y12, Y13
	VADDPS       Y13, Y3, Y3
	CMPQ         DX, $4
	JEQ          blknext
	MOVQ         32(R10), R12
	VMULPS       (BX)(R12*1), Y12, Y13
	VADDPS       Y13, Y4, Y4
	CMPQ         DX, $5
	JEQ          blknext
	MOVQ         40(R10), R12
	VMULPS       (BX)(R12*1), Y12, Y13
	VADDPS       Y13, Y5, Y5
	CMPQ         DX, $6
	JEQ          blknext
	MOVQ         48(R10), R12
	VMULPS       (BX)(R12*1), Y12, Y13
	VADDPS       Y13, Y6, Y6
	CMPQ         DX, $7
	JEQ          blknext
	MOVQ         56(R10), R12
	VMULPS       (BX)(R12*1), Y12, Y13
	VADDPS       Y13, Y7, Y7
	CMPQ         DX, $8
	JEQ          blknext
	MOVQ         64(R10), R12
	VMULPS       (BX)(R12*1), Y12, Y13
	VADDPS       Y13, Y8, Y8
	CMPQ         DX, $9
	JEQ          blknext
	MOVQ         72(R10), R12
	VMULPS       (BX)(R12*1), Y12, Y13
	VADDPS       Y13, Y9, Y9
	CMPQ         DX, $10
	JEQ          blknext
	MOVQ         80(R10), R12
	VMULPS       (BX)(R12*1), Y12, Y13
	VADDPS       Y13, Y10, Y10
	CMPQ         DX, $11
	JEQ          blknext
	MOVQ         88(R10), R12
	VMULPS       (BX)(R12*1), Y12, Y13
	VADDPS       Y13, Y11, Y11

blknext:
	ADDQ $4, R8
	ADDQ $4, R9
	DECQ CX
	JNE  blkentry

blkstore:
	MOVQ    96(R10), R12
	VMOVUPS Y0, (DI)(R12*1)
	CMPQ    DX, $1
	JEQ     blkdone
	MOVQ    104(R10), R12
	VMOVUPS Y1, (DI)(R12*1)
	CMPQ    DX, $2
	JEQ     blkdone
	MOVQ    112(R10), R12
	VMOVUPS Y2, (DI)(R12*1)
	CMPQ    DX, $3
	JEQ     blkdone
	MOVQ    120(R10), R12
	VMOVUPS Y3, (DI)(R12*1)
	CMPQ    DX, $4
	JEQ     blkdone
	MOVQ    128(R10), R12
	VMOVUPS Y4, (DI)(R12*1)
	CMPQ    DX, $5
	JEQ     blkdone
	MOVQ    136(R10), R12
	VMOVUPS Y5, (DI)(R12*1)
	CMPQ    DX, $6
	JEQ     blkdone
	MOVQ    144(R10), R12
	VMOVUPS Y6, (DI)(R12*1)
	CMPQ    DX, $7
	JEQ     blkdone
	MOVQ    152(R10), R12
	VMOVUPS Y7, (DI)(R12*1)
	CMPQ    DX, $8
	JEQ     blkdone
	MOVQ    160(R10), R12
	VMOVUPS Y8, (DI)(R12*1)
	CMPQ    DX, $9
	JEQ     blkdone
	MOVQ    168(R10), R12
	VMOVUPS Y9, (DI)(R12*1)
	CMPQ    DX, $10
	JEQ     blkdone
	MOVQ    176(R10), R12
	VMOVUPS Y10, (DI)(R12*1)
	CMPQ    DX, $11
	JEQ     blkdone
	MOVQ    184(R10), R12
	VMOVUPS Y11, (DI)(R12*1)

blkdone:
	VZEROUPPER
	RET

// KEY turns the float bits in r into MaxPool's order keys, as orderKey:
// m = bits &^ sign (left in Y6), s = the sign bit smeared (Y7),
// key = 0x807fffff + (m ^ s) - s. Y8 holds 0x7fffffff and Y9 0x807fffff.
#define KEY(r) \
	VPSRAD $31, r, Y7; \
	VPAND  Y8, r, Y6; \
	VPXOR  Y7, Y6, r; \
	VPSUBD Y7, r, r; \
	VPADDD Y9, r, r

// LEAD raises the window-leading lanes of row 0's keys (Y0, whose m is
// still in Y6) to leadKey: all ones where the leader is a NaN, which is
// where 0x7f800000 - m is negative. Y10 holds 0x7f800000 and Y11 all ones
// in the leading lanes.
#define LEAD \
	VPSUBD Y6, Y10, Y7; \
	VPSRAD $31, Y7, Y7; \
	VPAND  Y11, Y7, Y7; \
	VPOR   Y7, Y0, Y0

// ARGMAX stores one window's winner at out(DI). AX holds the group's match
// mask, bit 8·ky + column for every lane equal to its window's maximum;
// mask selects the window's bits, so its lowest set bit is the first
// row-major match. The flat index is R8 (the group's first column in row
// 0) + ky·w + column.
#define ARGMAX(mask, out) \
	MOVL  AX, DX; \
	ANDL  $mask, DX; \
	BSFL  DX, DX; \
	MOVL  DX, BX; \
	SHRL  $3, BX; \
	IMULQ R9, BX; \
	ANDL  $7, DX; \
	ADDQ  R8, DX; \
	ADDQ  DX, BX; \
	MOVL  BX, out(DI)

// func maxPoolAVX2(am []int32, band []float32, base, w, size int)
//
// len(am) windows of size × size floats at stride size (size 2 or 4),
// len(am) a multiple of 8/size, whose size rows (w floats apart) fit in
// band. Each group of eight columns loads one vector per row, turns it
// into order keys (the leaders' lanes into lead keys), takes the
// elementwise VPMAXUD over the rows and then across each window's lanes
// (VPSHUFD swaps within 128-bit halves, so a window never mixes with its
// neighbours), and compares every row with that maximum. The movemasks,
// one byte per row, give each window's matching lanes in row-major bit
// order, and BSF picks the first.
TEXT ·maxPoolAVX2(SB), NOSPLIT, $0-72
	MOVQ am_base+0(FP), DI
	MOVQ am_len+8(FP), CX
	MOVQ band_base+24(FP), SI
	MOVQ base+48(FP), R8
	MOVQ w+56(FP), R9
	MOVQ size+64(FP), R10
	MOVQ R9, R11
	SHLQ $2, R11                    // row stride in bytes

	MOVL         $0x7fffffff, AX
	VMOVD        AX, X8
	VPBROADCASTD X8, Y8
	MOVL         $0x807fffff, AX
	VMOVD        AX, X9
	VPBROADCASTD X9, Y9
	MOVL         $0x7f800000, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	MOVL         $0xffffffff, AX
	VMOVD        AX, X11            // lane 0 all ones, lanes 1-3 zero
	CMPQ         R10, $4
	JEQ          mp4

	VPBROADCASTQ X11, Y11           // leaders of 2-wide windows: lanes 0, 2, 4, 6

mp2loop:
	TESTQ    CX, CX
	JEQ      mpdone
	VMOVDQU  (SI), Y0
	VMOVDQU  (SI)(R11*1), Y1
	KEY(Y0)
	LEAD
	KEY(Y1)
	VPMAXUD  Y1, Y0, Y4
	VPSHUFD  $0xb1, Y4, Y5
	VPMAXUD  Y5, Y4, Y4
	VPCMPEQD Y4, Y0, Y5
	VMOVMSKPS Y5, AX
	VPCMPEQD Y4, Y1, Y5
	VMOVMSKPS Y5, BX
	SHLL     $8, BX
	ORL      BX, AX
	ARGMAX(0x0303, 0)
	ARGMAX(0x0c0c, 4)
	ARGMAX(0x3030, 8)
	ARGMAX(0xc0c0, 12)
	ADDQ     $32, SI
	ADDQ     $8, R8
	ADDQ     $16, DI
	SUBQ     $4, CX
	JMP      mp2loop

mp4:
	VINSERTI128 $1, X11, Y11, Y11   // leaders of 4-wide windows: lanes 0, 4

mp4loop:
	TESTQ    CX, CX
	JEQ      mpdone
	LEAQ     (SI)(R11*2), R12
	VMOVDQU  (SI), Y0
	VMOVDQU  (SI)(R11*1), Y1
	VMOVDQU  (R12), Y2
	VMOVDQU  (R12)(R11*1), Y3
	KEY(Y0)
	LEAD
	KEY(Y1)
	KEY(Y2)
	KEY(Y3)
	VPMAXUD  Y1, Y0, Y4
	VPMAXUD  Y3, Y2, Y5
	VPMAXUD  Y5, Y4, Y4
	VPSHUFD  $0xb1, Y4, Y5
	VPMAXUD  Y5, Y4, Y4
	VPSHUFD  $0x4e, Y4, Y5
	VPMAXUD  Y5, Y4, Y4
	VPCMPEQD Y4, Y0, Y5
	VMOVMSKPS Y5, AX
	VPCMPEQD Y4, Y1, Y5
	VMOVMSKPS Y5, BX
	SHLL     $8, BX
	ORL      BX, AX
	VPCMPEQD Y4, Y2, Y5
	VMOVMSKPS Y5, BX
	SHLL     $16, BX
	ORL      BX, AX
	VPCMPEQD Y4, Y3, Y5
	VMOVMSKPS Y5, BX
	SHLL     $24, BX
	ORL      BX, AX
	ARGMAX(0x0f0f0f0f, 0)
	ARGMAX(0xf0f0f0f0, 4)
	ADDQ     $32, SI
	ADDQ     $8, R8
	ADDQ     $8, DI
	SUBQ     $2, CX
	JMP      mp4loop

mpdone:
	VZEROUPPER
	RET

// func epilogueAVX2(p []float32, b float32, add, relu bool)
//
// len(p) a multiple of 8. Per vector: VADDPS the broadcast bias when add,
// then, when relu, VANDPS with VCMPPS GT_OQ against zero — all ones exactly
// where the sum is > 0, so NaN and ±0 become +0 as in Positive's select.
TEXT ·epilogueAVX2(SB), NOSPLIT, $0-30
	MOVQ         p_base+0(FP), DI
	MOVQ         p_len+8(FP), CX
	VBROADCASTSS b+24(FP), Y1
	MOVBLZX      add+28(FP), AX
	MOVBLZX      relu+29(FP), BX
	VXORPS       Y2, Y2, Y2

ep8:
	CMPQ    CX, $8
	JLT     epdone
	VMOVUPS (DI), Y0
	TESTL   AX, AX
	JEQ     epmask
	VADDPS  Y1, Y0, Y0

epmask:
	TESTL   BX, BX
	JEQ     epstore
	VCMPPS  $0x1e, Y2, Y0, Y3
	VANDPS  Y3, Y0, Y0

epstore:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     ep8

epdone:
	VZEROUPPER
	RET
