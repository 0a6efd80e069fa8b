//go:build amd64 && !purego

#include "textflag.h"

// func sqDistInt8AVX2(a, b []int8) int64
//
// Sixteen codes at a time: sign-extend both sides to int16, subtract
// (|d| ≤ 255), VPMADDWD the differences with themselves (adjacent pairs
// d²+d'² ≤ 130 050 into int32 lanes), add. Two accumulators take
// alternate 16-byte steps; the caller bounds len(a) so no lane can reach
// 2³¹ (int8Block), and the lanes are widened to int64 before they are
// summed across. Every load is a 16-byte VPMOVSXBW inside the first
// len(a)&^15 bytes.
TEXT ·sqDistInt8AVX2(SB), NOSPLIT, $0-56
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ  CX, DX
	SHRQ  $5, DX
	JZ    int8tail

int8loop:
	VPMOVSXBW (SI), Y2
	VPMOVSXBW (DI), Y3
	VPMOVSXBW 16(SI), Y4
	VPMOVSXBW 16(DI), Y5
	VPSUBW    Y3, Y2, Y2
	VPSUBW    Y5, Y4, Y4
	VPMADDWD  Y2, Y2, Y2
	VPMADDWD  Y4, Y4, Y4
	VPADDD    Y2, Y0, Y0
	VPADDD    Y4, Y1, Y1
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      DX
	JNZ       int8loop

int8tail:
	TESTQ     $16, CX
	JZ        int8sum
	VPMOVSXBW (SI), Y2
	VPMOVSXBW (DI), Y3
	VPSUBW    Y3, Y2, Y2
	VPMADDWD  Y2, Y2, Y2
	VPADDD    Y2, Y0, Y0

int8sum:
	VPADDD       Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMOVZXDQ    X0, Y2
	VPMOVZXDQ    X1, Y3
	VPADDQ       Y3, Y2, Y2
	VEXTRACTI128 $1, Y2, X3
	VPADDQ       X3, X2, X2
	VPSRLDQ      $8, X2, X3
	VPADDQ       X3, X2, X2
	VMOVQ        X2, AX
	MOVQ         AX, ret+48(FP)
	VZEROUPPER
	RET

// func dotInt8RowsAVX2(q []int16, rows []int8, stride int, out []int32)
//
// Thirty-two codes at a time: sign-extend the row to int16, VPMADDWD it
// against the query — already int16, so a memory operand — into int32
// lanes of adjacent pairs q·x+q'·x', add. Six instructions and two
// port-5 shuffles where sqDistInt8AVX2 spends ten and four on the same
// codes: the query is never widened here and nothing is subtracted. Two
// accumulators take the two halves of a step; the rows are walked here,
// not by the caller, so a cell of the index is one call. Lane sums wrap
// like the reference's int32 (DotInt8Rows states when they cannot).
// Every row load is a 16-byte VPMOVSXBW inside the first len(q) codes of
// its row, every query load 32 bytes inside q.
TEXT ·dotInt8RowsAVX2(SB), NOSPLIT, $0-80
	MOVQ q_base+0(FP), R8
	MOVQ q_len+8(FP), R9
	MOVQ rows_base+24(FP), SI
	MOVQ stride+48(FP), R11
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), R10
	SUBQ R9, R11                 // from the end of one row's codes to the next row
	MOVQ R9, R12
	SHRQ $5, R12                 // 32-code steps per row
	TESTQ R10, R10
	JZ   dotdone

dotrow:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ  R8, BX
	MOVQ  R12, CX
	TESTQ CX, CX
	JZ    dottail

dotstep:
	VPMOVSXBW (SI), Y2
	VPMOVSXBW 16(SI), Y3
	VPMADDWD  (BX), Y2, Y2
	VPMADDWD  32(BX), Y3, Y3
	VPADDD    Y2, Y0, Y0
	VPADDD    Y3, Y1, Y1
	ADDQ      $32, SI
	ADDQ      $64, BX
	DECQ      CX
	JNZ       dotstep

dottail:
	TESTQ     $16, R9
	JZ        dotsum
	VPMOVSXBW (SI), Y2
	VPMADDWD  (BX), Y2, Y2
	VPADDD    Y2, Y0, Y0
	ADDQ      $16, SI

dotsum:
	VPADDD       Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, (DI)
	ADDQ         R11, SI
	ADDQ         $4, DI
	DECQ         R10
	JNZ          dotrow

dotdone:
	VZEROUPPER
	RET

// func sqEuclideanAVX2(a, b []float32) (s0, s1 float64)
//
// Four components per step: widen to float64, subtract and square all
// four at once (element-wise, so exact to the reference), then add the
// low pair and the high pair into the one two-lane accumulator in that
// order — lane 0 sees components 0, 2, 4, … and lane 1 sees 1, 3, 5, …
// one at a time, as the reference's s0 and s1 do. No FMA.
TEXT ·sqEuclideanAVX2(SB), NOSPLIT, $0-64
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPD X0, X0, X0
	SHRQ   $2, CX
	JZ     f32done

f32loop:
	VCVTPS2PD    (SI), Y1
	VCVTPS2PD    (DI), Y2
	VSUBPD       Y2, Y1, Y1
	VMULPD       Y1, Y1, Y1
	VEXTRACTF128 $1, Y1, X2
	VADDPD       X1, X0, X0
	VADDPD       X2, X0, X0
	ADDQ         $16, SI
	ADDQ         $16, DI
	DECQ         CX
	JNZ          f32loop

f32done:
	VMOVLPD X0, s0+48(FP)
	VMOVHPD X0, s1+56(FP)
	VZEROUPPER
	RET

// func sqEuclideanRows4AVX2(q, mat []float32, out []float64)
//
// The single-row kernel above is bound by the latency of its two adds
// per step; here four rows run their chains side by side against one
// widened load of q. Per row the operations and their order are those
// of sqEuclideanAVX2 followed by s0 + s1.
TEXT ·sqEuclideanRows4AVX2(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), R8
	MOVQ q_len+8(FP), R9
	MOVQ mat_base+24(FP), SI
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), R10
	LEAQ (R9*4), R11             // row stride in bytes
	SHRQ $2, R9                  // steps per row
	SHRQ $2, R10                 // groups of four rows
	JZ   rowsdone

rowsgroup:
	LEAQ   (SI)(R11*1), R12
	LEAQ   (R12)(R11*1), R13
	LEAQ   (R13)(R11*1), BX
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	XORQ   AX, AX
	MOVQ   R9, CX

rowsstep:
	VCVTPS2PD    (R8)(AX*1), Y8
	VCVTPS2PD    (SI)(AX*1), Y4
	VCVTPS2PD    (R12)(AX*1), Y5
	VCVTPS2PD    (R13)(AX*1), Y6
	VCVTPS2PD    (BX)(AX*1), Y7
	VSUBPD       Y4, Y8, Y4
	VSUBPD       Y5, Y8, Y5
	VSUBPD       Y6, Y8, Y6
	VSUBPD       Y7, Y8, Y7
	VMULPD       Y4, Y4, Y4
	VMULPD       Y5, Y5, Y5
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VEXTRACTF128 $1, Y4, X9
	VEXTRACTF128 $1, Y5, X10
	VEXTRACTF128 $1, Y6, X11
	VEXTRACTF128 $1, Y7, X12
	VADDPD       X4, X0, X0
	VADDPD       X5, X1, X1
	VADDPD       X6, X2, X2
	VADDPD       X7, X3, X3
	VADDPD       X9, X0, X0
	VADDPD       X10, X1, X1
	VADDPD       X11, X2, X2
	VADDPD       X12, X3, X3
	ADDQ         $16, AX
	DECQ         CX
	JNZ          rowsstep

	VHADDPD X1, X0, X0           // [s0+s1 of row 0, s0+s1 of row 1]
	VHADDPD X3, X2, X2
	VMOVUPD X0, (DI)
	VMOVUPD X2, 16(DI)
	LEAQ    (BX)(R11*1), SI
	ADDQ    $32, DI
	DECQ    R10
	JNZ     rowsgroup

rowsdone:
	VZEROUPPER
	RET

// func sparseSqDistCols16AVX2(norms []float64, idx []int32, val []float64, table []float64, stride int, out []float64)
//
// Forty-eight columns at a time, in twelve accumulators of four (then
// sixteen at a time in four for what is left): for every nonzero j,
// broadcast val[j], multiply it by the block's table entries in row
// idx[j] and add each product into its column's accumulator — per
// column one chain from +0 in the order of idx, the product rounded
// before the add (VMULPD then VADDPD, no FMA), as the reference's. Then
// norms − (acc + acc), stored. Twelve chains keep both FP ports busy
// where four wait on the add's latency. Every table load is 32 bytes
// inside the first len(out) entries of row idx[j].

// SPROW points BX at the block's entries in row idx[j] (j in AX) and
// broadcasts val[j] into Y15.
#define SPROW \
	MOVLQSX      (R9)(AX*4), BX; \
	IMULQ        R13, BX; \
	ADDQ         R12, BX; \
	VBROADCASTSD (R11)(AX*8), Y15

// SPACC adds val[j] times the four entries at off into acc.
#define SPACC(off, acc, tmp) \
	VMULPD off(BX), Y15, tmp; \
	VADDPD tmp, acc, acc

// SPOUT stores norms − (acc + acc) for the four columns at off.
#define SPOUT(off, acc) \
	VADDPD  acc, acc, acc; \
	VMOVUPD off(R8), Y15; \
	VSUBPD  acc, Y15, acc; \
	VMOVUPD acc, off(DI)

TEXT ·sparseSqDistCols16AVX2(SB), NOSPLIT, $0-128
	MOVQ norms_base+0(FP), R8
	MOVQ idx_base+24(FP), R9
	MOVQ idx_len+32(FP), R10
	MOVQ val_base+48(FP), R11
	MOVQ table_base+72(FP), R12
	MOVQ stride+96(FP), R13
	MOVQ out_base+104(FP), DI
	MOVQ out_len+112(FP), AX
	SHLQ $3, R13                 // row stride in bytes
	XORQ DX, DX
	MOVQ $48, CX
	DIVQ CX
	MOVQ AX, CX                  // blocks of forty-eight columns
	SHRQ $4, DX                  // then blocks of sixteen
	TESTQ CX, CX
	JZ   sp16

sp48block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ   AX, AX
	TESTQ  R10, R10
	JZ     sp48store

sp48nz:
	SPROW
	SPACC(0, Y0, Y12)
	SPACC(32, Y1, Y13)
	SPACC(64, Y2, Y14)
	SPACC(96, Y3, Y12)
	SPACC(128, Y4, Y13)
	SPACC(160, Y5, Y14)
	SPACC(192, Y6, Y12)
	SPACC(224, Y7, Y13)
	SPACC(256, Y8, Y14)
	SPACC(288, Y9, Y12)
	SPACC(320, Y10, Y13)
	SPACC(352, Y11, Y14)
	INCQ AX
	CMPQ AX, R10
	JNE  sp48nz

sp48store:
	SPOUT(0, Y0)
	SPOUT(32, Y1)
	SPOUT(64, Y2)
	SPOUT(96, Y3)
	SPOUT(128, Y4)
	SPOUT(160, Y5)
	SPOUT(192, Y6)
	SPOUT(224, Y7)
	SPOUT(256, Y8)
	SPOUT(288, Y9)
	SPOUT(320, Y10)
	SPOUT(352, Y11)
	ADDQ $384, R8
	ADDQ $384, R12
	ADDQ $384, DI
	DECQ CX
	JNZ  sp48block

sp16:
	TESTQ DX, DX
	JZ    spdone

sp16block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	TESTQ  R10, R10
	JZ     sp16store

sp16nz:
	SPROW
	SPACC(0, Y0, Y12)
	SPACC(32, Y1, Y13)
	SPACC(64, Y2, Y14)
	SPACC(96, Y3, Y12)
	INCQ AX
	CMPQ AX, R10
	JNE  sp16nz

sp16store:
	SPOUT(0, Y0)
	SPOUT(32, Y1)
	SPOUT(64, Y2)
	SPOUT(96, Y3)
	ADDQ $128, R8
	ADDQ $128, R12
	ADDQ $128, DI
	DECQ DX
	JNZ  sp16block

spdone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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
