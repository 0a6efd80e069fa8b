//go:build amd64 && !purego

#include "textflag.h"

// STEP moves the lane whose node index is in i one step, as step does:
// AX = 3i, so the node is the 12 bytes {key, feature, right} at
// (SI)(AX*4); i becomes i+1, or the node's right child when the row's
// key for the node's feature is at least the node's key — which a leaf
// (feature 0, key below every row key, right its own index) always
// picks. Six instructions, no branch; MOVL, INCL and CMOVL all zero the
// upper half of their register, so i stays a valid 64-bit index.
#define STEP(i) \
	LEAQ    (i)(i*2), AX; \
	INCL    i; \
	MOVL    4(SI)(AX*4), BX; \
	MOVL    (DI)(BX*4), BX; \
	CMPL    BX, (SI)(AX*4); \
	CMOVLGE 8(SI)(AX*4), i

#define TURN \
	STEP(R8); STEP(R9); STEP(R10); STEP(R11); \
	STEP(R12); STEP(R13); STEP(R14); STEP(R15)

// SUM adds the eight lane indices into r, in 64 bits: they never wrap.
#define SUM(r) \
	MOVQ R8, r; ADDQ R9, r; ADDQ R10, r; ADDQ R11, r; \
	ADDQ R12, r; ADDQ R13, r; ADDQ R14, r; ADDQ R15, r

// CLASS adds the key of lane i's node into CX.
#define CLASS(i) \
	LEAQ (i)(i*2), AX; \
	ADDL (SI)(AX*4), CX

// func walk8(nodes []node, keys []int32, roots *[8]int32) int32
//
// walk8Go with the lanes in R8–R15: three turns, the index sum, a
// fourth turn and the sum again — equal sums mean no lane moved, so all
// eight sit on leaves — then the class count as the int32 sum of the
// eight leaf keys.
TEXT ·walk8(SB), NOSPLIT, $0-60
	MOVQ nodes_base+0(FP), SI
	MOVQ keys_base+24(FP), DI
	MOVQ roots+48(FP), AX
	MOVL 0(AX), R8
	MOVL 4(AX), R9
	MOVL 8(AX), R10
	MOVL 12(AX), R11
	MOVL 16(AX), R12
	MOVL 20(AX), R13
	MOVL 24(AX), R14
	MOVL 28(AX), R15

loop:
	TURN
	TURN
	TURN
	SUM(CX)
	TURN
	SUM(DX)
	CMPQ CX, DX
	JNE  loop

	XORL CX, CX
	CLASS(R8)
	CLASS(R9)
	CLASS(R10)
	CLASS(R11)
	CLASS(R12)
	CLASS(R13)
	CLASS(R14)
	CLASS(R15)
	MOVL CX, ret+56(FP)
	RET
