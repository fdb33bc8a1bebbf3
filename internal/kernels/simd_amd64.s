//go:build amd64 && !purego

#include "textflag.h"

// AVX2 micro-kernels for SGEMMMicro and DGEMMMicro (see simd_amd64.go).
//
// One call computes a rows×cols block of C (1 ≤ rows ≤ 4, cols a multiple
// of 4 for FP32 and of 2 for FP64, kc ≥ 1), sweeping the columns in chunks:
// FP32 12 (one ymm and one xmm per row), then 8 (ymm), then 4 (xmm); FP64
// 6, 4 and 2. Every k step broadcasts one A element per row, loads one B
// row of the chunk and does one VMULP and one VADDP per accumulator, so
// each C element is summed in its own precision in k order with every
// product rounded before its add — the arithmetic of the scalar Go loop.
// No FMA: a fused multiply-add skips that rounding and would change bits.
// The store is α·acc, or α·acc + β·c when β ≠ 0 (β = 0 never reads C).
//
// Registers:
//	R13 rows          DX  columns left       AX  B chunk   DI  C chunk
//	SI  A walker      BX  B walker           CX  k counter
//	R8  lda bytes     R9  3·lda bytes        R10 ldb bytes
//	R11 ldc bytes     R12 3·ldc bytes        R15 1 when β ≠ 0
//	Y0–Y7 accumulators, Y8/X9 B row, Y10 broadcast A, Y11/Y12 products,
//	Y13 α, Y14 β, Y15 β·c.

// FP32 k step for one A row against a 12-wide (8+4) B row in Y8/X9.
#define S12(amem, ya, xa) \
	VBROADCASTSS amem, Y10; \
	VMULPS       Y8, Y10, Y11; \
	VADDPS       Y11, ya, ya; \
	VMULPS       X9, X10, X12; \
	VADDPS       X12, xa, xa

// FP32 k step for one A row against an 8-wide B row in Y8.
#define S8(amem, ya) \
	VBROADCASTSS amem, Y10; \
	VMULPS       Y8, Y10, Y11; \
	VADDPS       Y11, ya, ya

// FP32 k step for one A row against a 4-wide B row in X9.
#define S4(amem, xa) \
	VBROADCASTSS amem, X10; \
	VMULPS       X9, X10, X11; \
	VADDPS       X11, xa, xa

// FP32 stores of one accumulator register: c = α·acc + β·c, or c = α·acc.
#define SACCY(acc, cmem) \
	VMULPS  Y13, acc, acc; \
	VMULPS  cmem, Y14, Y15; \
	VADDPS  Y15, acc, acc; \
	VMOVUPS acc, cmem

#define SSETY(acc, cmem) \
	VMULPS  Y13, acc, acc; \
	VMOVUPS acc, cmem

#define SACCX(acc, cmem) \
	VMULPS  X13, acc, acc; \
	VMULPS  cmem, X14, X15; \
	VADDPS  X15, acc, acc; \
	VMOVUPS acc, cmem

#define SSETX(acc, cmem) \
	VMULPS  X13, acc, acc; \
	VMOVUPS acc, cmem

// FP64 counterparts: 6 = 4 (ymm) + 2 (xmm) lanes, 4 and 2.
#define D6(amem, ya, xa) \
	VBROADCASTSD amem, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, ya, ya; \
	VMULPD       X9, X10, X12; \
	VADDPD       X12, xa, xa

#define D4(amem, ya) \
	VBROADCASTSD amem, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, ya, ya

#define D2(amem, xa) \
	VMOVDDUP amem, X10; \
	VMULPD   X9, X10, X11; \
	VADDPD   X11, xa, xa

#define DACCY(acc, cmem) \
	VMULPD  Y13, acc, acc; \
	VMULPD  cmem, Y14, Y15; \
	VADDPD  Y15, acc, acc; \
	VMOVUPD acc, cmem

#define DSETY(acc, cmem) \
	VMULPD  Y13, acc, acc; \
	VMOVUPD acc, cmem

#define DACCX(acc, cmem) \
	VMULPD  X13, acc, acc; \
	VMULPD  cmem, X14, X15; \
	VADDPD  X15, acc, acc; \
	VMOVUPD acc, cmem

#define DSETX(acc, cmem) \
	VMULPD  X13, acc, acc; \
	VMOVUPD acc, cmem

// Shared set-up: strides in bytes (elem = 4 or 8, shift = 2 or 3).
#define SETUP(shift) \
	MOVQ rows+0(FP), R13; \
	MOVQ cols+8(FP), DX; \
	MOVQ b+48(FP), AX; \
	MOVQ c+72(FP), DI; \
	MOVQ lda+40(FP), R8; \
	SHLQ $shift, R8; \
	LEAQ (R8)(R8*2), R9; \
	MOVQ ldb+56(FP), R10; \
	SHLQ $shift, R10; \
	MOVQ ldc+80(FP), R11; \
	SHLQ $shift, R11; \
	LEAQ (R11)(R11*2), R12

// Start of one column chunk: rewind A, point B at the chunk, reload kc.
#define CHUNK \
	MOVQ a+32(FP), SI; \
	MOVQ AX, BX; \
	MOVQ kc+16(FP), CX

// End of one k step.
#define NEXTK(elem) \
	ADDQ $elem, SI; \
	ADDQ R10, BX; \
	DECQ CX

// func sgemmAVX2(rows, cols, kc int, alpha float32, a *float32, lda int, b *float32, ldb int, beta float32, c *float32, ldc int)
TEXT ·sgemmAVX2(SB), NOSPLIT, $0-88
	SETUP(2)
	VBROADCASTSS alpha+24(FP), Y13
	VBROADCASTSS beta+64(FP), Y14

	// R15 = (β ≠ 0): not equal, or unordered (a NaN β accumulates too).
	VXORPS   X15, X15, X15
	XORQ     R15, R15
	XORQ     BX, BX
	VUCOMISS X15, X14
	SETNE    R15B
	SETPS    BX
	ORQ      BX, R15

s12:
	CMPQ DX, $12
	JLT  s8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	CHUNK
	CMPQ R13, $3
	JGT  s12r4
	JEQ  s12r3
	CMPQ R13, $2
	JEQ  s12r2

s12r1:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), X9
	S12((SI), Y0, X1)
	NEXTK(4)
	JNZ     s12r1
	JMP     s12st

s12r2:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), X9
	S12((SI), Y0, X1)
	S12((SI)(R8*1), Y2, X3)
	NEXTK(4)
	JNZ     s12r2
	JMP     s12st

s12r3:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), X9
	S12((SI), Y0, X1)
	S12((SI)(R8*1), Y2, X3)
	S12((SI)(R8*2), Y4, X5)
	NEXTK(4)
	JNZ     s12r3
	JMP     s12st

s12r4:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), X9
	S12((SI), Y0, X1)
	S12((SI)(R8*1), Y2, X3)
	S12((SI)(R8*2), Y4, X5)
	S12((SI)(R9*1), Y6, X7)
	NEXTK(4)
	JNZ     s12r4

s12st:
	CMPQ  R15, $0
	JEQ   s12set
	SACCY(Y0, (DI))
	SACCX(X1, 32(DI))
	CMPQ  R13, $2
	JLT   s12next
	SACCY(Y2, (DI)(R11*1))
	SACCX(X3, 32(DI)(R11*1))
	CMPQ  R13, $3
	JLT   s12next
	SACCY(Y4, (DI)(R11*2))
	SACCX(X5, 32(DI)(R11*2))
	CMPQ  R13, $4
	JLT   s12next
	SACCY(Y6, (DI)(R12*1))
	SACCX(X7, 32(DI)(R12*1))
	JMP   s12next

s12set:
	SSETY(Y0, (DI))
	SSETX(X1, 32(DI))
	CMPQ  R13, $2
	JLT   s12next
	SSETY(Y2, (DI)(R11*1))
	SSETX(X3, 32(DI)(R11*1))
	CMPQ  R13, $3
	JLT   s12next
	SSETY(Y4, (DI)(R11*2))
	SSETX(X5, 32(DI)(R11*2))
	CMPQ  R13, $4
	JLT   s12next
	SSETY(Y6, (DI)(R12*1))
	SSETX(X7, 32(DI)(R12*1))

s12next:
	ADDQ $48, AX
	ADDQ $48, DI
	SUBQ $12, DX
	JMP  s12

	// Fewer than 12 columns are left, so the 8- and 4-wide chunks run at
	// most once each.
s8:
	CMPQ DX, $8
	JLT  s4
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CHUNK
	CMPQ R13, $3
	JGT  s8r4
	JEQ  s8r3
	CMPQ R13, $2
	JEQ  s8r2

s8r1:
	VMOVUPS (BX), Y8
	S8((SI), Y0)
	NEXTK(4)
	JNZ     s8r1
	JMP     s8st

s8r2:
	VMOVUPS (BX), Y8
	S8((SI), Y0)
	S8((SI)(R8*1), Y1)
	NEXTK(4)
	JNZ     s8r2
	JMP     s8st

s8r3:
	VMOVUPS (BX), Y8
	S8((SI), Y0)
	S8((SI)(R8*1), Y1)
	S8((SI)(R8*2), Y2)
	NEXTK(4)
	JNZ     s8r3
	JMP     s8st

s8r4:
	VMOVUPS (BX), Y8
	S8((SI), Y0)
	S8((SI)(R8*1), Y1)
	S8((SI)(R8*2), Y2)
	S8((SI)(R9*1), Y3)
	NEXTK(4)
	JNZ     s8r4

s8st:
	CMPQ  R15, $0
	JEQ   s8set
	SACCY(Y0, (DI))
	CMPQ  R13, $2
	JLT   s8next
	SACCY(Y1, (DI)(R11*1))
	CMPQ  R13, $3
	JLT   s8next
	SACCY(Y2, (DI)(R11*2))
	CMPQ  R13, $4
	JLT   s8next
	SACCY(Y3, (DI)(R12*1))
	JMP   s8next

s8set:
	SSETY(Y0, (DI))
	CMPQ  R13, $2
	JLT   s8next
	SSETY(Y1, (DI)(R11*1))
	CMPQ  R13, $3
	JLT   s8next
	SSETY(Y2, (DI)(R11*2))
	CMPQ  R13, $4
	JLT   s8next
	SSETY(Y3, (DI)(R12*1))

s8next:
	ADDQ $32, AX
	ADDQ $32, DI
	SUBQ $8, DX

s4:
	CMPQ DX, $4
	JLT  sdone
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	CHUNK
	CMPQ R13, $3
	JGT  s4r4
	JEQ  s4r3
	CMPQ R13, $2
	JEQ  s4r2

s4r1:
	VMOVUPS (BX), X9
	S4((SI), X0)
	NEXTK(4)
	JNZ     s4r1
	JMP     s4st

s4r2:
	VMOVUPS (BX), X9
	S4((SI), X0)
	S4((SI)(R8*1), X1)
	NEXTK(4)
	JNZ     s4r2
	JMP     s4st

s4r3:
	VMOVUPS (BX), X9
	S4((SI), X0)
	S4((SI)(R8*1), X1)
	S4((SI)(R8*2), X2)
	NEXTK(4)
	JNZ     s4r3
	JMP     s4st

s4r4:
	VMOVUPS (BX), X9
	S4((SI), X0)
	S4((SI)(R8*1), X1)
	S4((SI)(R8*2), X2)
	S4((SI)(R9*1), X3)
	NEXTK(4)
	JNZ     s4r4

s4st:
	CMPQ  R15, $0
	JEQ   s4set
	SACCX(X0, (DI))
	CMPQ  R13, $2
	JLT   sdone
	SACCX(X1, (DI)(R11*1))
	CMPQ  R13, $3
	JLT   sdone
	SACCX(X2, (DI)(R11*2))
	CMPQ  R13, $4
	JLT   sdone
	SACCX(X3, (DI)(R12*1))
	JMP   sdone

s4set:
	SSETX(X0, (DI))
	CMPQ  R13, $2
	JLT   sdone
	SSETX(X1, (DI)(R11*1))
	CMPQ  R13, $3
	JLT   sdone
	SSETX(X2, (DI)(R11*2))
	CMPQ  R13, $4
	JLT   sdone
	SSETX(X3, (DI)(R12*1))

sdone:
	VZEROUPPER
	RET

// func dgemmAVX2(rows, cols, kc int, alpha float64, a *float64, lda int, b *float64, ldb int, beta float64, c *float64, ldc int)
TEXT ·dgemmAVX2(SB), NOSPLIT, $0-88
	SETUP(3)
	VBROADCASTSD alpha+24(FP), Y13
	VBROADCASTSD beta+64(FP), Y14

	VXORPD   X15, X15, X15
	XORQ     R15, R15
	XORQ     BX, BX
	VUCOMISD X15, X14
	SETNE    R15B
	SETPS    BX
	ORQ      BX, R15

d6:
	CMPQ DX, $6
	JLT  d4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	CHUNK
	CMPQ R13, $3
	JGT  d6r4
	JEQ  d6r3
	CMPQ R13, $2
	JEQ  d6r2

d6r1:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), X9
	D6((SI), Y0, X1)
	NEXTK(8)
	JNZ     d6r1
	JMP     d6st

d6r2:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), X9
	D6((SI), Y0, X1)
	D6((SI)(R8*1), Y2, X3)
	NEXTK(8)
	JNZ     d6r2
	JMP     d6st

d6r3:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), X9
	D6((SI), Y0, X1)
	D6((SI)(R8*1), Y2, X3)
	D6((SI)(R8*2), Y4, X5)
	NEXTK(8)
	JNZ     d6r3
	JMP     d6st

d6r4:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), X9
	D6((SI), Y0, X1)
	D6((SI)(R8*1), Y2, X3)
	D6((SI)(R8*2), Y4, X5)
	D6((SI)(R9*1), Y6, X7)
	NEXTK(8)
	JNZ     d6r4

d6st:
	CMPQ  R15, $0
	JEQ   d6set
	DACCY(Y0, (DI))
	DACCX(X1, 32(DI))
	CMPQ  R13, $2
	JLT   d6next
	DACCY(Y2, (DI)(R11*1))
	DACCX(X3, 32(DI)(R11*1))
	CMPQ  R13, $3
	JLT   d6next
	DACCY(Y4, (DI)(R11*2))
	DACCX(X5, 32(DI)(R11*2))
	CMPQ  R13, $4
	JLT   d6next
	DACCY(Y6, (DI)(R12*1))
	DACCX(X7, 32(DI)(R12*1))
	JMP   d6next

d6set:
	DSETY(Y0, (DI))
	DSETX(X1, 32(DI))
	CMPQ  R13, $2
	JLT   d6next
	DSETY(Y2, (DI)(R11*1))
	DSETX(X3, 32(DI)(R11*1))
	CMPQ  R13, $3
	JLT   d6next
	DSETY(Y4, (DI)(R11*2))
	DSETX(X5, 32(DI)(R11*2))
	CMPQ  R13, $4
	JLT   d6next
	DSETY(Y6, (DI)(R12*1))
	DSETX(X7, 32(DI)(R12*1))

d6next:
	ADDQ $48, AX
	ADDQ $48, DI
	SUBQ $6, DX
	JMP  d6

	// Fewer than 6 columns are left, so the 4- and 2-wide chunks run at
	// most once each.
d4:
	CMPQ DX, $4
	JLT  d2
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CHUNK
	CMPQ R13, $3
	JGT  d4r4
	JEQ  d4r3
	CMPQ R13, $2
	JEQ  d4r2

d4r1:
	VMOVUPD (BX), Y8
	D4((SI), Y0)
	NEXTK(8)
	JNZ     d4r1
	JMP     d4st

d4r2:
	VMOVUPD (BX), Y8
	D4((SI), Y0)
	D4((SI)(R8*1), Y1)
	NEXTK(8)
	JNZ     d4r2
	JMP     d4st

d4r3:
	VMOVUPD (BX), Y8
	D4((SI), Y0)
	D4((SI)(R8*1), Y1)
	D4((SI)(R8*2), Y2)
	NEXTK(8)
	JNZ     d4r3
	JMP     d4st

d4r4:
	VMOVUPD (BX), Y8
	D4((SI), Y0)
	D4((SI)(R8*1), Y1)
	D4((SI)(R8*2), Y2)
	D4((SI)(R9*1), Y3)
	NEXTK(8)
	JNZ     d4r4

d4st:
	CMPQ  R15, $0
	JEQ   d4set
	DACCY(Y0, (DI))
	CMPQ  R13, $2
	JLT   d4next
	DACCY(Y1, (DI)(R11*1))
	CMPQ  R13, $3
	JLT   d4next
	DACCY(Y2, (DI)(R11*2))
	CMPQ  R13, $4
	JLT   d4next
	DACCY(Y3, (DI)(R12*1))
	JMP   d4next

d4set:
	DSETY(Y0, (DI))
	CMPQ  R13, $2
	JLT   d4next
	DSETY(Y1, (DI)(R11*1))
	CMPQ  R13, $3
	JLT   d4next
	DSETY(Y2, (DI)(R11*2))
	CMPQ  R13, $4
	JLT   d4next
	DSETY(Y3, (DI)(R12*1))

d4next:
	ADDQ $32, AX
	ADDQ $32, DI
	SUBQ $4, DX

d2:
	CMPQ DX, $2
	JLT  ddone
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	CHUNK
	CMPQ R13, $3
	JGT  d2r4
	JEQ  d2r3
	CMPQ R13, $2
	JEQ  d2r2

d2r1:
	VMOVUPD (BX), X9
	D2((SI), X0)
	NEXTK(8)
	JNZ     d2r1
	JMP     d2st

d2r2:
	VMOVUPD (BX), X9
	D2((SI), X0)
	D2((SI)(R8*1), X1)
	NEXTK(8)
	JNZ     d2r2
	JMP     d2st

d2r3:
	VMOVUPD (BX), X9
	D2((SI), X0)
	D2((SI)(R8*1), X1)
	D2((SI)(R8*2), X2)
	NEXTK(8)
	JNZ     d2r3
	JMP     d2st

d2r4:
	VMOVUPD (BX), X9
	D2((SI), X0)
	D2((SI)(R8*1), X1)
	D2((SI)(R8*2), X2)
	D2((SI)(R9*1), X3)
	NEXTK(8)
	JNZ     d2r4

d2st:
	CMPQ  R15, $0
	JEQ   d2set
	DACCX(X0, (DI))
	CMPQ  R13, $2
	JLT   ddone
	DACCX(X1, (DI)(R11*1))
	CMPQ  R13, $3
	JLT   ddone
	DACCX(X2, (DI)(R11*2))
	CMPQ  R13, $4
	JLT   ddone
	DACCX(X3, (DI)(R12*1))
	JMP   ddone

d2set:
	DSETX(X0, (DI))
	CMPQ  R13, $2
	JLT   ddone
	DSETX(X1, (DI)(R11*1))
	CMPQ  R13, $3
	JLT   ddone
	DSETX(X2, (DI)(R11*2))
	CMPQ  R13, $4
	JLT   ddone
	DSETX(X3, (DI)(R12*1))

ddone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
