//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 micro-kernels for SGEMMMicro and DGEMMMicro (see simd_amd64.go).
//
// One call computes a rows×cols block of C (1 ≤ rows ≤ 4, cols ≥ 1,
// kc ≥ 1), sweeping the columns in chunks: FP32 32 (two zmm registers per
// row) while at least 32 columns are left, then 16-wide chunks (one zmm)
// under the opmask K1, which selects all 16 lanes or the last 1–15
// columns; FP64 16 and 8 (1–7). A masked load of B zeroes the lanes past
// the last column and a masked load or store of C leaves them alone, and
// AVX-512 suppresses faults on masked-off lanes, so no element outside the
// block is read or written and no column falls back to the Go kernels.
//
// Every k step broadcasts one A element per row, loads one B row of the
// chunk and does one VMULP and one VADDP per accumulator, so each C element
// is summed in its own precision in k order with every product rounded
// before its add — the arithmetic of the scalar Go loop. No FMA: a fused
// multiply-add skips that rounding and would change bits. The store is
// α·acc, or α·acc + β·c when β ≠ 0 (β = 0 never reads C).
//
// Registers:
//	R13 rows          DX  columns left       AX  B chunk   DI  C chunk
//	SI  A walker      BX  B walker           CX  k counter
//	R8  lda bytes     R9  3·lda bytes        R10 ldb bytes
//	R11 ldc bytes     R12 3·ldc bytes        R15 1 when β ≠ 0
//	Z0–Z7 accumulators, Z8/Z9 B row, Z10 broadcast A, Z11/Z12 products,
//	Z13 α, Z14 β, Z15 β·c, K1 column mask of the one-register chunk.

// FP32 k step for one A row against a 32-wide B row in Z8/Z9.
#define S32(amem, za, zb) \
	VBROADCASTSS amem, Z10; \
	VMULPS       Z8, Z10, Z11; \
	VADDPS       Z11, za, za; \
	VMULPS       Z9, Z10, Z12; \
	VADDPS       Z12, zb, zb

// FP32 k step for one A row against a 16-wide B row in Z8.
#define S16(amem, za) \
	VBROADCASTSS amem, Z10; \
	VMULPS       Z8, Z10, Z11; \
	VADDPS       Z11, za, za

// FP32 stores of one accumulator register: c = α·acc + β·c, or c = α·acc;
// the M forms touch only the lanes K1 selects.
#define SACC(acc, cmem) \
	VMULPS  Z13, acc, acc; \
	VMULPS  cmem, Z14, Z15; \
	VADDPS  Z15, acc, acc; \
	VMOVUPS acc, cmem

#define SSET(acc, cmem) \
	VMULPS  Z13, acc, acc; \
	VMOVUPS acc, cmem

#define SACCM(acc, cmem) \
	VMULPS    Z13, acc, acc; \
	VMOVUPS.Z cmem, K1, Z15; \
	VMULPS    Z15, Z14, Z15; \
	VADDPS    Z15, acc, acc; \
	VMOVUPS   acc, K1, cmem

#define SSETM(acc, cmem) \
	VMULPS  Z13, acc, acc; \
	VMOVUPS acc, K1, cmem

// FP64 counterparts: 16 = 8 + 8 lanes, and 8.
#define D16(amem, za, zb) \
	VBROADCASTSD amem, Z10; \
	VMULPD       Z8, Z10, Z11; \
	VADDPD       Z11, za, za; \
	VMULPD       Z9, Z10, Z12; \
	VADDPD       Z12, zb, zb

#define D8(amem, za) \
	VBROADCASTSD amem, Z10; \
	VMULPD       Z8, Z10, Z11; \
	VADDPD       Z11, za, za

#define DACC(acc, cmem) \
	VMULPD  Z13, acc, acc; \
	VMULPD  cmem, Z14, Z15; \
	VADDPD  Z15, acc, acc; \
	VMOVUPD acc, cmem

#define DSET(acc, cmem) \
	VMULPD  Z13, acc, acc; \
	VMOVUPD acc, cmem

#define DACCM(acc, cmem) \
	VMULPD    Z13, acc, acc; \
	VMOVUPD.Z cmem, K1, Z15; \
	VMULPD    Z15, Z14, Z15; \
	VADDPD    Z15, acc, acc; \
	VMOVUPD   acc, K1, cmem

#define DSETM(acc, cmem) \
	VMULPD  Z13, acc, acc; \
	VMOVUPD acc, K1, cmem

// Shared set-up: strides in bytes (shift = 2 for FP32, 3 for FP64).
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

// K1 = the low min(DX, lanes) bits: all lanes of a full chunk, or the
// columns left.
#define MASK(lanes) \
	MOVQ    $lanes, CX; \
	CMPQ    DX, CX; \
	CMOVQLT DX, CX; \
	MOVL    $1, BX; \
	SHLL    CX, BX; \
	DECL    BX; \
	KMOVW   BX, K1

// func sgemmAVX512(rows, cols, kc int, alpha float32, a *float32, lda int, b *float32, ldb int, beta float32, c *float32, ldc int)
TEXT ·sgemmAVX512(SB), NOSPLIT, $0-88
	SETUP(2)
	VBROADCASTSS alpha+24(FP), Z13
	VBROADCASTSS beta+64(FP), Z14

	// R15 = (β ≠ 0): not equal, or unordered (a NaN β accumulates too).
	VXORPS   X15, X15, X15
	XORQ     R15, R15
	XORQ     BX, BX
	VUCOMISS X15, X14
	SETNE    R15B
	SETPS    BX
	ORQ      BX, R15

s32:
	CMPQ DX, $32
	JLT  s16
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	CHUNK
	CMPQ R13, $3
	JGT  s32r4
	JEQ  s32r3
	CMPQ R13, $2
	JEQ  s32r2

s32r1:
	VMOVUPS (BX), Z8
	VMOVUPS 64(BX), Z9
	S32((SI), Z0, Z1)
	NEXTK(4)
	JNZ     s32r1
	JMP     s32st

s32r2:
	VMOVUPS (BX), Z8
	VMOVUPS 64(BX), Z9
	S32((SI), Z0, Z1)
	S32((SI)(R8*1), Z2, Z3)
	NEXTK(4)
	JNZ     s32r2
	JMP     s32st

s32r3:
	VMOVUPS (BX), Z8
	VMOVUPS 64(BX), Z9
	S32((SI), Z0, Z1)
	S32((SI)(R8*1), Z2, Z3)
	S32((SI)(R8*2), Z4, Z5)
	NEXTK(4)
	JNZ     s32r3
	JMP     s32st

s32r4:
	VMOVUPS (BX), Z8
	VMOVUPS 64(BX), Z9
	S32((SI), Z0, Z1)
	S32((SI)(R8*1), Z2, Z3)
	S32((SI)(R8*2), Z4, Z5)
	S32((SI)(R9*1), Z6, Z7)
	NEXTK(4)
	JNZ     s32r4

s32st:
	CMPQ R15, $0
	JEQ  s32set
	SACC(Z0, (DI))
	SACC(Z1, 64(DI))
	CMPQ R13, $2
	JLT  s32next
	SACC(Z2, (DI)(R11*1))
	SACC(Z3, 64(DI)(R11*1))
	CMPQ R13, $3
	JLT  s32next
	SACC(Z4, (DI)(R11*2))
	SACC(Z5, 64(DI)(R11*2))
	CMPQ R13, $4
	JLT  s32next
	SACC(Z6, (DI)(R12*1))
	SACC(Z7, 64(DI)(R12*1))
	JMP  s32next

s32set:
	SSET(Z0, (DI))
	SSET(Z1, 64(DI))
	CMPQ R13, $2
	JLT  s32next
	SSET(Z2, (DI)(R11*1))
	SSET(Z3, 64(DI)(R11*1))
	CMPQ R13, $3
	JLT  s32next
	SSET(Z4, (DI)(R11*2))
	SSET(Z5, 64(DI)(R11*2))
	CMPQ R13, $4
	JLT  s32next
	SSET(Z6, (DI)(R12*1))
	SSET(Z7, 64(DI)(R12*1))

s32next:
	ADDQ $128, AX
	ADDQ $128, DI
	SUBQ $32, DX
	JMP  s32

	// Fewer than 32 columns are left: at most one full 16-wide chunk,
	// then one masked chunk for the last 1–15.
s16:
	CMPQ DX, $0
	JLE  sdone
	MASK(16)
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	CHUNK
	CMPQ R13, $3
	JGT  s16r4
	JEQ  s16r3
	CMPQ R13, $2
	JEQ  s16r2

s16r1:
	VMOVUPS.Z (BX), K1, Z8
	S16((SI), Z0)
	NEXTK(4)
	JNZ       s16r1
	JMP       s16st

s16r2:
	VMOVUPS.Z (BX), K1, Z8
	S16((SI), Z0)
	S16((SI)(R8*1), Z1)
	NEXTK(4)
	JNZ       s16r2
	JMP       s16st

s16r3:
	VMOVUPS.Z (BX), K1, Z8
	S16((SI), Z0)
	S16((SI)(R8*1), Z1)
	S16((SI)(R8*2), Z2)
	NEXTK(4)
	JNZ       s16r3
	JMP       s16st

s16r4:
	VMOVUPS.Z (BX), K1, Z8
	S16((SI), Z0)
	S16((SI)(R8*1), Z1)
	S16((SI)(R8*2), Z2)
	S16((SI)(R9*1), Z3)
	NEXTK(4)
	JNZ       s16r4

s16st:
	CMPQ R15, $0
	JEQ  s16set
	SACCM(Z0, (DI))
	CMPQ R13, $2
	JLT  s16next
	SACCM(Z1, (DI)(R11*1))
	CMPQ R13, $3
	JLT  s16next
	SACCM(Z2, (DI)(R11*2))
	CMPQ R13, $4
	JLT  s16next
	SACCM(Z3, (DI)(R12*1))
	JMP  s16next

s16set:
	SSETM(Z0, (DI))
	CMPQ R13, $2
	JLT  s16next
	SSETM(Z1, (DI)(R11*1))
	CMPQ R13, $3
	JLT  s16next
	SSETM(Z2, (DI)(R11*2))
	CMPQ R13, $4
	JLT  s16next
	SSETM(Z3, (DI)(R12*1))

s16next:
	ADDQ $64, AX
	ADDQ $64, DI
	SUBQ $16, DX
	JMP  s16

sdone:
	VZEROUPPER
	RET

// func dgemmAVX512(rows, cols, kc int, alpha float64, a *float64, lda int, b *float64, ldb int, beta float64, c *float64, ldc int)
TEXT ·dgemmAVX512(SB), NOSPLIT, $0-88
	SETUP(3)
	VBROADCASTSD alpha+24(FP), Z13
	VBROADCASTSD beta+64(FP), Z14

	VXORPD   X15, X15, X15
	XORQ     R15, R15
	XORQ     BX, BX
	VUCOMISD X15, X14
	SETNE    R15B
	SETPS    BX
	ORQ      BX, R15

d16:
	CMPQ DX, $16
	JLT  d8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	CHUNK
	CMPQ R13, $3
	JGT  d16r4
	JEQ  d16r3
	CMPQ R13, $2
	JEQ  d16r2

d16r1:
	VMOVUPD (BX), Z8
	VMOVUPD 64(BX), Z9
	D16((SI), Z0, Z1)
	NEXTK(8)
	JNZ     d16r1
	JMP     d16st

d16r2:
	VMOVUPD (BX), Z8
	VMOVUPD 64(BX), Z9
	D16((SI), Z0, Z1)
	D16((SI)(R8*1), Z2, Z3)
	NEXTK(8)
	JNZ     d16r2
	JMP     d16st

d16r3:
	VMOVUPD (BX), Z8
	VMOVUPD 64(BX), Z9
	D16((SI), Z0, Z1)
	D16((SI)(R8*1), Z2, Z3)
	D16((SI)(R8*2), Z4, Z5)
	NEXTK(8)
	JNZ     d16r3
	JMP     d16st

d16r4:
	VMOVUPD (BX), Z8
	VMOVUPD 64(BX), Z9
	D16((SI), Z0, Z1)
	D16((SI)(R8*1), Z2, Z3)
	D16((SI)(R8*2), Z4, Z5)
	D16((SI)(R9*1), Z6, Z7)
	NEXTK(8)
	JNZ     d16r4

d16st:
	CMPQ R15, $0
	JEQ  d16set
	DACC(Z0, (DI))
	DACC(Z1, 64(DI))
	CMPQ R13, $2
	JLT  d16next
	DACC(Z2, (DI)(R11*1))
	DACC(Z3, 64(DI)(R11*1))
	CMPQ R13, $3
	JLT  d16next
	DACC(Z4, (DI)(R11*2))
	DACC(Z5, 64(DI)(R11*2))
	CMPQ R13, $4
	JLT  d16next
	DACC(Z6, (DI)(R12*1))
	DACC(Z7, 64(DI)(R12*1))
	JMP  d16next

d16set:
	DSET(Z0, (DI))
	DSET(Z1, 64(DI))
	CMPQ R13, $2
	JLT  d16next
	DSET(Z2, (DI)(R11*1))
	DSET(Z3, 64(DI)(R11*1))
	CMPQ R13, $3
	JLT  d16next
	DSET(Z4, (DI)(R11*2))
	DSET(Z5, 64(DI)(R11*2))
	CMPQ R13, $4
	JLT  d16next
	DSET(Z6, (DI)(R12*1))
	DSET(Z7, 64(DI)(R12*1))

d16next:
	ADDQ $128, AX
	ADDQ $128, DI
	SUBQ $16, DX
	JMP  d16

	// Fewer than 16 columns are left: at most one full 8-wide chunk, then
	// one masked chunk for the last 1–7.
d8:
	CMPQ DX, $0
	JLE  ddone
	MASK(8)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	CHUNK
	CMPQ R13, $3
	JGT  d8r4
	JEQ  d8r3
	CMPQ R13, $2
	JEQ  d8r2

d8r1:
	VMOVUPD.Z (BX), K1, Z8
	D8((SI), Z0)
	NEXTK(8)
	JNZ       d8r1
	JMP       d8st

d8r2:
	VMOVUPD.Z (BX), K1, Z8
	D8((SI), Z0)
	D8((SI)(R8*1), Z1)
	NEXTK(8)
	JNZ       d8r2
	JMP       d8st

d8r3:
	VMOVUPD.Z (BX), K1, Z8
	D8((SI), Z0)
	D8((SI)(R8*1), Z1)
	D8((SI)(R8*2), Z2)
	NEXTK(8)
	JNZ       d8r3
	JMP       d8st

d8r4:
	VMOVUPD.Z (BX), K1, Z8
	D8((SI), Z0)
	D8((SI)(R8*1), Z1)
	D8((SI)(R8*2), Z2)
	D8((SI)(R9*1), Z3)
	NEXTK(8)
	JNZ       d8r4

d8st:
	CMPQ R15, $0
	JEQ  d8set
	DACCM(Z0, (DI))
	CMPQ R13, $2
	JLT  d8next
	DACCM(Z1, (DI)(R11*1))
	CMPQ R13, $3
	JLT  d8next
	DACCM(Z2, (DI)(R11*2))
	CMPQ R13, $4
	JLT  d8next
	DACCM(Z3, (DI)(R12*1))
	JMP  d8next

d8set:
	DSETM(Z0, (DI))
	CMPQ R13, $2
	JLT  d8next
	DSETM(Z1, (DI)(R11*1))
	CMPQ R13, $3
	JLT  d8next
	DSETM(Z2, (DI)(R11*2))
	CMPQ R13, $4
	JLT  d8next
	DSETM(Z3, (DI)(R12*1))

d8next:
	ADDQ $64, AX
	ADDQ $64, DI
	SUBQ $8, DX
	JMP  d8

ddone:
	VZEROUPPER
	RET
