#include "textflag.h"

// montMul with MULX and the ADCX/ADOX dual carry chains: the same no-carry
// CIOS as montMulGeneric (fp.go), round for round. MULX multiplies by DX
// without touching the flags, so each round keeps two carry chains in
// flight — ADCX through CF for the high halves, ADOX through OF for the
// low ones — where the compiled Go has one ADC chain and a reload of the
// carry per product. fp2Mul is built from the same rows and rounds. Both
// read hasADX on entry and jump to their generic Go when it is false.
//
// Registers: t = (R14, R13, CX, BX) and the spill word R8; Q's limbs in
// R10, R11, R12, R15; x in SI and y in DI, read through memory operands;
// AX and R9 are scratch. BP is left alone.

#define Q0 $0x3c208c16d87cfd47
#define Q1 $0x97816a916871ca8d
#define Q2 $0xb85045b68181585d
#define Q3 $0x30644e72e131a029

// ROW0 sets (a, b, c, d, e) = x[0]·y.
#define ROW0(a, b, c, d, e) \
	MOVQ  0(SI), DX;   \
	XORQ  AX, AX;      \
	MULXQ 0(DI), a, b; \
	MULXQ 8(DI), AX, c; \
	ADCXQ AX, b;       \
	MULXQ 16(DI), AX, d; \
	ADCXQ AX, c;       \
	MULXQ 24(DI), AX, e; \
	ADCXQ AX, d;       \
	MOVQ  $0, AX;      \
	ADCXQ AX, e

// ROW adds x[off/8]·y to (a, b, c, d) and sets the word above them, e.
#define ROW(off, a, b, c, d, e) \
	MOVQ  off(SI), DX; \
	XORQ  AX, AX;      \
	MULXQ 0(DI), AX, e; \
	ADOXQ AX, a;       \
	ADCXQ e, b;        \
	MULXQ 8(DI), AX, e; \
	ADOXQ AX, b;       \
	ADCXQ e, c;        \
	MULXQ 16(DI), AX, e; \
	ADOXQ AX, c;       \
	ADCXQ e, d;        \
	MULXQ 24(DI), AX, e; \
	ADOXQ AX, d;       \
	MOVQ  $0, AX;      \
	ADCXQ AX, e;       \
	ADOXQ AX, e

// REDUCE sets t = (t + R8·2²⁵⁶ + m·Q)/2⁶⁴ with m = t[0]·(−Q⁻¹) mod 2⁶⁴,
// which cancels the low word. Each m·Q[j]'s high half lands in the
// register t[j] has just been read out of.
#define REDUCE \
	MOVQ  $0x87d20782e4866389, DX; \
	IMULQ R14, DX;     \
	XORQ  AX, AX;      \
	MULXQ R10, AX, R9; \
	ADCXQ R14, AX;     \
	MOVQ  R9, R14;     \
	ADCXQ R13, R14;    \
	MULXQ R11, AX, R13; \
	ADOXQ AX, R14;     \
	ADCXQ CX, R13;     \
	MULXQ R12, AX, CX; \
	ADOXQ AX, R13;     \
	ADCXQ BX, CX;      \
	MULXQ R15, AX, BX; \
	ADOXQ AX, CX;      \
	MOVQ  $0, AX;      \
	ADCXQ AX, BX;      \
	ADOXQ R8, BX

// STORE writes t − Q to off(DI), or t where that borrows (t < 2Q).
// Clobbers AX, DX, SI and R8.
#define STORE(off) \
	MOVQ    R14, AX;   \
	SUBQ    R10, R14;  \
	MOVQ    R13, DX;   \
	SBBQ    R11, R13;  \
	MOVQ    CX, SI;    \
	SBBQ    R12, CX;   \
	MOVQ    BX, R8;    \
	SBBQ    R15, BX;   \
	CMOVQCS AX, R14;   \
	CMOVQCS DX, R13;   \
	CMOVQCS SI, CX;    \
	CMOVQCS R8, BX;    \
	MOVQ    R14, off+0(DI); \
	MOVQ    R13, off+8(DI); \
	MOVQ    CX, off+16(DI); \
	MOVQ    BX, off+24(DI)

// PRODUCT sets (R14, R13, CX, BX, R8, R9, R10, R11) = x·y, the full
// 512-bit product of the four words at SI and the four at DI.
#define PRODUCT \
	ROW0(R14, R13, CX, BX, R8); \
	ROW(8, R13, CX, BX, R8, R9); \
	ROW(16, CX, BX, R8, R9, R10); \
	ROW(24, BX, R8, R9, R10, R11)

// REDC writes T·2⁻²⁵⁶ mod Q to off(DI) for T = (R14, …, R11) < Q·2²⁵⁶.
// Its low half goes through four REDUCE rounds with a zero spill, which
// leaves (T_low + M·Q)/2²⁵⁶ ≤ Q; adding the high half (< Q) gives
// (T + M·Q)/2²⁵⁶ < 2Q, and STORE subtracts once. The high half waits in
// 192(SP) while R8–R11 are taken back for the spill and Q.
#define REDC(off) \
	MOVQ R8, 192(SP);  \
	MOVQ R9, 200(SP);  \
	MOVQ R10, 208(SP); \
	MOVQ R11, 216(SP); \
	XORQ R8, R8;       \
	MOVQ Q0, R10;      \
	MOVQ Q1, R11;      \
	MOVQ Q2, R12;      \
	MOVQ Q3, R15;      \
	REDUCE;            \
	REDUCE;            \
	REDUCE;            \
	REDUCE;            \
	ADDQ 192(SP), R14; \
	ADCQ 200(SP), R13; \
	ADCQ 208(SP), CX;  \
	ADCQ 216(SP), BX;  \
	STORE(off)

// func montMul(z, x, y *fp)
TEXT ·montMul(SB), NOSPLIT, $0-24
	CMPB ·hasADX(SB), $0
	JEQ  generic

	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ Q0, R10
	MOVQ Q1, R11
	MOVQ Q2, R12
	MOVQ Q3, R15

	ROW0(R14, R13, CX, BX, R8)
	REDUCE
	ROW(8, R14, R13, CX, BX, R8)
	REDUCE
	ROW(16, R14, R13, CX, BX, R8)
	REDUCE
	ROW(24, R14, R13, CX, BX, R8)
	REDUCE

	// x and y have been read in full, so z may alias either.
	MOVQ z+0(FP), DI
	STORE(0)
	RET

generic:
	JMP ·montMulGeneric(SB)

// func fp2Mul(z, x, y *fp2)
TEXT ·fp2Mul(SB), NOSPLIT, $0-24
	CMPB ·hasADX(SB), $0
	JEQ  generic
	JMP  ·fp2MulADX(SB)

generic:
	JMP ·fp2MulGeneric(SB)

// fp2MulADX is Karatsuba with lazy reduction, for x and y below Q: the
// three products a0b0, a1b1 and (a0+a1)(b0+b1) at full width, then
// c1 = (a0+a1)(b0+b1) − a0b0 − a1b1 < 2Q² and c0 = a0b0 − a1b1 (plus
// Q·2²⁵⁶ when negative) < Q·2²⁵⁶ reduced once each: two reductions where
// fp2MulGeneric's three montMul calls pay three.
//
// Frame: a0b0 at 0(SP), a1b1 at 64(SP), a0+a1 at 128(SP), b0+b1 at
// 160(SP), REDC's high half at 192(SP).
//
// func fp2MulADX(z, x, y *fp2)
TEXT ·fp2MulADX(SB), NOSPLIT, $224-24
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	PRODUCT
	MOVQ R14, 0(SP)
	MOVQ R13, 8(SP)
	MOVQ CX, 16(SP)
	MOVQ BX, 24(SP)
	MOVQ R8, 32(SP)
	MOVQ R9, 40(SP)
	MOVQ R10, 48(SP)
	MOVQ R11, 56(SP)

	ADDQ $32, SI
	ADDQ $32, DI
	PRODUCT
	MOVQ R14, 64(SP)
	MOVQ R13, 72(SP)
	MOVQ CX, 80(SP)
	MOVQ BX, 88(SP)
	MOVQ R8, 96(SP)
	MOVQ R9, 104(SP)
	MOVQ R10, 112(SP)
	MOVQ R11, 120(SP)

	// a0 + a1 and b0 + b1, both below 2Q: no carry out of the top word.
	MOVQ -32(SI), R14
	MOVQ -24(SI), R13
	MOVQ -16(SI), CX
	MOVQ -8(SI), BX
	ADDQ 0(SI), R14
	ADCQ 8(SI), R13
	ADCQ 16(SI), CX
	ADCQ 24(SI), BX
	MOVQ R14, 128(SP)
	MOVQ R13, 136(SP)
	MOVQ CX, 144(SP)
	MOVQ BX, 152(SP)
	MOVQ -32(DI), R14
	MOVQ -24(DI), R13
	MOVQ -16(DI), CX
	MOVQ -8(DI), BX
	ADDQ 0(DI), R14
	ADCQ 8(DI), R13
	ADCQ 16(DI), CX
	ADCQ 24(DI), BX
	MOVQ R14, 160(SP)
	MOVQ R13, 168(SP)
	MOVQ CX, 176(SP)
	MOVQ BX, 184(SP)

	LEAQ 128(SP), SI
	LEAQ 160(SP), DI
	PRODUCT

	// c1 = (a0+a1)(b0+b1) − a0b0 − a1b1. x and y have been read in
	// full, so z may alias either.
	SUBQ 0(SP), R14
	SBBQ 8(SP), R13
	SBBQ 16(SP), CX
	SBBQ 24(SP), BX
	SBBQ 32(SP), R8
	SBBQ 40(SP), R9
	SBBQ 48(SP), R10
	SBBQ 56(SP), R11
	SUBQ 64(SP), R14
	SBBQ 72(SP), R13
	SBBQ 80(SP), CX
	SBBQ 88(SP), BX
	SBBQ 96(SP), R8
	SBBQ 104(SP), R9
	SBBQ 112(SP), R10
	SBBQ 120(SP), R11
	MOVQ z+0(FP), DI
	REDC(32)

	// c0 = a0b0 − a1b1, with Q added to the high half under the borrow's
	// mask (R12).
	MOVQ 0(SP), R14
	MOVQ 8(SP), R13
	MOVQ 16(SP), CX
	MOVQ 24(SP), BX
	MOVQ 32(SP), R8
	MOVQ 40(SP), R9
	MOVQ 48(SP), R10
	MOVQ 56(SP), R11
	SUBQ 64(SP), R14
	SBBQ 72(SP), R13
	SBBQ 80(SP), CX
	SBBQ 88(SP), BX
	SBBQ 96(SP), R8
	SBBQ 104(SP), R9
	SBBQ 112(SP), R10
	SBBQ 120(SP), R11
	SBBQ R12, R12
	MOVQ Q0, AX
	ANDQ R12, AX
	MOVQ Q1, DX
	ANDQ R12, DX
	MOVQ Q2, SI
	ANDQ R12, SI
	MOVQ Q3, R15
	ANDQ R12, R15
	ADDQ AX, R8
	ADCQ DX, R9
	ADCQ SI, R10
	ADCQ R15, R11
	REDC(0)
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET
