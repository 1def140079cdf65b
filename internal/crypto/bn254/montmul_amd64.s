#include "textflag.h"

// montMul with MULX and the ADCX/ADOX dual carry chains: the same no-carry
// CIOS as montMulGeneric (fp.go), round for round. MULX multiplies by DX
// without touching the flags, so each round keeps two carry chains in
// flight — ADCX through CF for the high halves, ADOX through OF for the
// low ones — where the compiled Go has one ADC chain and a reload of the
// carry per product. fp2Mul, fp6Mul, fp12MulLine and fp12CyclotomicSquare
// are built from the same rows and rounds. Each entry point reads hasADX
// and jumps to its generic Go when it is false.
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

// fp6MulADX, fp12MulLineADX and fp12CyclotomicSquareADX reduce once per
// output coefficient. Until then every intermediate is an exact integer
// combination of 512-bit products: a "wide" value, nine words of the
// frame holding a signed two's-complement V that stands for the residue
// V·2⁻²⁵⁶ mod Q. Adding any multiple of Q to V leaves that residue alone.
// A wide Fq² element is two of them, real part first (144 bytes). While a
// wide value is combined it sits in the accumulator (R14, R13, CX, BX |
// R8, R9, R10, R11, R12), low word first.

// ST8 stores PRODUCT's eight words at off(SP); LD8 loads them back.
#define ST8(off) \
	MOVQ R14, off+0(SP);  \
	MOVQ R13, off+8(SP);  \
	MOVQ CX, off+16(SP);  \
	MOVQ BX, off+24(SP);  \
	MOVQ R8, off+32(SP);  \
	MOVQ R9, off+40(SP);  \
	MOVQ R10, off+48(SP); \
	MOVQ R11, off+56(SP)

#define LD8(off) \
	MOVQ off+0(SP), R14;  \
	MOVQ off+8(SP), R13;  \
	MOVQ off+16(SP), CX;  \
	MOVQ off+24(SP), BX;  \
	MOVQ off+32(SP), R8;  \
	MOVQ off+40(SP), R9;  \
	MOVQ off+48(SP), R10; \
	MOVQ off+56(SP), R11

// SUB8 subtracts the eight words at off(SP), leaving the borrow in CF.
#define SUB8(off) \
	SUBQ off+0(SP), R14;  \
	SBBQ off+8(SP), R13;  \
	SBBQ off+16(SP), CX;  \
	SBBQ off+24(SP), BX;  \
	SBBQ off+32(SP), R8;  \
	SBBQ off+40(SP), R9;  \
	SBBQ off+48(SP), R10; \
	SBBQ off+56(SP), R11

// LD9 and ST9 move the accumulator from and to the wide value at off(SP);
// ADD9 and SUB9 add it in or take it away.
#define LD9(off) \
	LD8(off); \
	MOVQ off+64(SP), R12

#define ST9(off) \
	ST8(off); \
	MOVQ R12, off+64(SP)

#define ADD9(off) \
	ADDQ off+0(SP), R14;  \
	ADCQ off+8(SP), R13;  \
	ADCQ off+16(SP), CX;  \
	ADCQ off+24(SP), BX;  \
	ADCQ off+32(SP), R8;  \
	ADCQ off+40(SP), R9;  \
	ADCQ off+48(SP), R10; \
	ADCQ off+56(SP), R11; \
	ADCQ off+64(SP), R12

#define SUB9(off) \
	SUB8(off); \
	SBBQ off+64(SP), R12

// NINE multiplies the accumulator, which must hold the wide value at
// off(SP), by nine: a shift by three, then that value once more.
#define NINE(off) \
	SHLQ $3, R11, R12; \
	SHLQ $3, R10, R11; \
	SHLQ $3, R9, R10;  \
	SHLQ $3, R8, R9;   \
	SHLQ $3, BX, R8;   \
	SHLQ $3, CX, BX;   \
	SHLQ $3, R13, CX;  \
	SHLQ $3, R14, R13; \
	SHLQ $3, R14;      \
	ADD9(off)

// THREE triples the accumulator through the nine words at 0(SP).
#define THREE \
	ST9(0);  \
	ADD9(0); \
	ADD9(0)

// FP2SUM writes the Fq² sum of the elements at i(p) and j(p), unreduced,
// to off(SP): for operands below Q, each component stays below 2Q.
#define FP2SUM(p, i, j, off) \
	MOVQ i+0(p), R14;     \
	MOVQ i+8(p), R13;     \
	MOVQ i+16(p), CX;     \
	MOVQ i+24(p), BX;     \
	ADDQ j+0(p), R14;     \
	ADCQ j+8(p), R13;     \
	ADCQ j+16(p), CX;     \
	ADCQ j+24(p), BX;     \
	MOVQ R14, off+0(SP);  \
	MOVQ R13, off+8(SP);  \
	MOVQ CX, off+16(SP);  \
	MOVQ BX, off+24(SP);  \
	MOVQ i+32(p), R14;    \
	MOVQ i+40(p), R13;    \
	MOVQ i+48(p), CX;     \
	MOVQ i+56(p), BX;     \
	ADDQ j+32(p), R14;    \
	ADCQ j+40(p), R13;    \
	ADCQ j+48(p), CX;     \
	ADCQ j+56(p), BX;     \
	MOVQ R14, off+32(SP); \
	MOVQ R13, off+40(SP); \
	MOVQ CX, off+48(SP);  \
	MOVQ BX, off+56(SP)

// FP2WIDE writes the Fq² product of the elements at SI and DI (components
// below 2Q) to the wide pair at dst(SP): a0b0 − a1b1, signed, and
// (a0+a1)(b0+b1) − a0b0 − a1b1 = a0b1 + a1b0 ≥ 0. This is fp2MulADX
// without its two reductions. Scratch: 0–191(SP). Moves SI and DI.
#define FP2WIDE(dst) \
	PRODUCT;              \
	ST8(0);               \
	ADDQ $32, SI;         \
	ADDQ $32, DI;         \
	PRODUCT;              \
	ST8(64);              \
	MOVQ -32(SI), R14;    \
	MOVQ -24(SI), R13;    \
	MOVQ -16(SI), CX;     \
	MOVQ -8(SI), BX;      \
	ADDQ 0(SI), R14;      \
	ADCQ 8(SI), R13;      \
	ADCQ 16(SI), CX;      \
	ADCQ 24(SI), BX;      \
	MOVQ R14, 128(SP);    \
	MOVQ R13, 136(SP);    \
	MOVQ CX, 144(SP);     \
	MOVQ BX, 152(SP);     \
	MOVQ -32(DI), R14;    \
	MOVQ -24(DI), R13;    \
	MOVQ -16(DI), CX;     \
	MOVQ -8(DI), BX;      \
	ADDQ 0(DI), R14;      \
	ADCQ 8(DI), R13;      \
	ADCQ 16(DI), CX;      \
	ADCQ 24(DI), BX;      \
	MOVQ R14, 160(SP);    \
	MOVQ R13, 168(SP);    \
	MOVQ CX, 176(SP);     \
	MOVQ BX, 184(SP);     \
	LEAQ 128(SP), SI;     \
	LEAQ 160(SP), DI;     \
	PRODUCT;              \
	SUB8(0);              \
	SUB8(64);             \
	ST8(dst+72);          \
	MOVQ $0, dst+136(SP); \
	LD8(0);               \
	SUB8(64);             \
	SBBQ AX, AX;          \
	ST8(dst);             \
	MOVQ AX, dst+64(SP)

// FP2SQWIDE writes the Fq² square of the element at SI (components below
// 2Q) to the wide pair at dst(SP): (a0+a1)(a0 − a1 + 2Q), which is
// a0² − a1² plus a multiple of Q, and 2a0a1, both nonnegative. Two
// products where FP2WIDE takes three. Scratch: 128–191(SP). Moves SI and
// DI.
#define FP2SQWIDE(dst) \
	LEAQ 32(SI), DI;          \
	PRODUCT;                  \
	ADDQ R14, R14;            \
	ADCQ R13, R13;            \
	ADCQ CX, CX;              \
	ADCQ BX, BX;              \
	ADCQ R8, R8;              \
	ADCQ R9, R9;              \
	ADCQ R10, R10;            \
	ADCQ R11, R11;            \
	ST8(dst+72);              \
	MOVQ $0, dst+136(SP);     \
	MOVQ 0(SI), R14;          \
	MOVQ 8(SI), R13;          \
	MOVQ 16(SI), CX;          \
	MOVQ 24(SI), BX;          \
	MOVQ R14, R8;             \
	MOVQ R13, R9;             \
	MOVQ CX, R10;             \
	MOVQ BX, R11;             \
	ADDQ 32(SI), R14;         \
	ADCQ 40(SI), R13;         \
	ADCQ 48(SI), CX;          \
	ADCQ 56(SI), BX;          \
	MOVQ R14, 128(SP);        \
	MOVQ R13, 136(SP);        \
	MOVQ CX, 144(SP);         \
	MOVQ BX, 152(SP);         \
	SUBQ 32(SI), R8;          \
	SBBQ 40(SI), R9;          \
	SBBQ 48(SI), R10;         \
	SBBQ 56(SI), R11;         \
	ADDQ ·fpTwoQ+0(SB), R8;   \
	ADCQ ·fpTwoQ+8(SB), R9;   \
	ADCQ ·fpTwoQ+16(SB), R10; \
	ADCQ ·fpTwoQ+24(SB), R11; \
	MOVQ R8, 160(SP);         \
	MOVQ R9, 168(SP);         \
	MOVQ R10, 176(SP);        \
	MOVQ R11, 184(SP);        \
	LEAQ 128(SP), SI;         \
	LEAQ 160(SP), DI;         \
	PRODUCT;                  \
	ST8(dst);                 \
	MOVQ $0, dst+64(SP)

// ADDX1 adds x·2²⁵⁶, the wide value whose residue is x, for the Fq element
// x at off(SI); SUBX1 takes it away. ADDX2 and SUBX2 do so twice.
#define SUBX1(off) \
	SUBQ off+0(SI), R8;   \
	SBBQ off+8(SI), R9;   \
	SBBQ off+16(SI), R10; \
	SBBQ off+24(SI), R11; \
	SBBQ $0, R12

#define SUBX2(off) \
	SUBX1(off); \
	SUBX1(off)

#define ADDX1(off) \
	ADDQ off+0(SI), R8;   \
	ADCQ off+8(SI), R9;   \
	ADCQ off+16(SI), R10; \
	ADCQ off+24(SI), R11; \
	ADCQ $0, R12

#define ADDX2(off) \
	ADDX1(off); \
	ADDX1(off)

// FINISH writes the residue of the accumulator V to off(DI), for
// −80Q·2²⁵⁶ ≤ V < 96Q·2²⁵⁶ (Q·2²⁵⁶ ≈ 5.29Q²). Adding fpWideOffset = 80Q
// to the high half h = ⌊V/2²⁵⁶⌋ makes it 0 ≤ h < 176Q. The low half goes
// through REDC's four rounds, which leave at most Q, and h is added back:
// r = (V + 80Q·2²⁵⁶ + M·Q)/2²⁵⁶ < 177Q, five words. Taking away k·Q for
// nineXQuotient's estimate k of ⌊r/Q⌋ leaves r < 2Q, which STORE's one
// subtraction finishes. Uses the five words at st(SP); clobbers AX, DX,
// SI, R15 and R8–R12.
#define FINISH(off, st) \
	ADDQ ·fpWideOffset+0(SB), R8;   \
	ADCQ ·fpWideOffset+8(SB), R9;   \
	ADCQ ·fpWideOffset+16(SB), R10; \
	ADCQ ·fpWideOffset+24(SB), R11; \
	ADCQ ·fpWideOffset+32(SB), R12; \
	MOVQ  R8, st+0(SP);   \
	MOVQ  R9, st+8(SP);   \
	MOVQ  R10, st+16(SP); \
	MOVQ  R11, st+24(SP); \
	MOVQ  R12, st+32(SP); \
	XORQ  R8, R8;         \
	MOVQ  Q0, R10;        \
	MOVQ  Q1, R11;        \
	MOVQ  Q2, R12;        \
	MOVQ  Q3, R15;        \
	REDUCE;               \
	REDUCE;               \
	REDUCE;               \
	REDUCE;               \
	ADDQ  st+0(SP), R14;  \
	ADCQ  st+8(SP), R13;  \
	ADCQ  st+16(SP), CX;  \
	ADCQ  st+24(SP), BX;  \
	ADCQ  st+32(SP), R8;  \
	MOVQ  BX, DX;         \
	SHRQ  $58, DX;        \
	MOVQ  R8, AX;         \
	SHLQ  $6, AX;         \
	ORQ   AX, DX;         \
	IMUL3Q $338, DX, DX;  \
	SHRQ  $12, DX;        \
	MULXQ R10, AX, R9;    \
	SUBQ  AX, R14;        \
	MOVQ  R9, st+0(SP);   \
	MULXQ R11, AX, R9;    \
	SBBQ  AX, R13;        \
	MOVQ  R9, st+8(SP);   \
	MULXQ R12, AX, R9;    \
	SBBQ  AX, CX;         \
	MOVQ  R9, st+16(SP);  \
	MULXQ R15, AX, R9;    \
	SBBQ  AX, BX;         \
	SUBQ  st+0(SP), R13;  \
	SBBQ  st+8(SP), CX;   \
	SBBQ  st+16(SP), BX;  \
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
	ST8(0)

	ADDQ $32, SI
	ADDQ $32, DI
	PRODUCT
	ST8(64)

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
	SUB8(0)
	SUB8(64)
	MOVQ z+0(FP), DI
	REDC(32)

	// c0 = a0b0 − a1b1, with Q added to the high half under the borrow's
	// mask (R12).
	LD8(0)
	SUB8(64)
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

// func fp6Mul(z, x, y *fp6)
TEXT ·fp6Mul(SB), NOSPLIT, $0-24
	CMPB ·hasADX(SB), $0
	JEQ  generic
	JMP  ·fp6MulADX(SB)

generic:
	JMP ·fp6MulGeneric(SB)

// fp6MulADX is fp6MulGeneric's Karatsuba over wide Fq² products, for x
// and y with components below Q: t_i = a_i·b_i and u_ij = (a_i+a_j)(b_i+b_j)
// are six FP2WIDE, 18 products, and each output coefficient
//
//	c0 = t0 + ξ(u12 − t1 − t2)
//	c1 = (u01 − t0 − t1) + ξ·t2
//	c2 = u02 − t0 − t2 + t1
//
// is combined wide, with ξ(r + s·i) = (9r − s) + (9s + r)·i, and reduced
// once: six reductions where six fp2Mul calls pay twelve, and no
// reduction in any sum, difference or product by ξ. Since a − b here is
// exactly the cross term a_i·b_j + a_j·b_i, every coefficient lies in
// (−23Q², 40Q²), inside FINISH's range.
//
// Frame: FP2WIDE's scratch at 0, FINISH's at 192, the operand sums at 232
// and 296, and the wide pairs t0 360, t1 504, t2 648, u01 792, u02 936
// and u12 1080; u01 and u12 are overwritten by the cross terms.
//
// func fp6MulADX(z, x, y *fp6)
TEXT ·fp6MulADX(SB), $1224-24
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	FP2WIDE(360)
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	ADDQ $64, SI
	ADDQ $64, DI
	FP2WIDE(504)
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	ADDQ $128, SI
	ADDQ $128, DI
	FP2WIDE(648)

	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	FP2SUM(SI, 0, 64, 232)
	FP2SUM(DI, 0, 64, 296)
	LEAQ 232(SP), SI
	LEAQ 296(SP), DI
	FP2WIDE(792)
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	FP2SUM(SI, 0, 128, 232)
	FP2SUM(DI, 0, 128, 296)
	LEAQ 232(SP), SI
	LEAQ 296(SP), DI
	FP2WIDE(936)
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	FP2SUM(SI, 64, 128, 232)
	FP2SUM(DI, 64, 128, 296)
	LEAQ 232(SP), SI
	LEAQ 296(SP), DI
	FP2WIDE(1080)

	// The cross terms u01 − t0 − t1 and u12 − t1 − t2, in place.
	LD9(792)
	SUB9(360)
	SUB9(504)
	ST9(792)
	LD9(864)
	SUB9(432)
	SUB9(576)
	ST9(864)
	LD9(1080)
	SUB9(504)
	SUB9(648)
	ST9(1080)
	LD9(1152)
	SUB9(576)
	SUB9(720)
	ST9(1152)

	// x and y have been read in full, so z may alias either.
	MOVQ z+0(FP), DI

	// c0 = t0 + ξ(u12 − t1 − t2)
	LD9(1080)
	NINE(1080)
	SUB9(1152)
	ADD9(360)
	FINISH(0, 192)
	LD9(1152)
	NINE(1152)
	ADD9(1080)
	ADD9(432)
	FINISH(32, 192)

	// c1 = (u01 − t0 − t1) + ξ·t2
	LD9(648)
	NINE(648)
	SUB9(720)
	ADD9(792)
	FINISH(64, 192)
	LD9(720)
	NINE(720)
	ADD9(648)
	ADD9(864)
	FINISH(96, 192)

	// c2 = u02 − t0 − t2 + t1
	LD9(936)
	SUB9(360)
	SUB9(648)
	ADD9(504)
	FINISH(128, 192)
	LD9(1008)
	SUB9(432)
	SUB9(720)
	ADD9(576)
	FINISH(160, 192)
	RET

// func fp12CyclotomicSquare(z, x *fp12)
TEXT ·fp12CyclotomicSquare(SB), NOSPLIT, $0-16
	CMPB ·hasADX(SB), $0
	JEQ  generic
	JMP  ·fp12CyclotomicSquareADX(SB)

generic:
	JMP ·fp12CyclotomicSquareGeneric(SB)

// fp12CyclotomicSquareADX is fp12CyclotomicSquareGeneric's Granger–Scott
// squaring with one reduction per output coefficient. The twelve
// coefficients pair up as three Fq⁴ squarings of (a, b) — (c1.b1, c0.b0),
// (c0.b2, c1.b0) and (c1.b2, c0.b1) at offsets (256, 0), (128, 192) and
// (320, 64) — each from the wide squares a², b² and (a+b)² (FP2SQWIDE,
// six products): A = ξa² + b² and B = (a+b)² − a² − b² = 2ab. Each
// output is 3A − 2x or 3B + 2x for the input coefficient x it replaces:
// c0.b0, c0.b1 and c0.b2 take the A's, c1.b1, c1.b2 and c1.b0 the B's
// (ξB for the third pair), with 2x·2²⁵⁶ standing for 2x. That is 18
// products and 12 reductions where the generic code pays 18 montMul and
// 27 reduced Fq² sums. The widest coefficient, 3ξB + 2x, lies in
// (−336Q², 443Q²), inside FINISH's range.
//
// Frame: 0–71 THREE's temporary, 128–191 FP2SQWIDE's scratch, FINISH's
// at 192, a + b at 232, the third pair's B at 296, then per pair a², b²
// and (a+b)² at 440, 584, 728; 872, 1016, 1160; 1304, 1448, 1592.
//
// func fp12CyclotomicSquareADX(z, x *fp12)
TEXT ·fp12CyclotomicSquareADX(SB), $1736-16
	MOVQ x+8(FP), SI
	ADDQ $256, SI
	FP2SQWIDE(440)
	MOVQ x+8(FP), SI
	FP2SQWIDE(584)
	MOVQ x+8(FP), SI
	FP2SUM(SI, 256, 0, 232)
	LEAQ 232(SP), SI
	FP2SQWIDE(728)

	MOVQ x+8(FP), SI
	ADDQ $128, SI
	FP2SQWIDE(872)
	MOVQ x+8(FP), SI
	ADDQ $192, SI
	FP2SQWIDE(1016)
	MOVQ x+8(FP), SI
	FP2SUM(SI, 128, 192, 232)
	LEAQ 232(SP), SI
	FP2SQWIDE(1160)

	MOVQ x+8(FP), SI
	ADDQ $320, SI
	FP2SQWIDE(1304)
	MOVQ x+8(FP), SI
	ADDQ $64, SI
	FP2SQWIDE(1448)
	MOVQ x+8(FP), SI
	FP2SUM(SI, 320, 64, 232)
	LEAQ 232(SP), SI
	FP2SQWIDE(1592)

	// Every square is taken, and each output below reads only the input
	// coefficient it overwrites, so z may alias x.
	MOVQ z+0(FP), DI

	// c0.b0 = 3(ξ·c1.b1² + c0.b0²) − 2·c0.b0
	LD9(440)
	NINE(440)
	SUB9(512)
	ADD9(584)
	THREE
	MOVQ x+8(FP), SI
	SUBX2(0)
	FINISH(0, 192)
	LD9(512)
	NINE(512)
	ADD9(440)
	ADD9(656)
	THREE
	MOVQ x+8(FP), SI
	SUBX2(32)
	FINISH(32, 192)

	// c1.b1 = 3·2(c1.b1·c0.b0) + 2·c1.b1
	LD9(728)
	SUB9(440)
	SUB9(584)
	THREE
	MOVQ x+8(FP), SI
	ADDX2(256)
	FINISH(256, 192)
	LD9(800)
	SUB9(512)
	SUB9(656)
	THREE
	MOVQ x+8(FP), SI
	ADDX2(288)
	FINISH(288, 192)

	// c0.b1 = 3(ξ·c0.b2² + c1.b0²) − 2·c0.b1
	LD9(872)
	NINE(872)
	SUB9(944)
	ADD9(1016)
	THREE
	MOVQ x+8(FP), SI
	SUBX2(64)
	FINISH(64, 192)
	LD9(944)
	NINE(944)
	ADD9(872)
	ADD9(1088)
	THREE
	MOVQ x+8(FP), SI
	SUBX2(96)
	FINISH(96, 192)

	// c1.b2 = 3·2(c0.b2·c1.b0) + 2·c1.b2
	LD9(1160)
	SUB9(872)
	SUB9(1016)
	THREE
	MOVQ x+8(FP), SI
	ADDX2(320)
	FINISH(320, 192)
	LD9(1232)
	SUB9(944)
	SUB9(1088)
	THREE
	MOVQ x+8(FP), SI
	ADDX2(352)
	FINISH(352, 192)

	// c0.b2 = 3(ξ·c1.b2² + c0.b1²) − 2·c0.b2
	LD9(1304)
	NINE(1304)
	SUB9(1376)
	ADD9(1448)
	THREE
	MOVQ x+8(FP), SI
	SUBX2(128)
	FINISH(128, 192)
	LD9(1376)
	NINE(1376)
	ADD9(1304)
	ADD9(1520)
	THREE
	MOVQ x+8(FP), SI
	SUBX2(160)
	FINISH(160, 192)

	// c1.b0 = 3ξ·2(c1.b2·c0.b1) + 2·c1.b0, through B at 296.
	LD9(1592)
	SUB9(1304)
	SUB9(1448)
	ST9(296)
	LD9(1664)
	SUB9(1376)
	SUB9(1520)
	ST9(368)
	LD9(296)
	NINE(296)
	SUB9(368)
	THREE
	MOVQ x+8(FP), SI
	ADDX2(192)
	FINISH(192, 192)
	LD9(368)
	NINE(368)
	ADD9(296)
	THREE
	MOVQ x+8(FP), SI
	ADDX2(224)
	FINISH(224, 192)
	RET

// func fp12MulLine(f *fp12, d *[2]fp2)
TEXT ·fp12MulLine(SB), NOSPLIT, $0-16
	CMPB ·hasADX(SB), $0
	JEQ  generic
	JMP  ·fp12MulLineADX(SB)

generic:
	JMP ·fp12MulLineGeneric(SB)

// fp12MulLineADX is fp12MulLineGeneric with one reduction per output
// coefficient. For f = A + B·w and L = d0 + d1·v it forms, wide, the five
// products a0d0, a1d1, a2d0, a2d1 and (a0+a1)(d0+d1) of A·L, and the same
// five of B·L (30 products), then
//
//	A' = A + v·B·L = (a0 + ξ(b1d1 + b2d0), a1 + b0d0 + ξ·b2d1, a2 + b0d1 + b1d0)
//	B' = B + A·L   = (b0 + a0d0 + ξ·a2d1, b1 + a0d1 + a1d0, b2 + a1d1 + a2d0)
//
// with each input coefficient x added as x·2²⁵⁶: twelve reductions where
// two fp6Mul01 pay twenty, and no reduced sum. The widest coefficient,
// x + ξ(b1d1 + b2d0), lies in (−22Q², 44Q²), inside FINISH's range.
//
// Frame: FP2WIDE's scratch at 0, FINISH's at 192, a0 + a1 (then b0 + b1)
// at 232, d0 + d1 at 296; A's wide products a0d0 360, a1d1 504, a2d0
// 648, a2d1 792, (a0+a1)(d0+d1) 936, B's at 1080, 1224, 1368, 1512, 1656;
// b1d1 + b2d0 at 1800.
//
// func fp12MulLineADX(f *fp12, d *[2]fp2)
TEXT ·fp12MulLineADX(SB), $1944-16
	MOVQ f+0(FP), SI
	MOVQ d+8(FP), DI
	FP2WIDE(360)
	MOVQ f+0(FP), SI
	MOVQ d+8(FP), DI
	ADDQ $64, SI
	ADDQ $64, DI
	FP2WIDE(504)
	MOVQ f+0(FP), SI
	MOVQ d+8(FP), DI
	ADDQ $128, SI
	FP2WIDE(648)
	MOVQ f+0(FP), SI
	MOVQ d+8(FP), DI
	ADDQ $128, SI
	ADDQ $64, DI
	FP2WIDE(792)
	MOVQ f+0(FP), SI
	MOVQ d+8(FP), DI
	FP2SUM(SI, 0, 64, 232)
	FP2SUM(DI, 0, 64, 296)
	LEAQ 232(SP), SI
	LEAQ 296(SP), DI
	FP2WIDE(936)

	MOVQ f+0(FP), SI
	MOVQ d+8(FP), DI
	ADDQ $192, SI
	FP2WIDE(1080)
	MOVQ f+0(FP), SI
	MOVQ d+8(FP), DI
	ADDQ $256, SI
	ADDQ $64, DI
	FP2WIDE(1224)
	MOVQ f+0(FP), SI
	MOVQ d+8(FP), DI
	ADDQ $320, SI
	FP2WIDE(1368)
	MOVQ f+0(FP), SI
	MOVQ d+8(FP), DI
	ADDQ $320, SI
	ADDQ $64, DI
	FP2WIDE(1512)
	MOVQ f+0(FP), SI
	FP2SUM(SI, 192, 256, 232)
	LEAQ 232(SP), SI
	LEAQ 296(SP), DI
	FP2WIDE(1656)

	// Every product is taken, and each output below adds only the input
	// coefficient it overwrites.
	MOVQ f+0(FP), DI

	// a0' = a0 + ξ(b1d1 + b2d0)
	LD9(1224)
	ADD9(1368)
	ST9(1800)
	LD9(1296)
	ADD9(1440)
	ST9(1872)
	LD9(1800)
	NINE(1800)
	SUB9(1872)
	MOVQ DI, SI
	ADDX1(0)
	FINISH(0, 192)
	LD9(1872)
	NINE(1872)
	ADD9(1800)
	MOVQ DI, SI
	ADDX1(32)
	FINISH(32, 192)

	// a1' = a1 + b0d0 + ξ·b2d1
	LD9(1512)
	NINE(1512)
	SUB9(1584)
	ADD9(1080)
	MOVQ DI, SI
	ADDX1(64)
	FINISH(64, 192)
	LD9(1584)
	NINE(1584)
	ADD9(1512)
	ADD9(1152)
	MOVQ DI, SI
	ADDX1(96)
	FINISH(96, 192)

	// a2' = a2 + (b0+b1)(d0+d1) − b0d0 − b1d1
	LD9(1656)
	SUB9(1080)
	SUB9(1224)
	MOVQ DI, SI
	ADDX1(128)
	FINISH(128, 192)
	LD9(1728)
	SUB9(1152)
	SUB9(1296)
	MOVQ DI, SI
	ADDX1(160)
	FINISH(160, 192)

	// b0' = b0 + a0d0 + ξ·a2d1
	LD9(792)
	NINE(792)
	SUB9(864)
	ADD9(360)
	MOVQ DI, SI
	ADDX1(192)
	FINISH(192, 192)
	LD9(864)
	NINE(864)
	ADD9(792)
	ADD9(432)
	MOVQ DI, SI
	ADDX1(224)
	FINISH(224, 192)

	// b1' = b1 + (a0+a1)(d0+d1) − a0d0 − a1d1
	LD9(936)
	SUB9(360)
	SUB9(504)
	MOVQ DI, SI
	ADDX1(256)
	FINISH(256, 192)
	LD9(1008)
	SUB9(432)
	SUB9(576)
	MOVQ DI, SI
	ADDX1(288)
	FINISH(288, 192)

	// b2' = b2 + a1d1 + a2d0
	LD9(504)
	ADD9(648)
	MOVQ DI, SI
	ADDX1(320)
	FINISH(320, 192)
	LD9(576)
	ADD9(720)
	MOVQ DI, SI
	ADDX1(352)
	FINISH(352, 192)
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
