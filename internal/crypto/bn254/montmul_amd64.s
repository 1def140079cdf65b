#include "textflag.h"

// montMul with MULX and the ADCX/ADOX dual carry chains: the same no-carry
// CIOS as montMulGeneric (fp.go), round for round. MULX multiplies by DX
// without touching the flags, so each round keeps two carry chains in
// flight — ADCX through CF for the high halves, ADOX through OF for the
// low ones — where the compiled Go has one ADC chain and a reload of the
// carry per product. fp2Mul, fp6Mul, fp12Mul, fp12Square, fp12MulLine and
// fp12CyclotomicSquare are built from the same rows and rounds. Each entry
// point reads hasADX and jumps to its generic Go when it is false.
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

// fp6MulADX and the Fq¹² kernels reduce once per output coefficient.
// Until then every intermediate is an exact integer combination of 512-bit
// products: a "wide" value, nine words of the frame holding a signed
// two's-complement V that stands for the residue V·2⁻²⁵⁶ mod Q. Adding
// any multiple of Q to V leaves that residue alone. A wide Fq² element is
// two of them, real part first (144 bytes). While a wide value is
// combined it sits in the accumulator (R14, R13, CX, BX | R8, R9, R10,
// R11, R12), low word first.

// ST8B stores PRODUCT's eight words at off(b), for a base register b;
// LD8B loads them back. Each macro on wide values has this …B form, and
// a form without the B for the frame, b = SP.
#define ST8B(off, b) \
	MOVQ R14, off+0(b);  \
	MOVQ R13, off+8(b);  \
	MOVQ CX, off+16(b);  \
	MOVQ BX, off+24(b);  \
	MOVQ R8, off+32(b);  \
	MOVQ R9, off+40(b);  \
	MOVQ R10, off+48(b); \
	MOVQ R11, off+56(b)

#define LD8B(off, b) \
	MOVQ off+0(b), R14;  \
	MOVQ off+8(b), R13;  \
	MOVQ off+16(b), CX;  \
	MOVQ off+24(b), BX;  \
	MOVQ off+32(b), R8;  \
	MOVQ off+40(b), R9;  \
	MOVQ off+48(b), R10; \
	MOVQ off+56(b), R11

// SUB8B subtracts the eight words at off(b), leaving the borrow in CF.
#define SUB8B(off, b) \
	SUBQ off+0(b), R14;  \
	SBBQ off+8(b), R13;  \
	SBBQ off+16(b), CX;  \
	SBBQ off+24(b), BX;  \
	SBBQ off+32(b), R8;  \
	SBBQ off+40(b), R9;  \
	SBBQ off+48(b), R10; \
	SBBQ off+56(b), R11

// LD9B and ST9B move the accumulator from and to the wide value at
// off(b); ADD9B and SUB9B add it in or take it away.
#define LD9B(off, b) \
	LD8B(off, b); \
	MOVQ off+64(b), R12

#define ST9B(off, b) \
	ST8B(off, b); \
	MOVQ R12, off+64(b)

#define ADD9B(off, b) \
	ADDQ off+0(b), R14;  \
	ADCQ off+8(b), R13;  \
	ADCQ off+16(b), CX;  \
	ADCQ off+24(b), BX;  \
	ADCQ off+32(b), R8;  \
	ADCQ off+40(b), R9;  \
	ADCQ off+48(b), R10; \
	ADCQ off+56(b), R11; \
	ADCQ off+64(b), R12

#define SUB9B(off, b) \
	SUB8B(off, b); \
	SBBQ off+64(b), R12

// NINEB multiplies the accumulator, which must hold the wide value at
// off(b), by nine: a shift by three, then that value once more.
#define NINEB(off, b) \
	SHLQ $3, R11, R12; \
	SHLQ $3, R10, R11; \
	SHLQ $3, R9, R10;  \
	SHLQ $3, R8, R9;   \
	SHLQ $3, BX, R8;   \
	SHLQ $3, CX, BX;   \
	SHLQ $3, R13, CX;  \
	SHLQ $3, R14, R13; \
	SHLQ $3, R14;      \
	ADD9B(off, b)

#define ST8(off) ST8B(off, SP)
#define LD8(off) LD8B(off, SP)
#define SUB8(off) SUB8B(off, SP)
#define LD9(off) LD9B(off, SP)
#define ST9(off) ST9B(off, SP)
#define ADD9(off) ADD9B(off, SP)
#define SUB9(off) SUB9B(off, SP)
#define NINE(off) NINEB(off, SP)
#define STW8(off) ST8B(off, R15)

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
// below 2Q) to the wide pair at dst(SP) through fp2WideADX. Moves SI and
// DI; clobbers AX, DX, R15 and R8–R11.
#define FP2WIDE(dst) \
	LEAQ dst(SP), R15; \
	CALL ·fp2WideADX(SB)

// FP2SQWIDE writes the Fq² square of the element at SI (components below
// 2Q) to the wide pair at dst(SP) through fp2SqWideADX. Moves SI and DI;
// clobbers AX, DX, R15 and R8–R11.
#define FP2SQWIDE(dst) \
	LEAQ dst(SP), R15; \
	CALL ·fp2SqWideADX(SB)

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

// SUBKQ takes k·Q away from the five-word r = (R14, R13, CX, BX, R8) <
// 177Q, for nineXQuotient's estimate k of ⌊r/Q⌋, which leaves r < 2Q in
// the low four words. Needs Q in R10, R11, R12, R15 and three words at
// st(SP); clobbers AX, DX and R9.
#define SUBKQ(st) \
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
	SBBQ  st+16(SP), BX

// FINISH writes the residue of the wide accumulator to off(DI) through
// wideFinishADX. Clobbers AX, DX, SI, R15 and R8–R12.
#define FINISH(off) \
	ADDQ $off, DI;          \
	CALL ·wideFinishADX(SB); \
	SUBQ $off, DI

// FP6WIDE writes the Fq⁶ product of the elements whose addresses are at
// xp(SP) and yp(SP) (components below Q) to dst(SP), as three wide Fq²
// pairs c0, c1 and c2 at dst, dst+144 and dst+288: t_i = a_i·b_i and
// u_ij = (a_i+a_j)(b_i+b_j), six FP2WIDE, 18 products, laid out as
// fp6CombineADX combines them. The 432 bytes after the product are
// scratch, and so are the operand sums at 0 and 64.
#define FP6WIDE(xp, yp, dst) \
	MOVQ xp(SP), SI;          \
	MOVQ yp(SP), DI;          \
	FP2WIDE(dst);             \
	MOVQ xp(SP), SI;          \
	MOVQ yp(SP), DI;          \
	ADDQ $64, SI;             \
	ADDQ $64, DI;             \
	FP2WIDE(dst+432);         \
	MOVQ xp(SP), SI;          \
	MOVQ yp(SP), DI;          \
	ADDQ $128, SI;            \
	ADDQ $128, DI;            \
	FP2WIDE(dst+576);         \
	MOVQ xp(SP), SI;          \
	MOVQ yp(SP), DI;          \
	FP2SUM(SI, 0, 64, 0);     \
	FP2SUM(DI, 0, 64, 64);    \
	LEAQ 0(SP), SI;           \
	LEAQ 64(SP), DI;          \
	FP2WIDE(dst+144);         \
	MOVQ xp(SP), SI;          \
	MOVQ yp(SP), DI;          \
	FP2SUM(SI, 0, 128, 0);    \
	FP2SUM(DI, 0, 128, 64);   \
	LEAQ 0(SP), SI;           \
	LEAQ 64(SP), DI;          \
	FP2WIDE(dst+288);         \
	MOVQ xp(SP), SI;          \
	MOVQ yp(SP), DI;          \
	FP2SUM(SI, 64, 128, 0);   \
	FP2SUM(DI, 64, 128, 64);  \
	LEAQ 0(SP), SI;           \
	LEAQ 64(SP), DI;          \
	FP2WIDE(dst+720);         \
	LEAQ dst(SP), R15;        \
	CALL ·fp6CombineADX(SB)

// FQSUMQ writes the sum of the Fq elements at i(R9) and j(R9), both below
// Q, to off(DI), brought below Q by STORE's one subtraction; FP6SUMQ does
// so for the six components of two Fq⁶ elements. They need Q in R10,
// R11, R12, R15 and clobber AX, DX, SI and R8.
#define FQSUMQ(i, j, off) \
	MOVQ i+0(R9), R14; \
	MOVQ i+8(R9), R13; \
	MOVQ i+16(R9), CX; \
	MOVQ i+24(R9), BX; \
	ADDQ j+0(R9), R14; \
	ADCQ j+8(R9), R13; \
	ADCQ j+16(R9), CX; \
	ADCQ j+24(R9), BX; \
	STORE(off)

#define FP6SUMQ(i, j, off) \
	FQSUMQ(i, j, off);             \
	FQSUMQ(i+32, j+32, off+32);    \
	FQSUMQ(i+64, j+64, off+64);    \
	FQSUMQ(i+96, j+96, off+96);    \
	FQSUMQ(i+128, j+128, off+128); \
	FQSUMQ(i+160, j+160, off+160)

// NINEXQ writes 9x + y + z mod Q to off(DI), for the Fq elements x at
// xo(SI) and y at yo(SI), both below Q, and z ≤ Q at zo(zb): the sum is
// below 11Q, five words, which SUBKQ and STORE bring below Q (fpNineXPlus
// by the same method). Needs Q in R10, R11, R12, R15 and SUBKQ's three
// words at st(SP); clobbers AX, DX, SI, R8 and R9.
#define NINEXQ(xo, yo, zo, zb, off, st) \
	MOVQ xo+0(SI), R14;  \
	MOVQ xo+8(SI), R13;  \
	MOVQ xo+16(SI), CX;  \
	MOVQ xo+24(SI), BX;  \
	MOVQ BX, R8;         \
	SHRQ $61, R8;        \
	SHLQ $3, CX, BX;     \
	SHLQ $3, R13, CX;    \
	SHLQ $3, R14, R13;   \
	SHLQ $3, R14;        \
	ADDQ xo+0(SI), R14;  \
	ADCQ xo+8(SI), R13;  \
	ADCQ xo+16(SI), CX;  \
	ADCQ xo+24(SI), BX;  \
	ADCQ $0, R8;         \
	ADDQ yo+0(SI), R14;  \
	ADCQ yo+8(SI), R13;  \
	ADCQ yo+16(SI), CX;  \
	ADCQ yo+24(SI), BX;  \
	ADCQ $0, R8;         \
	ADDQ zo+0(zb), R14;  \
	ADCQ zo+8(zb), R13;  \
	ADCQ zo+16(zb), CX;  \
	ADCQ zo+24(zb), BX;  \
	ADCQ $0, R8;         \
	SUBKQ(st);           \
	STORE(off)

// MONTMULSP writes x·y·2⁻²⁵⁶ mod Q, for x at SI and y at DI (below 2Q),
// to dst(SP): montMul's rounds. Clobbers SI, DI, AX, DX and R8–R15.
#define MONTMULSP(dst) \
	MOVQ Q0, R10;                  \
	MOVQ Q1, R11;                  \
	MOVQ Q2, R12;                  \
	MOVQ Q3, R15;                  \
	ROW0(R14, R13, CX, BX, R8);    \
	REDUCE;                        \
	ROW(8, R14, R13, CX, BX, R8);  \
	REDUCE;                        \
	ROW(16, R14, R13, CX, BX, R8); \
	REDUCE;                        \
	ROW(24, R14, R13, CX, BX, R8); \
	REDUCE;                        \
	LEAQ dst(SP), DI;              \
	STORE(0)

// The four subroutines below are the large blocks every wide kernel
// repeats: written out at each use, an Fq¹² kernel was 54 KB of
// straight-line code, which no instruction cache holds from one call to
// the next. They take their operands in registers and keep their scratch
// in their own frames; each is NOSPLIT and calls nothing, so no stack
// growth or preemption can stop a goroutine inside one.

// fp2WideADX writes the Fq² product of the elements at SI and DI
// (components below 2Q) to the wide pair at R15: a0b0 − a1b1, signed, and
// (a0+a1)(b0+b1) − a0b0 − a1b1 = a0b1 + a1b0 ≥ 0. This is fp2MulADX
// without its two reductions. Moves SI and DI; clobbers AX, DX and
// R8–R11.
//
// Frame: a0b0 at 0, a1b1 at 64, a0 + a1 at 128, b0 + b1 at 160.
//
// func fp2WideADX()
TEXT ·fp2WideADX(SB), NOSPLIT, $192-0
	PRODUCT
	ST8(0)
	ADDQ $32, SI
	ADDQ $32, DI
	PRODUCT
	ST8(64)
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
	SUB8(0)
	SUB8(64)
	STW8(72)
	MOVQ $0, 136(R15)
	LD8(0)
	SUB8(64)
	SBBQ AX, AX
	STW8(0)
	MOVQ AX, 64(R15)
	RET

// fp2SqWideADX writes the Fq² square of the element at SI (components
// below 2Q) to the wide pair at R15: (a0+a1)(a0 − a1 + 2Q), which is
// a0² − a1² plus a multiple of Q, and 2a0a1, both nonnegative. Two
// products where fp2WideADX takes three. Moves SI and DI; clobbers AX,
// DX and R8–R11.
//
// Frame: a0 + a1 at 0, a0 − a1 + 2Q at 32.
//
// func fp2SqWideADX()
TEXT ·fp2SqWideADX(SB), NOSPLIT, $64-0
	LEAQ 32(SI), DI
	PRODUCT
	ADDQ R14, R14
	ADCQ R13, R13
	ADCQ CX, CX
	ADCQ BX, BX
	ADCQ R8, R8
	ADCQ R9, R9
	ADCQ R10, R10
	ADCQ R11, R11
	STW8(72)
	MOVQ $0, 136(R15)
	MOVQ 0(SI), R14
	MOVQ 8(SI), R13
	MOVQ 16(SI), CX
	MOVQ 24(SI), BX
	MOVQ R14, R8
	MOVQ R13, R9
	MOVQ CX, R10
	MOVQ BX, R11
	ADDQ 32(SI), R14
	ADCQ 40(SI), R13
	ADCQ 48(SI), CX
	ADCQ 56(SI), BX
	MOVQ R14, 0(SP)
	MOVQ R13, 8(SP)
	MOVQ CX, 16(SP)
	MOVQ BX, 24(SP)
	SUBQ 32(SI), R8
	SBBQ 40(SI), R9
	SBBQ 48(SI), R10
	SBBQ 56(SI), R11
	ADDQ ·fpTwoQ+0(SB), R8
	ADCQ ·fpTwoQ+8(SB), R9
	ADCQ ·fpTwoQ+16(SB), R10
	ADCQ ·fpTwoQ+24(SB), R11
	MOVQ R8, 32(SP)
	MOVQ R9, 40(SP)
	MOVQ R10, 48(SP)
	MOVQ R11, 56(SP)
	LEAQ 0(SP), SI
	LEAQ 32(SP), DI
	PRODUCT
	STW8(0)
	MOVQ $0, 64(R15)
	RET

// fp6CombineADX combines the six wide Fq² products at R15 — t0, u01,
// u02, t1, t2 and u12 at 0, 144, 288, 432, 576 and 720, for t_i = a_i·b_i
// and u_ij = (a_i+a_j)(b_i+b_j) — into the Fq⁶ product's coefficients
//
//	c0 = t0 + ξ(u12 − t1 − t2)
//	c1 = (u01 − t0 − t1) + ξ·t2
//	c2 = u02 − t0 − t2 + t1
//
// at 0, 144 and 288, in place, with ξ(r + s·i) = (9r − s) + (9s + r)·i.
// For operands with components below Q, u_ij − t_i − t_j is exactly the
// cross term a_i·b_j + a_j·b_i, so c0 lies in (−23Q², 19Q²) + (−2Q²,
// 40Q²)·i, c1 in (−13Q², 11Q²) + (−Q², 23Q²)·i and c2 in (−3Q², 3Q²) +
// [0, 6Q²)·i. Clobbers R8–R14, CX and BX.
//
// func fp6CombineADX()
TEXT ·fp6CombineADX(SB), NOSPLIT, $0-0
	// The cross terms u01 − t0 − t1 and u12 − t1 − t2, in place.
	LD9B(144, R15)
	SUB9B(0, R15)
	SUB9B(432, R15)
	ST9B(144, R15)
	LD9B(216, R15)
	SUB9B(72, R15)
	SUB9B(504, R15)
	ST9B(216, R15)
	LD9B(720, R15)
	SUB9B(432, R15)
	SUB9B(576, R15)
	ST9B(720, R15)
	LD9B(792, R15)
	SUB9B(504, R15)
	SUB9B(648, R15)
	ST9B(792, R15)

	// c2 = u02 − t0 − t2 + t1, before c0 overwrites t0.
	LD9B(288, R15)
	SUB9B(0, R15)
	SUB9B(576, R15)
	ADD9B(432, R15)
	ST9B(288, R15)
	LD9B(360, R15)
	SUB9B(72, R15)
	SUB9B(648, R15)
	ADD9B(504, R15)
	ST9B(360, R15)

	// c1 = (u01 − t0 − t1) + ξ·t2
	LD9B(576, R15)
	NINEB(576, R15)
	SUB9B(648, R15)
	ADD9B(144, R15)
	ST9B(144, R15)
	LD9B(648, R15)
	NINEB(648, R15)
	ADD9B(576, R15)
	ADD9B(216, R15)
	ST9B(216, R15)

	// c0 = t0 + ξ(u12 − t1 − t2)
	LD9B(720, R15)
	NINEB(720, R15)
	SUB9B(792, R15)
	ADD9B(0, R15)
	ST9B(0, R15)
	LD9B(792, R15)
	NINEB(792, R15)
	ADD9B(720, R15)
	ADD9B(72, R15)
	ST9B(72, R15)
	RET

// wideFinishADX writes the residue of the accumulator V to 0(DI), for
// −80Q·2²⁵⁶ ≤ V < 96Q·2²⁵⁶, that is −423Q² < V < 508Q² (Q·2²⁵⁶ ≈
// 5.29Q²). Adding fpWideOffset = 80Q to the high half h = ⌊V/2²⁵⁶⌋ makes
// it 0 ≤ h < 176Q. The low half goes through REDC's four rounds, which
// leave at most Q, and h is added back: r = (V + 80Q·2²⁵⁶ + M·Q)/2²⁵⁶ <
// 177Q, five words, which SUBKQ takes below 2Q and STORE's one
// subtraction below Q. Clobbers AX, DX, SI, R15 and R8–R12.
//
// Frame: h at 0.
//
// func wideFinishADX()
TEXT ·wideFinishADX(SB), NOSPLIT, $40-0
	ADDQ ·fpWideOffset+0(SB), R8
	ADCQ ·fpWideOffset+8(SB), R9
	ADCQ ·fpWideOffset+16(SB), R10
	ADCQ ·fpWideOffset+24(SB), R11
	ADCQ ·fpWideOffset+32(SB), R12
	MOVQ R8, 0(SP)
	MOVQ R9, 8(SP)
	MOVQ R10, 16(SP)
	MOVQ R11, 24(SP)
	MOVQ R12, 32(SP)
	XORQ R8, R8
	MOVQ Q0, R10
	MOVQ Q1, R11
	MOVQ Q2, R12
	MOVQ Q3, R15
	REDUCE
	REDUCE
	REDUCE
	REDUCE
	ADDQ 0(SP), R14
	ADCQ 8(SP), R13
	ADCQ 16(SP), CX
	ADCQ 24(SP), BX
	ADCQ 32(SP), R8
	SUBKQ(0)
	STORE(0)
	RET

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
// and y with components below Q: FP6WIDE, then one reduction per output
// coefficient. Six reductions where six fp2Mul calls pay twelve, and no
// reduction in any sum, difference or product by ξ.
//
// Frame: FP6WIDE's operand sums at 0 and 64, x and y at 128 and 136, and
// the product at 144, FP6WIDE's scratch after it.
//
// func fp6MulADX(z, x, y *fp6)
TEXT ·fp6MulADX(SB), $1008-24
	MOVQ x+8(FP), AX
	MOVQ AX, 128(SP)
	MOVQ y+16(FP), AX
	MOVQ AX, 136(SP)
	FP6WIDE(128, 136, 144)

	// x and y have been read in full, so z may alias either.
	MOVQ z+0(FP), DI
	LD9(144)
	FINISH(0)
	LD9(216)
	FINISH(32)
	LD9(288)
	FINISH(64)
	LD9(360)
	FINISH(96)
	LD9(432)
	FINISH(128)
	LD9(504)
	FINISH(160)
	RET

// func fp12Mul(z, x, y *fp12)
TEXT ·fp12Mul(SB), NOSPLIT, $0-24
	CMPB ·hasADX(SB), $0
	JEQ  generic
	JMP  ·fp12MulADX(SB)

generic:
	JMP ·fp12MulGeneric(SB)

// fp12MulADX is fp12MulGeneric's Karatsuba over wide Fq⁶ products, for
// x = a0 + a1·w and y = b0 + b1·w with components below Q: T0 = a0·b0,
// T1 = a1·b1 and U = (a0+a1)(b0+b1) are three FP6WIDE, 54 products, the
// two operand sums brought below Q by one conditional subtraction per
// component, and each output coefficient
//
//	c0 = T0 + v·T1 = (T0₀ + ξ·T1₂, T0₁ + T1₀, T0₂ + T1₁)
//	c1 = U − T0 − T1
//
// is combined wide and reduced once: twelve reductions where three fp6Mul
// calls pay eighteen, and no reduced Fq⁶ sum. With fp6CombineADX's bounds,
// c0's first coefficient lies in (−56Q², 46Q²) + (−5Q², 97Q²)·i and c1's
// in (−61Q², 65Q²) + (−82Q², 44Q²)·i; every one in (−82Q², 97Q²), inside
// FINISH's range.
//
// Frame: FP6WIDE's operand sums at 0 and 64 and its operand addresses at
// 128 and 136, a0 + a1 at 144, b0 + b1 at 336, then T0 at 528, T1 at 960
// and U at 1392, each taking the next one's place as its FP6WIDE scratch
// before that is computed (U's is the frame's last 432 bytes).
//
// func fp12MulADX(z, x, y *fp12)
TEXT ·fp12MulADX(SB), $2256-24
	MOVQ Q0, R10
	MOVQ Q1, R11
	MOVQ Q2, R12
	MOVQ Q3, R15
	MOVQ x+8(FP), R9
	LEAQ 144(SP), DI
	FP6SUMQ(0, 192, 0)
	MOVQ y+16(FP), R9
	LEAQ 336(SP), DI
	FP6SUMQ(0, 192, 0)

	MOVQ x+8(FP), AX
	MOVQ AX, 128(SP)
	MOVQ y+16(FP), AX
	MOVQ AX, 136(SP)
	FP6WIDE(128, 136, 528)
	ADDQ $192, 128(SP)
	ADDQ $192, 136(SP)
	FP6WIDE(128, 136, 960)
	LEAQ 144(SP), AX
	MOVQ AX, 128(SP)
	LEAQ 336(SP), AX
	MOVQ AX, 136(SP)
	FP6WIDE(128, 136, 1392)

	// x and y have been read in full, so z may alias either.
	MOVQ z+0(FP), DI

	// c0.b0 = T0₀ + ξ·T1₂
	LD9(960+288)
	NINE(960+288)
	SUB9(960+360)
	ADD9(528)
	FINISH(0)
	LD9(960+360)
	NINE(960+360)
	ADD9(960+288)
	ADD9(528+72)
	FINISH(32)

	// c0.b1 = T0₁ + T1₀, c0.b2 = T0₂ + T1₁
	LD9(528+144)
	ADD9(960)
	FINISH(64)
	LD9(528+216)
	ADD9(960+72)
	FINISH(96)
	LD9(528+288)
	ADD9(960+144)
	FINISH(128)
	LD9(528+360)
	ADD9(960+216)
	FINISH(160)

	// c1 = U − T0 − T1
	LD9(1392)
	SUB9(528)
	SUB9(960)
	FINISH(192)
	LD9(1392+72)
	SUB9(528+72)
	SUB9(960+72)
	FINISH(224)
	LD9(1392+144)
	SUB9(528+144)
	SUB9(960+144)
	FINISH(256)
	LD9(1392+216)
	SUB9(528+216)
	SUB9(960+216)
	FINISH(288)
	LD9(1392+288)
	SUB9(528+288)
	SUB9(960+288)
	FINISH(320)
	LD9(1392+360)
	SUB9(528+360)
	SUB9(960+360)
	FINISH(352)
	RET

// func fp12Square(z, x *fp12)
TEXT ·fp12Square(SB), NOSPLIT, $0-16
	CMPB ·hasADX(SB), $0
	JEQ  generic
	JMP  ·fp12SquareADX(SB)

generic:
	JMP ·fp12SquareGeneric(SB)

// fp12SquareADX is fp12SquareGeneric's squaring over wide Fq⁶ products,
// for x = a0 + a1·w with components below Q: T = a0·a1 and U = (a0 +
// a1)(a0 + v·a1) are two FP6WIDE, 36 products, the operands of the second
// brought below Q first (one conditional subtraction per component, and
// fpNineXPlus's estimate for the one ξ), and each output coefficient
//
//	c0 = U − T − v·T = (U₀ − T₀ − ξ·T₂, U₁ − T₁ − T₀, U₂ − T₂ − T₁)
//	c1 = 2T
//
// is combined wide and reduced once: twelve reductions, as the two fp6Mul
// calls pay, but no reduced Fq⁶ sum, difference or product by v. The
// widest coefficient, c0's first, lies in (−69Q², 75Q²) + (−99Q², 45Q²)·i,
// inside FINISH's range.
//
// Frame: SUBKQ's scratch at 0, then FP6WIDE's operand sums at 0 and 64,
// then ξ·T₂ at 0; FP6WIDE's operand addresses at 128 and 136, Q −
// Im(a1.b2) at 144, a0 + a1 at 176, a0 + v·a1 at 368, T at 560 and U at
// 992, T taking U's place as its FP6WIDE scratch (U's is the frame's last
// 432 bytes).
//
// func fp12SquareADX(z, x *fp12)
TEXT ·fp12SquareADX(SB), $1856-16
	MOVQ Q0, R10
	MOVQ Q1, R11
	MOVQ Q2, R12
	MOVQ Q3, R15
	MOVQ x+8(FP), R9
	LEAQ 176(SP), DI
	FP6SUMQ(0, 192, 0)

	// a0 + v·a1 = (a0.b0 + ξ·a1.b2, a0.b1 + a1.b0, a0.b2 + a1.b1), with
	// ξ(r + s·i) = (9r + (Q − s)) + (9s + r)·i.
	LEAQ 368(SP), DI
	FQSUMQ(64, 192, 64)
	FQSUMQ(96, 224, 96)
	FQSUMQ(128, 256, 128)
	FQSUMQ(160, 288, 160)
	MOVQ R10, R14
	SUBQ 352(R9), R14
	MOVQ R11, R13
	SBBQ 360(R9), R13
	MOVQ R12, CX
	SBBQ 368(R9), CX
	MOVQ R15, BX
	SBBQ 376(R9), BX
	MOVQ R14, 144(SP)
	MOVQ R13, 152(SP)
	MOVQ CX, 160(SP)
	MOVQ BX, 168(SP)
	MOVQ R9, SI
	NINEXQ(320, 0, 144, SP, 0, 0)
	MOVQ x+8(FP), SI
	NINEXQ(352, 32, 320, SI, 32, 0)

	MOVQ x+8(FP), AX
	MOVQ AX, 128(SP)
	ADDQ $192, AX
	MOVQ AX, 136(SP)
	FP6WIDE(128, 136, 560)
	LEAQ 176(SP), AX
	MOVQ AX, 128(SP)
	LEAQ 368(SP), AX
	MOVQ AX, 136(SP)
	FP6WIDE(128, 136, 992)

	// x has been read in full, so z may alias it.
	MOVQ z+0(FP), DI

	// c0 = U − T − v·T, through ξ·T₂ at 0.
	LD9(560+288)
	NINE(560+288)
	SUB9(560+360)
	ST9(0)
	LD9(560+360)
	NINE(560+360)
	ADD9(560+288)
	ST9(72)
	LD9(992)
	SUB9(560)
	SUB9(0)
	FINISH(0)
	LD9(992+72)
	SUB9(560+72)
	SUB9(72)
	FINISH(32)
	LD9(992+144)
	SUB9(560+144)
	SUB9(560)
	FINISH(64)
	LD9(992+216)
	SUB9(560+216)
	SUB9(560+72)
	FINISH(96)
	LD9(992+288)
	SUB9(560+288)
	SUB9(560+144)
	FINISH(128)
	LD9(992+360)
	SUB9(560+360)
	SUB9(560+216)
	FINISH(160)

	// c1 = 2T
	LD9(560)
	ADD9(560)
	FINISH(192)
	LD9(560+72)
	ADD9(560+72)
	FINISH(224)
	LD9(560+144)
	ADD9(560+144)
	FINISH(256)
	LD9(560+216)
	ADD9(560+216)
	FINISH(288)
	LD9(560+288)
	ADD9(560+288)
	FINISH(320)
	LD9(560+360)
	ADD9(560+360)
	FINISH(352)
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
// Frame: 0–71 THREE's temporary, a + b at 72, the third pair's B at 136,
// then per pair a², b² and (a+b)² at 280, 424, 568; 712, 856, 1000; 1144,
// 1288, 1432.
//
// func fp12CyclotomicSquareADX(z, x *fp12)
TEXT ·fp12CyclotomicSquareADX(SB), $1576-16
	MOVQ x+8(FP), SI
	ADDQ $256, SI
	FP2SQWIDE(280)
	MOVQ x+8(FP), SI
	FP2SQWIDE(424)
	MOVQ x+8(FP), SI
	FP2SUM(SI, 256, 0, 72)
	LEAQ 72(SP), SI
	FP2SQWIDE(568)

	MOVQ x+8(FP), SI
	ADDQ $128, SI
	FP2SQWIDE(712)
	MOVQ x+8(FP), SI
	ADDQ $192, SI
	FP2SQWIDE(856)
	MOVQ x+8(FP), SI
	FP2SUM(SI, 128, 192, 72)
	LEAQ 72(SP), SI
	FP2SQWIDE(1000)

	MOVQ x+8(FP), SI
	ADDQ $320, SI
	FP2SQWIDE(1144)
	MOVQ x+8(FP), SI
	ADDQ $64, SI
	FP2SQWIDE(1288)
	MOVQ x+8(FP), SI
	FP2SUM(SI, 320, 64, 72)
	LEAQ 72(SP), SI
	FP2SQWIDE(1432)

	// Every square is taken, and each output below reads only the input
	// coefficient it overwrites, so z may alias x.
	MOVQ z+0(FP), DI

	// c0.b0 = 3(ξ·c1.b1² + c0.b0²) − 2·c0.b0
	LD9(280)
	NINE(280)
	SUB9(352)
	ADD9(424)
	THREE
	MOVQ x+8(FP), SI
	SUBX2(0)
	FINISH(0)
	LD9(352)
	NINE(352)
	ADD9(280)
	ADD9(496)
	THREE
	MOVQ x+8(FP), SI
	SUBX2(32)
	FINISH(32)

	// c1.b1 = 3·2(c1.b1·c0.b0) + 2·c1.b1
	LD9(568)
	SUB9(280)
	SUB9(424)
	THREE
	MOVQ x+8(FP), SI
	ADDX2(256)
	FINISH(256)
	LD9(640)
	SUB9(352)
	SUB9(496)
	THREE
	MOVQ x+8(FP), SI
	ADDX2(288)
	FINISH(288)

	// c0.b1 = 3(ξ·c0.b2² + c1.b0²) − 2·c0.b1
	LD9(712)
	NINE(712)
	SUB9(784)
	ADD9(856)
	THREE
	MOVQ x+8(FP), SI
	SUBX2(64)
	FINISH(64)
	LD9(784)
	NINE(784)
	ADD9(712)
	ADD9(928)
	THREE
	MOVQ x+8(FP), SI
	SUBX2(96)
	FINISH(96)

	// c1.b2 = 3·2(c0.b2·c1.b0) + 2·c1.b2
	LD9(1000)
	SUB9(712)
	SUB9(856)
	THREE
	MOVQ x+8(FP), SI
	ADDX2(320)
	FINISH(320)
	LD9(1072)
	SUB9(784)
	SUB9(928)
	THREE
	MOVQ x+8(FP), SI
	ADDX2(352)
	FINISH(352)

	// c0.b2 = 3(ξ·c1.b2² + c0.b1²) − 2·c0.b2
	LD9(1144)
	NINE(1144)
	SUB9(1216)
	ADD9(1288)
	THREE
	MOVQ x+8(FP), SI
	SUBX2(128)
	FINISH(128)
	LD9(1216)
	NINE(1216)
	ADD9(1144)
	ADD9(1360)
	THREE
	MOVQ x+8(FP), SI
	SUBX2(160)
	FINISH(160)

	// c1.b0 = 3ξ·2(c1.b2·c0.b1) + 2·c1.b0, through B at 136.
	LD9(1432)
	SUB9(1144)
	SUB9(1288)
	ST9(136)
	LD9(1504)
	SUB9(1216)
	SUB9(1360)
	ST9(208)
	LD9(136)
	NINE(136)
	SUB9(208)
	THREE
	MOVQ x+8(FP), SI
	ADDX2(192)
	FINISH(192)
	LD9(208)
	NINE(208)
	ADD9(136)
	THREE
	MOVQ x+8(FP), SI
	ADDX2(224)
	FINISH(224)
	RET

// func fp12MulLine(f *fp12, l *normLine, a *evalArg)
TEXT ·fp12MulLine(SB), NOSPLIT, $0-24
	CMPB ·hasADX(SB), $0
	JEQ  generic
	JMP  ·fp12MulLineADX(SB)

generic:
	JMP ·fp12MulLineGeneric(SB)

// fp12MulLineADX is fp12MulLineGeneric with one reduction per output
// coefficient. It first evaluates the prepared line l = (b′, c′) at
// a = (xP/yP, 1/yP): L = d0 + d1·v with d0 = b′·xP/yP and d1 = c′/yP,
// four montMul rounds into the frame. For f = A + B·w it then forms,
// wide, the five products a0d0, a1d1, a2d0, a2d1 and (a0+a1)(d0+d1) of
// A·L, and the same five of B·L (30 products), then
//
//	A' = A + v·B·L = (a0 + ξ(b1d1 + b2d0), a1 + b0d0 + ξ·b2d1, a2 + b0d1 + b1d0)
//	B' = B + A·L   = (b0 + a0d0 + ξ·a2d1, b1 + a0d1 + a1d0, b2 + a1d1 + a2d0)
//
// with each input coefficient x added as x·2²⁵⁶: twelve reductions where
// two fp6Mul01 pay twenty, and no reduced sum. The widest coefficient,
// x + ξ(b1d1 + b2d0), lies in (−22Q², 44Q²), inside FINISH's range.
//
// Frame: a0 + a1 (then b0 + b1) at 0, d0 + d1 at 64; A's wide products
// a0d0 128, a1d1 272, a2d0 416, a2d1 560, (a0+a1)(d0+d1) 704, B's at 848,
// 992, 1136, 1280, 1424; b1d1 + b2d0 at 1568; d0 and d1 at 1712.
//
// func fp12MulLineADX(f *fp12, l *normLine, a *evalArg)
TEXT ·fp12MulLineADX(SB), $1840-24
	// d0 = b′·xP/yP and d1 = c′/yP at 1712, reduced: four montMul.
	MOVQ l+8(FP), SI
	MOVQ a+16(FP), DI
	MONTMULSP(1712)
	MOVQ l+8(FP), SI
	ADDQ $32, SI
	MOVQ a+16(FP), DI
	MONTMULSP(1744)
	MOVQ l+8(FP), SI
	ADDQ $64, SI
	MOVQ a+16(FP), DI
	ADDQ $32, DI
	MONTMULSP(1776)
	MOVQ l+8(FP), SI
	ADDQ $96, SI
	MOVQ a+16(FP), DI
	ADDQ $32, DI
	MONTMULSP(1808)

	MOVQ f+0(FP), SI
	LEAQ 1712(SP), DI
	FP2WIDE(128)
	MOVQ f+0(FP), SI
	LEAQ 1712(SP), DI
	ADDQ $64, SI
	ADDQ $64, DI
	FP2WIDE(272)
	MOVQ f+0(FP), SI
	LEAQ 1712(SP), DI
	ADDQ $128, SI
	FP2WIDE(416)
	MOVQ f+0(FP), SI
	LEAQ 1712(SP), DI
	ADDQ $128, SI
	ADDQ $64, DI
	FP2WIDE(560)
	MOVQ f+0(FP), SI
	LEAQ 1712(SP), DI
	FP2SUM(SI, 0, 64, 0)
	FP2SUM(DI, 0, 64, 64)
	LEAQ 0(SP), SI
	LEAQ 64(SP), DI
	FP2WIDE(704)

	MOVQ f+0(FP), SI
	LEAQ 1712(SP), DI
	ADDQ $192, SI
	FP2WIDE(848)
	MOVQ f+0(FP), SI
	LEAQ 1712(SP), DI
	ADDQ $256, SI
	ADDQ $64, DI
	FP2WIDE(992)
	MOVQ f+0(FP), SI
	LEAQ 1712(SP), DI
	ADDQ $320, SI
	FP2WIDE(1136)
	MOVQ f+0(FP), SI
	LEAQ 1712(SP), DI
	ADDQ $320, SI
	ADDQ $64, DI
	FP2WIDE(1280)
	MOVQ f+0(FP), SI
	FP2SUM(SI, 192, 256, 0)
	LEAQ 0(SP), SI
	LEAQ 64(SP), DI
	FP2WIDE(1424)

	// Every product is taken, and each output below adds only the input
	// coefficient it overwrites.
	MOVQ f+0(FP), DI

	// a0' = a0 + ξ(b1d1 + b2d0)
	LD9(992)
	ADD9(1136)
	ST9(1568)
	LD9(1064)
	ADD9(1208)
	ST9(1640)
	LD9(1568)
	NINE(1568)
	SUB9(1640)
	MOVQ DI, SI
	ADDX1(0)
	FINISH(0)
	LD9(1640)
	NINE(1640)
	ADD9(1568)
	MOVQ DI, SI
	ADDX1(32)
	FINISH(32)

	// a1' = a1 + b0d0 + ξ·b2d1
	LD9(1280)
	NINE(1280)
	SUB9(1352)
	ADD9(848)
	MOVQ DI, SI
	ADDX1(64)
	FINISH(64)
	LD9(1352)
	NINE(1352)
	ADD9(1280)
	ADD9(920)
	MOVQ DI, SI
	ADDX1(96)
	FINISH(96)

	// a2' = a2 + (b0+b1)(d0+d1) − b0d0 − b1d1
	LD9(1424)
	SUB9(848)
	SUB9(992)
	MOVQ DI, SI
	ADDX1(128)
	FINISH(128)
	LD9(1496)
	SUB9(920)
	SUB9(1064)
	MOVQ DI, SI
	ADDX1(160)
	FINISH(160)

	// b0' = b0 + a0d0 + ξ·a2d1
	LD9(560)
	NINE(560)
	SUB9(632)
	ADD9(128)
	MOVQ DI, SI
	ADDX1(192)
	FINISH(192)
	LD9(632)
	NINE(632)
	ADD9(560)
	ADD9(200)
	MOVQ DI, SI
	ADDX1(224)
	FINISH(224)

	// b1' = b1 + (a0+a1)(d0+d1) − a0d0 − a1d1
	LD9(704)
	SUB9(128)
	SUB9(272)
	MOVQ DI, SI
	ADDX1(256)
	FINISH(256)
	LD9(776)
	SUB9(200)
	SUB9(344)
	MOVQ DI, SI
	ADDX1(288)
	FINISH(288)

	// b2' = b2 + a1d1 + a2d0
	LD9(272)
	ADD9(416)
	MOVQ DI, SI
	ADDX1(320)
	FINISH(320)
	LD9(344)
	ADD9(488)
	MOVQ DI, SI
	ADDX1(352)
	FINISH(352)
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
