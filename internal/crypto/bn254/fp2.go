package bn254

import (
	"math/big"
	"math/bits"
)

// fp2 is Fq² = Fq[i]/(i²+1) over the fixed-limb base field: c0 + c1·i.
// The quadratic nonresidue used to build Fq⁶ is ξ = 9 + i, matching the
// reference tower (w⁶ = ξ).
type fp2 struct{ c0, c1 fp }

// fp2Xi is ξ = 9 + i.
var fp2Xi = fp2{c0: fpFromUint64(9), c1: fpFromUint64(1)}

func (z *fp2) setZero() { z.c0.setZero(); z.c1.setZero() }

func (z *fp2) setOne() { z.c0.setOne(); z.c1.setZero() }

func (z *fp2) set(x *fp2) { *z = *x }

func (z *fp2) isZero() bool { return z.c0.isZero() && z.c1.isZero() }

func (z *fp2) equal(x *fp2) bool { return z.c0.equal(&x.c0) && z.c1.equal(&x.c1) }

// fp2Add sets z = x + y. fp2Add, fp2Sub and fp2Double write out fpAdd,
// fpSub and fpDouble over both components' eight limbs, so an Fq²
// operation is one call instead of three (none of them inlines).
func fp2Add(z, x, y *fp2) {
	t0, c := bits.Add64(x.c0[0], y.c0[0], 0)
	t1, c := bits.Add64(x.c0[1], y.c0[1], c)
	t2, c := bits.Add64(x.c0[2], y.c0[2], c)
	t3, _ := bits.Add64(x.c0[3], y.c0[3], c) // Q < 2²⁵⁴, so no carry out
	u0, c := bits.Add64(x.c1[0], y.c1[0], 0)
	u1, c := bits.Add64(x.c1[1], y.c1[1], c)
	u2, c := bits.Add64(x.c1[2], y.c1[2], c)
	u3, _ := bits.Add64(x.c1[3], y.c1[3], c)
	r0, b := bits.Sub64(t0, q0, 0)
	r1, b := bits.Sub64(t1, q1, b)
	r2, b := bits.Sub64(t2, q2, b)
	r3, b := bits.Sub64(t3, q3, b)
	keep0 := -b // all ones when x.c0 + y.c0 < Q
	s0, b := bits.Sub64(u0, q0, 0)
	s1, b := bits.Sub64(u1, q1, b)
	s2, b := bits.Sub64(u2, q2, b)
	s3, b := bits.Sub64(u3, q3, b)
	keep1 := -b
	z.c0[0] = r0 ^ (r0^t0)&keep0
	z.c0[1] = r1 ^ (r1^t1)&keep0
	z.c0[2] = r2 ^ (r2^t2)&keep0
	z.c0[3] = r3 ^ (r3^t3)&keep0
	z.c1[0] = s0 ^ (s0^u0)&keep1
	z.c1[1] = s1 ^ (s1^u1)&keep1
	z.c1[2] = s2 ^ (s2^u2)&keep1
	z.c1[3] = s3 ^ (s3^u3)&keep1
}

// fp2Sub sets z = x − y, adding Q back to each component under its
// borrow's mask.
func fp2Sub(z, x, y *fp2) {
	t0, b := bits.Sub64(x.c0[0], y.c0[0], 0)
	t1, b := bits.Sub64(x.c0[1], y.c0[1], b)
	t2, b := bits.Sub64(x.c0[2], y.c0[2], b)
	t3, b := bits.Sub64(x.c0[3], y.c0[3], b)
	m0 := -b
	u0, b := bits.Sub64(x.c1[0], y.c1[0], 0)
	u1, b := bits.Sub64(x.c1[1], y.c1[1], b)
	u2, b := bits.Sub64(x.c1[2], y.c1[2], b)
	u3, b := bits.Sub64(x.c1[3], y.c1[3], b)
	m1 := -b
	var c uint64
	z.c0[0], c = bits.Add64(t0, q0&m0, 0)
	z.c0[1], c = bits.Add64(t1, q1&m0, c)
	z.c0[2], c = bits.Add64(t2, q2&m0, c)
	z.c0[3], _ = bits.Add64(t3, q3&m0, c)
	z.c1[0], c = bits.Add64(u0, q0&m1, 0)
	z.c1[1], c = bits.Add64(u1, q1&m1, c)
	z.c1[2], c = bits.Add64(u2, q2&m1, c)
	z.c1[3], _ = bits.Add64(u3, q3&m1, c)
}

func fp2Neg(z, x *fp2) {
	fpNeg(&z.c0, &x.c0)
	fpNeg(&z.c1, &x.c1)
}

// fp2Double sets z = 2x.
func fp2Double(z, x *fp2) {
	t3 := x.c0[3]<<1 | x.c0[2]>>63 // x < 2²⁵⁴: nothing shifts out
	t2 := x.c0[2]<<1 | x.c0[1]>>63
	t1 := x.c0[1]<<1 | x.c0[0]>>63
	t0 := x.c0[0] << 1
	u3 := x.c1[3]<<1 | x.c1[2]>>63
	u2 := x.c1[2]<<1 | x.c1[1]>>63
	u1 := x.c1[1]<<1 | x.c1[0]>>63
	u0 := x.c1[0] << 1
	r0, b := bits.Sub64(t0, q0, 0)
	r1, b := bits.Sub64(t1, q1, b)
	r2, b := bits.Sub64(t2, q2, b)
	r3, b := bits.Sub64(t3, q3, b)
	keep0 := -b // all ones when 2·x.c0 < Q
	s0, b := bits.Sub64(u0, q0, 0)
	s1, b := bits.Sub64(u1, q1, b)
	s2, b := bits.Sub64(u2, q2, b)
	s3, b := bits.Sub64(u3, q3, b)
	keep1 := -b
	z.c0[0] = r0 ^ (r0^t0)&keep0
	z.c0[1] = r1 ^ (r1^t1)&keep0
	z.c0[2] = r2 ^ (r2^t2)&keep0
	z.c0[3] = r3 ^ (r3^t3)&keep0
	z.c1[0] = s0 ^ (s0^u0)&keep1
	z.c1[1] = s1 ^ (s1^u1)&keep1
	z.c1[2] = s2 ^ (s2^u2)&keep1
	z.c1[3] = s3 ^ (s3^u3)&keep1
}

func fp2Halve(z, x *fp2) {
	fpHalve(&z.c0, &x.c0)
	fpHalve(&z.c1, &x.c1)
}

// fp2MulGeneric sets z = x·y (Karatsuba, 3 base multiplications) for x and
// y below Q, their sums being montMul operands. This is fp2Mul off amd64
// and on CPUs without ADX/BMI2 (montmul_other.go); otherwise fp2Mul is the
// lazily reduced assembly (montmul_amd64.s), which
// TestFp2MulMatchesGeneric holds to it.
func fp2MulGeneric(z, x, y *fp2) {
	var t0, t1, s0, s1, r0 fp
	montMul(&t0, &x.c0, &y.c0)
	montMul(&t1, &x.c1, &y.c1)
	fpAddNoReduce(&s0, &x.c0, &x.c1)
	fpAddNoReduce(&s1, &y.c0, &y.c1)
	montMul(&s0, &s0, &s1)
	fpSub(&r0, &t0, &t1) // real part: a0b0 − a1b1
	fpSub(&s0, &s0, &t0)
	fpSub(&z.c1, &s0, &t1) // imag part: (a0+a1)(b0+b1) − a0b0 − a1b1
	z.c0 = r0
}

// fp2Square sets z = x² via (a0+a1)(a0−a1) + 2a0a1·i.
func fp2Square(z, x *fp2) {
	var s, d, m fp
	fpAddNoReduce(&s, &x.c0, &x.c1)
	fpSub(&d, &x.c0, &x.c1)
	montMul(&m, &x.c0, &x.c1)
	montMul(&z.c0, &s, &d)
	fpDouble(&z.c1, &m)
}

// fp2MulByFp scales both components by a base-field element.
func fp2MulByFp(z, x *fp2, k *fp) {
	montMul(&z.c0, &x.c0, k)
	montMul(&z.c1, &x.c1, k)
}

// fp2Conjugate sets z = c0 − c1·i, the Fq-Frobenius on Fq².
func fp2Conjugate(z, x *fp2) {
	z.c0 = x.c0
	fpNeg(&z.c1, &x.c1)
}

// fp2MulByNonresidue sets z = ξ·x = (9+i)·x = (9a0 − a1) + (9a1 + a0)i
// (safe when z aliases x).
func fp2MulByNonresidue(z, x *fp2) {
	a0 := x.c0
	var n1 fp
	fpNegNoReduce(&n1, &x.c1)
	fpNineXPlus(&z.c1, &x.c1, &a0)
	fpNineXPlus(&z.c0, &a0, &n1)
}

// fp2Inv sets z = x⁻¹ = (c0 − c1·i)/(c0² + c1²). Panics on zero.
func fp2Inv(z, x *fp2) {
	var n, t0, t1 fp
	fpSquare(&t0, &x.c0)
	fpSquare(&t1, &x.c1)
	fpAdd(&n, &t0, &t1)
	fpInv(&n, &n)
	montMul(&z.c0, &x.c0, &n)
	montMul(&t0, &x.c1, &n)
	fpNeg(&z.c1, &t0)
}

// fp2Exp sets z = x^e (e ≥ 0, a public constant: variable time).
func fp2Exp(z, x *fp2, e *big.Int) {
	var r fp2
	r.setOne()
	b := *x
	for i := e.BitLen() - 1; i >= 0; i-- {
		fp2Square(&r, &r)
		if e.Bit(i) == 1 {
			fp2Mul(&r, &r, &b)
		}
	}
	*z = r
}
