package bn254

import "math/big"

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

func fp2Add(z, x, y *fp2) {
	fpAdd(&z.c0, &x.c0, &y.c0)
	fpAdd(&z.c1, &x.c1, &y.c1)
}

func fp2Sub(z, x, y *fp2) {
	fpSub(&z.c0, &x.c0, &y.c0)
	fpSub(&z.c1, &x.c1, &y.c1)
}

func fp2Neg(z, x *fp2) {
	fpNeg(&z.c0, &x.c0)
	fpNeg(&z.c1, &x.c1)
}

func fp2Double(z, x *fp2) {
	fpDouble(&z.c0, &x.c0)
	fpDouble(&z.c1, &x.c1)
}

func fp2Halve(z, x *fp2) {
	fpHalve(&z.c0, &x.c0)
	fpHalve(&z.c1, &x.c1)
}

// fp2Mul sets z = x·y (Karatsuba, 3 base multiplications).
func fp2Mul(z, x, y *fp2) {
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
