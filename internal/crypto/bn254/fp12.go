package bn254

import "math/big"

// fp12 is Fq¹² = Fq⁶[w]/(w² − v): c0 + c1·w. Together with fp6 and fp2
// this is the standard 2-3-2 tower over the same algebra as the test-only
// reference single-shot extension Fq[w]/(w¹² − 18w⁶ + 82): w here is the
// reference w, v = w², and i = w⁶ − 9.
type fp12 struct{ c0, c1 fp6 }

func (z *fp12) setOne() { z.c0.setOne(); z.c1.setZero() }

func (z *fp12) isOne() bool {
	var one fp6
	one.setOne()
	return z.c0.equal(&one) && z.c1.isZero()
}

func (z *fp12) equal(x *fp12) bool { return z.c0.equal(&x.c0) && z.c1.equal(&x.c1) }

// fp12MulGeneric sets z = x·y (Karatsuba, 3 fp6 multiplications) for x
// and y with components below Q; z may alias x or y. This is fp12Mul off
// amd64 and on CPUs without ADX/BMI2; otherwise fp12Mul is the lazily
// reduced assembly, which TestFp12MulMatchesGeneric holds to it.
func fp12MulGeneric(z, x, y *fp12) {
	var t0, t1, u, s fp6
	fp6Mul(&t0, &x.c0, &y.c0)
	fp6Mul(&t1, &x.c1, &y.c1)
	fp6Add(&u, &x.c0, &x.c1)
	fp6Add(&s, &y.c0, &y.c1)
	fp6Mul(&u, &u, &s)
	fp6Sub(&u, &u, &t0)
	fp6Sub(&u, &u, &t1) // c1 = (a0+a1)(b0+b1) − t0 − t1
	fp6MulByNonresidue(&s, &t1)
	fp6Add(&z.c0, &t0, &s) // c0 = t0 + v·t1
	z.c1 = u
}

// fp12SquareGeneric sets z = x²: c0 = (a0+a1)(a0+v·a1) − t − v·t,
// c1 = 2t with t = a0·a1; z may alias x. This is fp12Square off amd64
// and on CPUs without ADX/BMI2; otherwise fp12Square is the lazily
// reduced assembly, which TestFp12SquareMatchesGeneric holds to it.
func fp12SquareGeneric(z, x *fp12) {
	var t, u, s fp6
	fp6Mul(&t, &x.c0, &x.c1)
	fp6Add(&u, &x.c0, &x.c1)
	fp6MulByNonresidue(&s, &x.c1)
	fp6Add(&s, &s, &x.c0)
	fp6Mul(&u, &u, &s)
	fp6Sub(&u, &u, &t)
	fp6MulByNonresidue(&s, &t)
	fp6Sub(&z.c0, &u, &s)
	fp6Double(&z.c1, &t)
}

// fp12Conjugate sets z = c0 − c1·w, which is x^(q⁶).
func fp12Conjugate(z, x *fp12) {
	z.c0 = x.c0
	fp6Neg(&z.c1, &x.c1)
}

// fp12Inv sets z = x⁻¹ = (c0 − c1·w)/(c0² − v·c1²). Panics on zero.
func fp12Inv(z, x *fp12) {
	var t0, t1 fp6
	fp6Square(&t0, &x.c0)
	fp6Square(&t1, &x.c1)
	fp6MulByNonresidue(&t1, &t1)
	fp6Sub(&t0, &t0, &t1)
	fp6Inv(&t0, &t0)
	fp6Mul(&z.c0, &x.c0, &t0)
	fp6Mul(&z.c1, &x.c1, &t0)
	fp6Neg(&z.c1, &z.c1)
}

// fp12CyclotomicSquareGeneric squares an element of the cyclotomic
// subgroup (x^(q⁶+1)(q²+1)... after the easy final-exponentiation part)
// using the Granger–Scott squaring: three Fq⁴ squarings, 9 fp2 squarings
// instead of a full fp12 square. Only valid inside the cyclotomic subgroup
// (checked against fp12Square in fast_test.go). This is
// fp12CyclotomicSquare off amd64 and on CPUs without ADX/BMI2; otherwise it
// is the lazily reduced assembly, which
// TestCyclotomicSquareMatchesGeneric holds to it on any input.
func fp12CyclotomicSquareGeneric(z, x *fp12) {
	var t [9]fp2
	fp2Square(&t[0], &x.c1.b1)
	fp2Square(&t[1], &x.c0.b0)
	fp2Add(&t[6], &x.c1.b1, &x.c0.b0)
	fp2Square(&t[6], &t[6])
	fp2Sub(&t[6], &t[6], &t[0])
	fp2Sub(&t[6], &t[6], &t[1]) // 2 x0 x4
	fp2Square(&t[2], &x.c0.b2)
	fp2Square(&t[3], &x.c1.b0)
	fp2Add(&t[7], &x.c0.b2, &x.c1.b0)
	fp2Square(&t[7], &t[7])
	fp2Sub(&t[7], &t[7], &t[2])
	fp2Sub(&t[7], &t[7], &t[3]) // 2 x2 x3
	fp2Square(&t[4], &x.c1.b2)
	fp2Square(&t[5], &x.c0.b1)
	fp2Add(&t[8], &x.c1.b2, &x.c0.b1)
	fp2Square(&t[8], &t[8])
	fp2Sub(&t[8], &t[8], &t[4])
	fp2Sub(&t[8], &t[8], &t[5])
	fp2MulByNonresidue(&t[8], &t[8]) // 2 x1 x5 ξ

	fp2MulByNonresidue(&t[0], &t[0])
	fp2Add(&t[0], &t[0], &t[1]) // x4²ξ + x0²
	fp2MulByNonresidue(&t[2], &t[2])
	fp2Add(&t[2], &t[2], &t[3]) // x2²ξ + x3²
	fp2MulByNonresidue(&t[4], &t[4])
	fp2Add(&t[4], &t[4], &t[5]) // x5²ξ + x1²

	var u fp2
	fp2Sub(&u, &t[0], &x.c0.b0)
	fp2Double(&u, &u)
	fp2Add(&z.c0.b0, &u, &t[0])
	fp2Sub(&u, &t[2], &x.c0.b1)
	fp2Double(&u, &u)
	fp2Add(&z.c0.b1, &u, &t[2])
	fp2Sub(&u, &t[4], &x.c0.b2)
	fp2Double(&u, &u)
	fp2Add(&z.c0.b2, &u, &t[4])
	fp2Add(&u, &t[8], &x.c1.b0)
	fp2Double(&u, &u)
	fp2Add(&z.c1.b0, &u, &t[8])
	fp2Add(&u, &t[6], &x.c1.b1)
	fp2Double(&u, &u)
	fp2Add(&z.c1.b1, &u, &t[6])
	fp2Add(&u, &t[7], &x.c1.b2)
	fp2Double(&u, &u)
	fp2Add(&z.c1.b2, &u, &t[7])
}

// fp12 component → power-of-w exponent, used by the Frobenius tables:
// (c0.b0, c0.b1, c0.b2, c1.b0, c1.b1, c1.b2) sit at w⁰, w², w⁴, w¹, w³, w⁵
// respectively.
var fp12Exponents = [6]uint{0, 2, 4, 1, 3, 5}

func (z *fp12) components() [6]*fp2 {
	return [6]*fp2{&z.c0.b0, &z.c0.b1, &z.c0.b2, &z.c1.b0, &z.c1.b1, &z.c1.b2}
}

// Frobenius coefficient tables γₙ[e] = ξ^(e(qⁿ−1)/6), derived at init by
// exponentiating ξ so they cannot drift from the algebra (and checked
// against the reference's x^(qⁿ) in fast_test.go).
var frobGamma1, frobGamma2, frobGamma3 = func() (g1, g2, g3 [6]fp2) {
	six := big.NewInt(6)
	for n, out := range []*[6]fp2{&g1, &g2, &g3} {
		exp := new(big.Int).Exp(Q, big.NewInt(int64(n+1)), nil)
		exp.Sub(exp, big.NewInt(1)).Div(exp, six)
		var base fp2
		fp2Exp(&base, &fp2Xi, exp) // ξ^((qⁿ−1)/6)
		out[0].setOne()
		for e := 1; e < 6; e++ {
			fp2Mul(&out[e], &out[e-1], &base)
		}
	}
	return
}()

// fp12Frobenius sets z = x^q.
func fp12Frobenius(z, x *fp12) {
	var r fp12
	rc := r.components()
	xc := x.components()
	for k := 0; k < 6; k++ {
		var t fp2
		fp2Conjugate(&t, xc[k])
		fp2Mul(rc[k], &t, &frobGamma1[fp12Exponents[k]])
	}
	*z = r
}

// fp12FrobeniusSquare sets z = x^(q²). No conjugation: Frobenius² is the
// identity on Fq².
func fp12FrobeniusSquare(z, x *fp12) {
	var r fp12
	rc := r.components()
	xc := x.components()
	for k := 0; k < 6; k++ {
		fp2Mul(rc[k], xc[k], &frobGamma2[fp12Exponents[k]])
	}
	*z = r
}

// fp12FrobeniusCube sets z = x^(q³).
func fp12FrobeniusCube(z, x *fp12) {
	var r fp12
	rc := r.components()
	xc := x.components()
	for k := 0; k < 6; k++ {
		var t fp2
		fp2Conjugate(&t, xc[k])
		fp2Mul(rc[k], &t, &frobGamma3[fp12Exponents[k]])
	}
	*z = r
}
