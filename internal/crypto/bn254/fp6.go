package bn254

// fp6 is Fq⁶ = Fq²[v]/(v³ − ξ) with ξ = 9 + i: b0 + b1·v + b2·v².
// In the reference single-shot tower, v = w².
type fp6 struct{ b0, b1, b2 fp2 }

func (z *fp6) setZero() { z.b0.setZero(); z.b1.setZero(); z.b2.setZero() }

func (z *fp6) setOne() { z.b0.setOne(); z.b1.setZero(); z.b2.setZero() }

func (z *fp6) isZero() bool { return z.b0.isZero() && z.b1.isZero() && z.b2.isZero() }

func (z *fp6) equal(x *fp6) bool {
	return z.b0.equal(&x.b0) && z.b1.equal(&x.b1) && z.b2.equal(&x.b2)
}

func fp6Add(z, x, y *fp6) {
	fp2Add(&z.b0, &x.b0, &y.b0)
	fp2Add(&z.b1, &x.b1, &y.b1)
	fp2Add(&z.b2, &x.b2, &y.b2)
}

func fp6Sub(z, x, y *fp6) {
	fp2Sub(&z.b0, &x.b0, &y.b0)
	fp2Sub(&z.b1, &x.b1, &y.b1)
	fp2Sub(&z.b2, &x.b2, &y.b2)
}

func fp6Neg(z, x *fp6) {
	fp2Neg(&z.b0, &x.b0)
	fp2Neg(&z.b1, &x.b1)
	fp2Neg(&z.b2, &x.b2)
}

func fp6Double(z, x *fp6) {
	fp2Double(&z.b0, &x.b0)
	fp2Double(&z.b1, &x.b1)
	fp2Double(&z.b2, &x.b2)
}

// fp6MulGeneric sets z = x·y (Karatsuba-style, 6 fp2 multiplications) for
// x and y with components below Q; z may alias x or y. This is fp6Mul off
// amd64 and on CPUs without ADX/BMI2 (montmul_other.go); otherwise fp6Mul
// is the lazily reduced assembly (montmul_amd64.s), which
// TestFp6MulMatchesGeneric holds to it.
func fp6MulGeneric(z, x, y *fp6) {
	var t0, t1, t2, u, s, c0, c1, c2 fp2
	fp2Mul(&t0, &x.b0, &y.b0)
	fp2Mul(&t1, &x.b1, &y.b1)
	fp2Mul(&t2, &x.b2, &y.b2)

	// c0 = t0 + ξ((a1+a2)(b1+b2) − t1 − t2)
	fp2Add(&u, &x.b1, &x.b2)
	fp2Add(&s, &y.b1, &y.b2)
	fp2Mul(&u, &u, &s)
	fp2Sub(&u, &u, &t1)
	fp2Sub(&u, &u, &t2)
	fp2MulByNonresidue(&u, &u)
	fp2Add(&c0, &t0, &u)

	// c1 = (a0+a1)(b0+b1) − t0 − t1 + ξ·t2
	fp2Add(&u, &x.b0, &x.b1)
	fp2Add(&s, &y.b0, &y.b1)
	fp2Mul(&u, &u, &s)
	fp2Sub(&u, &u, &t0)
	fp2Sub(&u, &u, &t1)
	fp2MulByNonresidue(&s, &t2)
	fp2Add(&c1, &u, &s)

	// c2 = (a0+a2)(b0+b2) − t0 − t2 + t1
	fp2Add(&u, &x.b0, &x.b2)
	fp2Add(&s, &y.b0, &y.b2)
	fp2Mul(&u, &u, &s)
	fp2Sub(&u, &u, &t0)
	fp2Sub(&u, &u, &t2)
	fp2Add(&c2, &u, &t1)

	z.b0, z.b1, z.b2 = c0, c1, c2
}

func fp6Square(z, x *fp6) { fp6Mul(z, x, x) }

// fp6Mul01 multiplies by the sparse element d0 + d1·v (Miller-loop lines):
// Karatsuba, 5 fp2 multiplications.
func fp6Mul01(z, x *fp6, d0, d1 *fp2) {
	var t0, t1, u, s, c0, c1, c2 fp2
	fp2Mul(&t0, &x.b0, d0)
	fp2Mul(&t1, &x.b1, d1)
	// c0 = b0d0 + ξ·b2d1
	fp2Mul(&u, &x.b2, d1)
	fp2MulByNonresidue(&u, &u)
	fp2Add(&c0, &t0, &u)
	// c1 = (b0+b1)(d0+d1) − b0d0 − b1d1
	fp2Add(&u, &x.b0, &x.b1)
	fp2Add(&s, d0, d1)
	fp2Mul(&c1, &u, &s)
	fp2Sub(&c1, &c1, &t0)
	fp2Sub(&c1, &c1, &t1)
	// c2 = b1d1 + b2d0
	fp2Mul(&u, &x.b2, d0)
	fp2Add(&c2, &t1, &u)
	z.b0, z.b1, z.b2 = c0, c1, c2
}

// fp6MulByNonresidue sets z = v·x: (b0, b1, b2) → (ξ·b2, b0, b1).
func fp6MulByNonresidue(z, x *fp6) {
	var t fp2
	fp2MulByNonresidue(&t, &x.b2)
	z.b2 = x.b1
	z.b1 = x.b0
	z.b0 = t
}

// fp6Inv sets z = x⁻¹. Panics on zero.
func fp6Inv(z, x *fp6) {
	// c0 = b0² − ξ b1 b2; c1 = ξ b2² − b0 b1; c2 = b1² − b0 b2
	// t = b0 c0 + ξ(b2 c1 + b1 c2); z = (c0, c1, c2)/t
	var c0, c1, c2, t, u fp2
	fp2Square(&c0, &x.b0)
	fp2Mul(&u, &x.b1, &x.b2)
	fp2MulByNonresidue(&u, &u)
	fp2Sub(&c0, &c0, &u)

	fp2Square(&c1, &x.b2)
	fp2MulByNonresidue(&c1, &c1)
	fp2Mul(&u, &x.b0, &x.b1)
	fp2Sub(&c1, &c1, &u)

	fp2Square(&c2, &x.b1)
	fp2Mul(&u, &x.b0, &x.b2)
	fp2Sub(&c2, &c2, &u)

	fp2Mul(&t, &x.b0, &c0)
	fp2Mul(&u, &x.b2, &c1)
	var s fp2
	fp2Mul(&s, &x.b1, &c2)
	fp2Add(&u, &u, &s)
	fp2MulByNonresidue(&u, &u)
	fp2Add(&t, &t, &u)
	fp2Inv(&t, &t)

	fp2Mul(&z.b0, &c0, &t)
	fp2Mul(&z.b1, &c1, &t)
	fp2Mul(&z.b2, &c2, &t)
}
