package bn254

import "math/big"

// Jacobian-coordinate G1 arithmetic over the fixed-limb field: (X, Y, Z)
// represents the affine point (X/Z², Y/Z³); Z = 0 is the identity. The
// affine math/big group law in curve.go is retained as the reference
// oracle (scalarMulReference); fast_test.go cross-checks the two.

// fpThree is the curve coefficient b = 3 of E(Fq): y² = x³ + 3.
var fpThree = fpFromUint64(3)

type g1Jac struct{ x, y, z fp }

func (p *g1Jac) setInfinity() {
	p.x.setOne()
	p.y.setOne()
	p.z.setZero()
}

func (p *g1Jac) isInfinity() bool { return p.z.isZero() }

// toAffine normalizes back to the public representation (one inversion).
func (p *g1Jac) toAffine() G1Point {
	if p.isInfinity() {
		return G1Infinity()
	}
	var zi, zi2, zi3, x, y fp
	fpInv(&zi, &p.z)
	fpSquare(&zi2, &zi)
	montMul(&zi3, &zi2, &zi)
	montMul(&x, &p.x, &zi2)
	montMul(&y, &p.y, &zi3)
	return G1Point{X: Fq{v: x.toBig()}, Y: Fq{v: y.toBig()}}
}

// double sets p = 2p (dbl-2009-l; a = 0).
func (p *g1Jac) double() {
	if p.isInfinity() {
		return
	}
	var a, b, c, d, e, f, t fp
	fpSquare(&a, &p.x)
	fpSquare(&b, &p.y)
	fpSquare(&c, &b)
	// d = 2((X+B)² − A − C)
	fpAdd(&d, &p.x, &b)
	fpSquare(&d, &d)
	fpSub(&d, &d, &a)
	fpSub(&d, &d, &c)
	fpDouble(&d, &d)
	// e = 3A, f = E²
	fpDouble(&e, &a)
	fpAdd(&e, &e, &a)
	fpSquare(&f, &e)
	// Z3 = 2YZ (before X/Y are overwritten)
	montMul(&t, &p.y, &p.z)
	fpDouble(&p.z, &t)
	// X3 = F − 2D
	fpSub(&p.x, &f, &d)
	fpSub(&p.x, &p.x, &d)
	// Y3 = E(D − X3) − 8C
	fpSub(&t, &d, &p.x)
	montMul(&t, &e, &t)
	fpDouble(&c, &c)
	fpDouble(&c, &c)
	fpDouble(&c, &c)
	fpSub(&p.y, &t, &c)
}

// addAffine sets p += a where a is affine with Montgomery-form coordinates
// (mixed addition, madd-2007-bl).
func (p *g1Jac) addAffine(ax, ay *fp) {
	if p.isInfinity() {
		p.x = *ax
		p.y = *ay
		p.z.setOne()
		return
	}
	var z1z1, u2, s2, h, hh, i, j, rr, v, t fp
	fpSquare(&z1z1, &p.z)
	montMul(&u2, ax, &z1z1)
	montMul(&s2, ay, &p.z)
	montMul(&s2, &s2, &z1z1)
	fpSub(&h, &u2, &p.x)
	fpSub(&rr, &s2, &p.y)
	if h.isZero() {
		if rr.isZero() {
			p.double()
			return
		}
		p.setInfinity()
		return
	}
	fpDouble(&rr, &rr) // r = 2(S2 − Y1)
	fpSquare(&hh, &h)
	fpDouble(&i, &hh)
	fpDouble(&i, &i) // I = 4HH
	montMul(&j, &h, &i)
	montMul(&v, &p.x, &i)
	// Z3 = 2 Z1 H (before overwrite)
	montMul(&t, &p.z, &h)
	fpDouble(&p.z, &t)
	// X3 = r² − J − 2V
	fpSquare(&t, &rr)
	fpSub(&t, &t, &j)
	fpSub(&t, &t, &v)
	fpSub(&t, &t, &v)
	// Y3 = r(V − X3) − 2 Y1 J
	fpSub(&v, &v, &t)
	montMul(&v, &rr, &v)
	montMul(&j, &p.y, &j)
	fpDouble(&j, &j)
	fpSub(&p.y, &v, &j)
	p.x = t
}

// scalarMulFast computes k·p via Jacobian double-and-add; k is taken mod R.
func (p G1Point) scalarMulFast(k *big.Int) G1Point {
	kk := new(big.Int).Mod(k, R)
	if p.Inf || kk.Sign() == 0 {
		return G1Infinity()
	}
	bx := fpFromBig(p.X.v)
	by := fpFromBig(p.Y.v)
	var acc g1Jac
	acc.setInfinity()
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc.double()
		if kk.Bit(i) == 1 {
			acc.addAffine(&bx, &by)
		}
	}
	return acc.toAffine()
}

// scalarMulReference is the retained math/big double-and-add oracle.
func (p G1Point) scalarMulReference(k *big.Int) G1Point {
	kk := new(big.Int).Mod(k, R)
	acc := G1Infinity()
	base := p
	for i := 0; i < kk.BitLen(); i++ {
		if kk.Bit(i) == 1 {
			acc = acc.Add(base)
		}
		base = base.Double()
	}
	return acc
}

// hashCandidate maps a candidate x coordinate to a curve point if x³+3 is
// a quadratic residue, picking the lexicographically smaller root exactly
// like the reference try-and-increment loop.
func hashCandidate(xBig *big.Int) (G1Point, bool) {
	x := fpFromBig(xBig)
	var rhs, t, y fp
	fpSquare(&t, &x)
	montMul(&rhs, &t, &x)
	fpAdd(&rhs, &rhs, &fpThree)
	if !fpSqrt(&y, &rhs) {
		return G1Point{}, false
	}
	var yn fp
	fpNeg(&yn, &y)
	if yn.lessCanonical(&y) {
		y = yn
	}
	return G1Point{X: Fq{v: x.toBig()}, Y: Fq{v: y.toBig()}}, true
}
