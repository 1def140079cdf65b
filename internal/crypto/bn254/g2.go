package bn254

import (
	"encoding/hex"
	"math/big"
)

// G2Point is a point on the sextic twist E'(Fq²): y² = x³ + 3/ξ, affine with
// an infinity flag. Like G1Point's, its coordinates are fully reduced
// Montgomery limbs.
type G2Point struct {
	x, y fp2
	Inf  bool
}

// fp2TwistB is b′ = 3/ξ, the twist coefficient.
var fp2TwistB = func() fp2 {
	var b fp2
	fp2Inv(&b, &fp2Xi)
	fp2MulByFp(&b, &b, &fpThree)
	return b
}()

// g2Gen is the standard BN254 G2 generator, decoded from its big-endian
// encoding x.c0 ‖ x.c1 ‖ y.c0 ‖ y.c1 (the curve and subgroup checks run on
// it at init).
var g2Gen = func() G2Point {
	b, _ := hex.DecodeString("" +
		"1800deef121f1e76426a00665e5c4479674322d4f75edadd46debd5cd992f6ed" +
		"198e9393920d483a7260bfb731fb5d25f1aa493335a9e71297e485b7aef312c2" +
		"12c85ea5db8c6deb4aab71808dcb408fe3d1e7690c43d37b4ce6cc0166fa7daa" +
		"090689d0585ff075ec9e99ad690c3395bc4b313370b38ef355acdadcd122975b")
	p, ok := UnmarshalG2(b)
	if !ok {
		panic("bn254: G2 generator fails its own checks")
	}
	return p
}()

// G2Generator returns the standard BN254 G2 generator.
func G2Generator() G2Point { return g2Gen }

// G2Infinity returns the identity.
func G2Infinity() G2Point { return G2Point{Inf: true} }

// IsOnCurve reports membership on the twist.
func (p G2Point) IsOnCurve() bool {
	if p.Inf {
		return true
	}
	var y2, x3 fp2
	fp2Square(&y2, &p.y)
	fp2Square(&x3, &p.x)
	fp2Mul(&x3, &x3, &p.x)
	fp2Add(&x3, &x3, &fp2TwistB)
	return y2.equal(&x3)
}

// Equal compares points.
func (p G2Point) Equal(q G2Point) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.x.equal(&q.x) && p.y.equal(&q.y)
}

// Neg returns −p.
func (p G2Point) Neg() G2Point {
	if !p.Inf {
		fp2Neg(&p.y, &p.y)
	}
	return p
}

// Add returns p + q: one mixed Jacobian addition and one inversion back to
// affine.
func (p G2Point) Add(q G2Point) G2Point {
	j := p.jac()
	j.addAffine(&q)
	return j.toAffine()
}

// Double returns 2p.
func (p G2Point) Double() G2Point {
	j := p.jac()
	j.double()
	return j.toAffine()
}

// ScalarMul returns k·p (k taken mod R), by Jacobian double-and-add.
func (p G2Point) ScalarMul(k *big.Int) G2Point {
	if k.Sign() < 0 || k.Cmp(R) >= 0 {
		k = new(big.Int).Mod(k, R)
	}
	j := p.mulJac(k)
	return j.toAffine()
}

// InSubgroup reports R·p == ∞ (the twist has composite order; valid
// public keys must lie in the R-torsion).
func (p G2Point) InSubgroup() bool {
	j := p.mulJac(R)
	return j.isInfinity()
}

// Marshal serializes the point (128 bytes; all-zero = infinity).
func (p G2Point) Marshal() []byte {
	out := make([]byte, 128)
	if !p.Inf {
		p.x.c0.putBytes(out[0:32])
		p.x.c1.putBytes(out[32:64])
		p.y.c0.putBytes(out[64:96])
		p.y.c1.putBytes(out[96:128])
	}
	return out
}

// UnmarshalG2 parses a 128-byte point, checking canonical coordinate
// encoding, curve and subgroup membership.
func UnmarshalG2(data []byte) (G2Point, bool) {
	if len(data) != 128 {
		return G2Point{}, false
	}
	if allZero(data) {
		return G2Infinity(), true
	}
	x0, ok0 := fpFromBytes(data[0:32])
	x1, ok1 := fpFromBytes(data[32:64])
	y0, ok2 := fpFromBytes(data[64:96])
	y1, ok3 := fpFromBytes(data[96:128])
	p := G2Point{x: fp2{x0, x1}, y: fp2{y0, y1}}
	if !ok0 || !ok1 || !ok2 || !ok3 || !p.IsOnCurve() || !p.InSubgroup() {
		return G2Point{}, false
	}
	return p, true
}

// Jacobian-coordinate G2 arithmetic over fp2, mirroring g1.go on the
// sextic twist. The group law never references the curve constant, so the
// formulas are identical to G1 with fp2 coefficients.

type g2Jac struct{ x, y, z fp2 }

// jac lifts an affine point to Z = 1 (or the Jacobian identity).
func (p *G2Point) jac() g2Jac {
	if p.Inf {
		var j g2Jac
		j.setInfinity()
		return j
	}
	j := g2Jac{x: p.x, y: p.y}
	j.z.setOne()
	return j
}

func (p *g2Jac) setInfinity() {
	p.x.setOne()
	p.y.setOne()
	p.z.setZero()
}

func (p *g2Jac) isInfinity() bool { return p.z.isZero() }

func (p *g2Jac) toAffine() G2Point {
	if p.isInfinity() {
		return G2Infinity()
	}
	var zi, zi2, zi3 fp2
	fp2Inv(&zi, &p.z)
	fp2Square(&zi2, &zi)
	fp2Mul(&zi3, &zi2, &zi)
	var a G2Point
	fp2Mul(&a.x, &p.x, &zi2)
	fp2Mul(&a.y, &p.y, &zi3)
	return a
}

// double sets p = 2p (dbl-2009-l over fp2).
func (p *g2Jac) double() {
	if p.isInfinity() {
		return
	}
	var a, b, c, d, e, f, t fp2
	fp2Square(&a, &p.x)
	fp2Square(&b, &p.y)
	fp2Square(&c, &b)
	fp2Add(&d, &p.x, &b)
	fp2Square(&d, &d)
	fp2Sub(&d, &d, &a)
	fp2Sub(&d, &d, &c)
	fp2Double(&d, &d)
	fp2Double(&e, &a)
	fp2Add(&e, &e, &a)
	fp2Square(&f, &e)
	fp2Mul(&t, &p.y, &p.z)
	fp2Double(&p.z, &t)
	fp2Sub(&p.x, &f, &d)
	fp2Sub(&p.x, &p.x, &d)
	fp2Sub(&t, &d, &p.x)
	fp2Mul(&t, &e, &t)
	fp2Double(&c, &c)
	fp2Double(&c, &c)
	fp2Double(&c, &c)
	fp2Sub(&p.y, &t, &c)
}

// addAffine sets p += a (mixed addition, madd-2007-bl over fp2).
func (p *g2Jac) addAffine(a *G2Point) {
	if a.Inf {
		return
	}
	if p.isInfinity() {
		p.x = a.x
		p.y = a.y
		p.z.setOne()
		return
	}
	var z1z1, u2, s2, h, hh, i, j, rr, v, t fp2
	fp2Square(&z1z1, &p.z)
	fp2Mul(&u2, &a.x, &z1z1)
	fp2Mul(&s2, &a.y, &p.z)
	fp2Mul(&s2, &s2, &z1z1)
	fp2Sub(&h, &u2, &p.x)
	fp2Sub(&rr, &s2, &p.y)
	if h.isZero() {
		if rr.isZero() {
			p.double()
			return
		}
		p.setInfinity()
		return
	}
	fp2Double(&rr, &rr)
	fp2Square(&hh, &h)
	fp2Double(&i, &hh)
	fp2Double(&i, &i)
	fp2Mul(&j, &h, &i)
	fp2Mul(&v, &p.x, &i)
	fp2Mul(&t, &p.z, &h)
	fp2Double(&p.z, &t)
	fp2Square(&t, &rr)
	fp2Sub(&t, &t, &j)
	fp2Sub(&t, &t, &v)
	fp2Sub(&t, &t, &v)
	fp2Sub(&v, &v, &t)
	fp2Mul(&v, &rr, &v)
	fp2Mul(&j, &p.y, &j)
	fp2Double(&j, &j)
	fp2Sub(&p.y, &v, &j)
	p.x = t
}

// mulJac returns k·p for k ≥ 0, not reduced mod R (InSubgroup multiplies by
// R itself), by double-and-add.
func (p *G2Point) mulJac(k *big.Int) g2Jac {
	var acc g2Jac
	acc.setInfinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.double()
		if k.Bit(i) == 1 {
			acc.addAffine(p)
		}
	}
	return acc
}
