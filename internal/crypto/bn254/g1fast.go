package bn254

import "math/big"

// Jacobian-coordinate G1 arithmetic over the fixed-limb field: (X, Y, Z)
// represents the affine point (X/Z², Y/Z³); Z = 0 is the identity. On it,
// the package's one G1 scalar multiplication (G1MultiScalarMul). The
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

// g1Affine is a finite point with Montgomery-form coordinates.
type g1Affine struct{ x, y fp }

// g1Term is one k·P of a multi-scalar multiplication, laid out for the
// shared doubling chain: the odd multiples of P a width-4 NAF digit can
// select, their images under φ(x, y) = (βx, y), and the digits of the two
// GLV half-scalars, k1 over tab and k2 over φ(tab).
type g1Term struct {
	tab  [4]g1Affine // P, 3P, 5P, 7P
	phiX [4]fp       // β·x of each
	naf  [2][]int8   // signs of k1, k2 folded into the digits
}

// G1MultiScalarMul returns Σ kᵢ·pᵢ (each kᵢ taken mod R, negative ones
// included; the slices must be of one length) in a single interleaved pass
// (Straus): every term's scalar is split in two by the GLV endomorphism and
// recoded in width-4 NAF, all digit strings share one chain of Jacobian
// doublings — at most 128, and as few as the longest scalar has bits when
// all are short — and each nonzero digit costs one mixed addition from its
// term's table. The tables are built in Jacobian form and made affine
// together by one inversion; the result is normalised by a second.
// Variable time in points and scalars alike.
func G1MultiScalarMul(ps []G1Point, ks []*big.Int) G1Point {
	if len(ps) != len(ks) {
		panic("bn254: G1MultiScalarMul: points and scalars differ in number")
	}
	terms := make([]g1Term, 0, len(ps))
	multiples := make([]g1Jac, 0, 3*len(ps)) // 3P, 5P, 7P of every term
	digits := 0
	for i, p := range ps {
		k := ks[i]
		if k.BitLen() > glvShortBits && (k.Sign() < 0 || k.Cmp(R) >= 0) {
			k = new(big.Int).Mod(k, R)
		}
		if p.Inf || k.Sign() == 0 {
			continue
		}
		var t g1Term
		for h, half := range glvSplit(k) {
			t.naf[h] = wnaf(half, 4)
			if half.Sign() < 0 {
				for j := range t.naf[h] {
					t.naf[h][j] = -t.naf[h][j]
				}
			}
			digits = max(digits, len(t.naf[h]))
		}
		t.tab[0] = g1Affine{fpFromBig(p.X.v), fpFromBig(p.Y.v)}
		multiples = appendOddMultiples(multiples, &t.tab[0])
		terms = append(terms, t)
	}
	affine := g1BatchAffine(multiples)
	for i := range terms {
		t := &terms[i]
		copy(t.tab[1:], affine[3*i:])
		for j := range t.tab {
			montMul(&t.phiX[j], &t.tab[j].x, &glvBeta)
		}
	}

	var acc g1Jac
	acc.setInfinity()
	var negY fp
	for i := digits - 1; i >= 0; i-- {
		acc.double()
		for j := range terms {
			t := &terms[j]
			for h, naf := range t.naf {
				if i >= len(naf) || naf[i] == 0 {
					continue
				}
				d := naf[i]
				if d < 0 {
					d = -d
				}
				e := &t.tab[d/2]
				x, y := &e.x, &e.y
				if h == 1 {
					x = &t.phiX[d/2]
				}
				if naf[i] < 0 {
					fpNeg(&negY, y)
					y = &negY
				}
				acc.addAffine(x, y)
			}
		}
	}
	return acc.toAffine()
}

// appendOddMultiples appends 3P, 5P and 7P: three doublings and three
// mixed additions of P itself.
func appendOddMultiples(dst []g1Jac, p *g1Affine) []g1Jac {
	even := g1Jac{x: p.x, y: p.y, z: fpMontOne}
	even.double() // 2P
	m3 := even
	m3.addAffine(&p.x, &p.y)
	even.double() // 4P
	m5 := even
	m5.addAffine(&p.x, &p.y)
	m7 := m3
	m7.double() // 6P
	m7.addAffine(&p.x, &p.y)
	return append(dst, m3, m5, m7)
}

// g1BatchAffine normalises finite Jacobian points with one inversion
// between them (Montgomery's trick): invert the product of every Z, then
// peel the factors off one at a time.
func g1BatchAffine(ps []g1Jac) []g1Affine {
	out := make([]g1Affine, len(ps))
	if len(ps) == 0 {
		return out
	}
	// out[i].x holds Z₀·…·Zᵢ₋₁ until point i is written.
	acc := fpMontOne
	for i := range ps {
		out[i].x = acc
		montMul(&acc, &acc, &ps[i].z)
	}
	fpInv(&acc, &acc)
	for i := len(ps) - 1; i >= 0; i-- {
		var zi, zi2 fp
		montMul(&zi, &acc, &out[i].x) // 1/Zᵢ
		montMul(&acc, &acc, &ps[i].z)
		fpSquare(&zi2, &zi)
		montMul(&out[i].x, &ps[i].x, &zi2)
		montMul(&zi2, &zi2, &zi)
		montMul(&out[i].y, &ps[i].y, &zi2)
	}
	return out
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
