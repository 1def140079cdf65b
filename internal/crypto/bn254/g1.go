package bn254

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
)

// G1Point is a point on E(Fq): y² = x³ + 3, affine with an infinity flag.
// The coordinates are fully reduced Montgomery limbs (below Q), so two
// points are equal exactly when their limbs are.
type G1Point struct {
	x, y fp
	Inf  bool
}

// fpThree is the curve coefficient b = 3 of E(Fq): y² = x³ + 3.
var fpThree = fpFromUint64(3)

// G1Generator returns the standard generator (1, 2).
func G1Generator() G1Point {
	return G1Point{x: fpFromUint64(1), y: fpFromUint64(2)}
}

// G1Infinity returns the identity.
func G1Infinity() G1Point { return G1Point{Inf: true} }

// IsOnCurve reports y² == x³ + 3 (or infinity).
func (p G1Point) IsOnCurve() bool {
	if p.Inf {
		return true
	}
	var y2, x3 fp
	fpSquare(&y2, &p.y)
	fpSquare(&x3, &p.x)
	montMul(&x3, &x3, &p.x)
	fpAdd(&x3, &x3, &fpThree)
	return y2.equal(&x3)
}

// Equal compares points.
func (p G1Point) Equal(q G1Point) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.x.equal(&q.x) && p.y.equal(&q.y)
}

// Neg returns −p.
func (p G1Point) Neg() G1Point {
	if !p.Inf {
		fpNeg(&p.y, &p.y)
	}
	return p
}

// Add returns p + q: one mixed Jacobian addition and one inversion back to
// affine.
func (p G1Point) Add(q G1Point) G1Point {
	if q.Inf {
		return p
	}
	j := p.jac()
	j.addAffine(&q.x, &q.y)
	return j.toAffine()
}

// Double returns 2p.
func (p G1Point) Double() G1Point {
	j := p.jac()
	j.double()
	return j.toAffine()
}

// ScalarMul returns k·p (k taken mod R): the one-term case of
// G1MultiScalarMul.
func (p G1Point) ScalarMul(k *big.Int) G1Point {
	return G1MultiScalarMul([]G1Point{p}, []*big.Int{k})
}

// Marshal serializes the point (64 bytes, or all-zero for infinity).
func (p G1Point) Marshal() []byte {
	out := make([]byte, 64)
	if !p.Inf {
		p.x.putBytes(out[:32])
		p.y.putBytes(out[32:])
	}
	return out
}

// allZero reports whether b is the all-zero encoding of infinity.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// UnmarshalG1 parses a 64-byte point, checking canonical coordinate
// encoding and curve membership.
func UnmarshalG1(data []byte) (G1Point, bool) {
	if len(data) != 64 {
		return G1Point{}, false
	}
	if allZero(data) {
		return G1Infinity(), true
	}
	x, okX := fpFromBytes(data[:32])
	y, okY := fpFromBytes(data[32:])
	p := G1Point{x: x, y: y}
	if !okX || !okY || !p.IsOnCurve() {
		return G1Point{}, false
	}
	return p, true
}

// HashToG1 hashes a message onto G1 by try-and-increment: candidate x
// values derived from the digest until x³+3 is a quadratic residue, and of
// the two roots the one whose canonical value is smaller. The method is
// deterministic and constant-free; BLS signatures only need a
// random-oracle-ish map (§III).
func HashToG1(msg []byte) G1Point {
	for ctr := uint32(0); ; ctr++ {
		// E(Fq) has order R exactly for BN curves (cofactor 1), so any
		// curve point is already in the subgroup.
		p := G1Point{x: fpFromWide(hashCandidateX(msg, ctr))}
		var rhs fp
		fpSquare(&rhs, &p.x)
		montMul(&rhs, &rhs, &p.x)
		fpAdd(&rhs, &rhs, &fpThree)
		if !fpSqrt(&p.y, &rhs) {
			continue
		}
		var yn fp
		fpNeg(&yn, &p.y)
		if yn.lessCanonical(&p.y) {
			p.y = yn
		}
		return p
	}
}

// hashCandidateX derives the ctr-th candidate x coordinate for msg: a
// 64-byte big-endian integer, reduced mod Q by the caller.
func hashCandidateX(msg []byte, ctr uint32) []byte {
	h := sha256.New()
	h.Write([]byte("bn254:hash-to-g1"))
	var cb [4]byte
	binary.BigEndian.PutUint32(cb[:], ctr)
	h.Write(cb[:])
	h.Write(msg)
	d1 := h.Sum(nil)
	h.Reset()
	h.Write([]byte("bn254:hash-to-g1:2"))
	h.Write(cb[:])
	h.Write(msg)
	return h.Sum(d1)
}

// Jacobian-coordinate G1 arithmetic: (X, Y, Z) represents the affine point
// (X/Z², Y/Z³); Z = 0 is the identity. On it, the group law above and the
// package's one G1 scalar multiplication (G1MultiScalarMul).

type g1Jac struct{ x, y, z fp }

// jac lifts an affine point to Z = 1 (or the Jacobian identity).
func (p *G1Point) jac() g1Jac {
	if p.Inf {
		var j g1Jac
		j.setInfinity()
		return j
	}
	return g1Jac{x: p.x, y: p.y, z: fpMontOne}
}

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
	var zi, zi2, zi3 fp
	var a G1Point
	fpInv(&zi, &p.z)
	fpSquare(&zi2, &zi)
	montMul(&zi3, &zi2, &zi)
	montMul(&a.x, &p.x, &zi2)
	montMul(&a.y, &p.y, &zi3)
	return a
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

// g1Term is one k·P of a multi-scalar multiplication, laid out for the
// shared doubling chain: the odd multiples of P a width-4 NAF digit can
// select, their images under φ(x, y) = (βx, y), and the digits of the two
// GLV half-scalars, k1 over tab and k2 over φ(tab).
type g1Term struct {
	tab  [4]G1Point // P, 3P, 5P, 7P
	phiX [4]fp      // β·x of each
	naf  [2][]int8  // signs of k1, k2 folded into the digits
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
		t.tab[0] = p
		multiples = appendOddMultiples(multiples, &p)
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
func appendOddMultiples(dst []g1Jac, p *G1Point) []g1Jac {
	even := p.jac()
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
func g1BatchAffine(ps []g1Jac) []G1Point {
	out := make([]G1Point, len(ps))
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
