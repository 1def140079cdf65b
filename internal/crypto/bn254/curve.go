package bn254

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
)

// G1Point is a point on E(Fq): y² = x³ + 3, affine with an infinity flag.
type G1Point struct {
	X, Y Fq
	Inf  bool
}

// G1Generator returns the standard generator (1, 2).
func G1Generator() G1Point {
	return G1Point{X: FqFromInt64(1), Y: FqFromInt64(2)}
}

// G1Infinity returns the identity.
func G1Infinity() G1Point { return G1Point{Inf: true} }

// IsOnCurve reports y² == x³ + 3 (or infinity).
func (p G1Point) IsOnCurve() bool {
	if p.Inf {
		return true
	}
	x, y := fpFromBig(p.X.v), fpFromBig(p.Y.v)
	var y2, x3 fp
	fpSquare(&y2, &y)
	fpSquare(&x3, &x)
	montMul(&x3, &x3, &x)
	fpAdd(&x3, &x3, &fpThree)
	return y2.equal(&x3)
}

// Equal compares points.
func (p G1Point) Equal(q G1Point) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(q.X) && p.Y.Equal(q.Y)
}

// Neg returns −p.
func (p G1Point) Neg() G1Point {
	if p.Inf {
		return p
	}
	return G1Point{X: p.X, Y: p.Y.Neg()}
}

// Add returns p + q by the affine chord-tangent law.
func (p G1Point) Add(q G1Point) G1Point {
	switch {
	case p.Inf:
		return q
	case q.Inf:
		return p
	}
	if p.X.Equal(q.X) {
		if p.Y.Equal(q.Y) {
			return p.Double()
		}
		return G1Infinity()
	}
	lam := q.Y.Sub(p.Y).Mul(q.X.Sub(p.X).Inv())
	x3 := lam.Mul(lam).Sub(p.X).Sub(q.X)
	y3 := lam.Mul(p.X.Sub(x3)).Sub(p.Y)
	return G1Point{X: x3, Y: y3}
}

// Double returns 2p.
func (p G1Point) Double() G1Point {
	if p.Inf || p.Y.IsZero() {
		return G1Infinity()
	}
	lam := p.X.Mul(p.X).Mul(FqFromInt64(3)).Mul(p.Y.Add(p.Y).Inv())
	x3 := lam.Mul(lam).Sub(p.X).Sub(p.X)
	y3 := lam.Mul(p.X.Sub(x3)).Sub(p.Y)
	return G1Point{X: x3, Y: y3}
}

// ScalarMul returns k·p (k taken mod R): the one-term case of
// G1MultiScalarMul (g1fast.go). scalarMulReference retains the affine
// math/big double-and-add as the oracle.
func (p G1Point) ScalarMul(k *big.Int) G1Point {
	return G1MultiScalarMul([]G1Point{p}, []*big.Int{k})
}

// Marshal serializes the point (64 bytes, or all-zero for infinity).
func (p G1Point) Marshal() []byte {
	out := make([]byte, 64)
	if p.Inf {
		return out
	}
	p.X.v.FillBytes(out[:32])
	p.Y.v.FillBytes(out[32:])
	return out
}

// canonicalFq parses a 32-byte big-endian field element, rejecting
// non-canonical (≥ Q) encodings so every point has exactly one byte
// representation (signatures are compared and deduplicated as bytes).
func canonicalFq(b []byte) (Fq, bool) {
	v := new(big.Int).SetBytes(b)
	if v.Cmp(Q) >= 0 {
		return Fq{}, false
	}
	return Fq{v: v}, true
}

// UnmarshalG1 parses a 64-byte point, checking canonical coordinate
// encoding and curve membership.
func UnmarshalG1(data []byte) (G1Point, bool) {
	if len(data) != 64 {
		return G1Point{}, false
	}
	allZero := true
	for _, b := range data {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return G1Infinity(), true
	}
	x, okX := canonicalFq(data[:32])
	y, okY := canonicalFq(data[32:])
	if !okX || !okY {
		return G1Point{}, false
	}
	p := G1Point{X: x, Y: y}
	if !p.IsOnCurve() {
		return G1Point{}, false
	}
	return p, true
}

// HashToG1 hashes a message onto G1 by try-and-increment: candidate x
// values derived from the digest until x³+3 is a quadratic residue. The
// method is deterministic and constant-free; BLS signatures only need a
// random-oracle-ish map (§III). The square-root test runs on the
// fixed-limb field (hashCandidate); hashToG1Reference retains the
// math/big loop and produces identical points.
func HashToG1(msg []byte) G1Point {
	for ctr := uint32(0); ; ctr++ {
		// E(Fq) has order R exactly for BN curves (cofactor 1), so any
		// curve point is already in the subgroup.
		if p, ok := hashCandidate(hashCandidateX(msg, ctr)); ok {
			return p
		}
	}
}

// hashCandidateX derives the ctr-th candidate x coordinate for msg.
func hashCandidateX(msg []byte, ctr uint32) *big.Int {
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
	d2 := h.Sum(nil)
	return new(big.Int).SetBytes(append(d1, d2...))
}

// hashToG1Reference is the retained math/big try-and-increment loop, the
// differential oracle for HashToG1.
func hashToG1Reference(msg []byte) G1Point {
	for ctr := uint32(0); ; ctr++ {
		x := NewFq(hashCandidateX(msg, ctr))
		rhs := x.Mul(x).Mul(x).Add(FqFromInt64(3))
		y := new(big.Int).ModSqrt(rhs.Big(), Q)
		if y == nil {
			continue
		}
		// Pick the lexicographically smaller root for determinism.
		yf := NewFq(y)
		other := yf.Neg()
		if other.Big().Cmp(yf.Big()) < 0 {
			yf = other
		}
		return G1Point{X: x, Y: yf}
	}
}

// G2Point is a point on the sextic twist E'(Fq²): y² = x³ + 3/ξ.
type G2Point struct {
	X, Y FQP // Fq² elements
	Inf  bool
}

// twistB is 3/ξ with ξ = 9 + i.
var twistB = func() FQP {
	xi := NewFq2(FqFromInt64(9), FqFromInt64(1))
	three := NewFq2(FqFromInt64(3), FqZero())
	return three.Mul(xi.Inv())
}()

// G2Generator returns the standard BN254 G2 generator.
func G2Generator() G2Point {
	x0, _ := new(big.Int).SetString("10857046999023057135944570762232829481370756359578518086990519993285655852781", 10)
	x1, _ := new(big.Int).SetString("11559732032986387107991004021392285783925812861821192530917403151452391805634", 10)
	y0, _ := new(big.Int).SetString("8495653923123431417604973247489272438418190587263600148770280649306958101930", 10)
	y1, _ := new(big.Int).SetString("4082367875863433681332203403145435568316851327593401208105741076214120093531", 10)
	return G2Point{
		X: NewFq2(NewFq(x0), NewFq(x1)),
		Y: NewFq2(NewFq(y0), NewFq(y1)),
	}
}

// G2Infinity returns the identity.
func G2Infinity() G2Point { return G2Point{Inf: true} }

// IsOnCurve reports membership on the twist.
func (p G2Point) IsOnCurve() bool {
	if p.Inf {
		return true
	}
	y2 := p.Y.Mul(p.Y)
	x3 := p.X.Mul(p.X).Mul(p.X).Add(twistB)
	return y2.Equal(x3)
}

// Equal compares points.
func (p G2Point) Equal(q G2Point) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(q.X) && p.Y.Equal(q.Y)
}

// Neg returns −p.
func (p G2Point) Neg() G2Point {
	if p.Inf {
		return p
	}
	return G2Point{X: p.X, Y: p.Y.Neg()}
}

// Add returns p + q.
func (p G2Point) Add(q G2Point) G2Point {
	switch {
	case p.Inf:
		return q
	case q.Inf:
		return p
	}
	if p.X.Equal(q.X) {
		if p.Y.Equal(q.Y) {
			return p.Double()
		}
		return G2Infinity()
	}
	lam := q.Y.Sub(p.Y).Mul(q.X.Sub(p.X).Inv())
	x3 := lam.Mul(lam).Sub(p.X).Sub(q.X)
	y3 := lam.Mul(p.X.Sub(x3)).Sub(p.Y)
	return G2Point{X: x3, Y: y3}
}

// Double returns 2p.
func (p G2Point) Double() G2Point {
	if p.Inf || p.Y.IsZero() {
		return G2Infinity()
	}
	three := NewFq2(FqFromInt64(3), FqZero())
	lam := p.X.Mul(p.X).Mul(three).Mul(p.Y.Add(p.Y).Inv())
	x3 := lam.Mul(lam).Sub(p.X).Sub(p.X)
	y3 := lam.Mul(p.X.Sub(x3)).Sub(p.Y)
	return G2Point{X: x3, Y: y3}
}

// ScalarMul returns k·p (k taken mod R). It runs in fixed-limb Jacobian
// coordinates over Fq² (g2fast.go); scalarMulReference retains the affine
// math/big double-and-add as the oracle.
func (p G2Point) ScalarMul(k *big.Int) G2Point {
	return p.scalarMulFast(k)
}

// InSubgroup reports R·p == ∞ (the twist has composite order; valid
// public keys must lie in the R-torsion).
func (p G2Point) InSubgroup() bool {
	return p.ScalarMul(new(big.Int).Sub(R, big.NewInt(1))).Add(p).Inf
}

// Marshal serializes the point (128 bytes; all-zero = infinity).
func (p G2Point) Marshal() []byte {
	out := make([]byte, 128)
	if p.Inf {
		return out
	}
	p.X.Coeff(0).Big().FillBytes(out[0:32])
	p.X.Coeff(1).Big().FillBytes(out[32:64])
	p.Y.Coeff(0).Big().FillBytes(out[64:96])
	p.Y.Coeff(1).Big().FillBytes(out[96:128])
	return out
}

// UnmarshalG2 parses a 128-byte point, checking canonical coordinate
// encoding, curve and subgroup membership.
func UnmarshalG2(data []byte) (G2Point, bool) {
	if len(data) != 128 {
		return G2Point{}, false
	}
	allZero := true
	for _, b := range data {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return G2Infinity(), true
	}
	x0, ok0 := canonicalFq(data[0:32])
	x1, ok1 := canonicalFq(data[32:64])
	y0, ok2 := canonicalFq(data[64:96])
	y1, ok3 := canonicalFq(data[96:128])
	if !ok0 || !ok1 || !ok2 || !ok3 {
		return G2Point{}, false
	}
	p := G2Point{X: NewFq2(x0, x1), Y: NewFq2(y0, y1)}
	if !p.IsOnCurve() || !p.InSubgroup() {
		return G2Point{}, false
	}
	return p, true
}

// g12Point is a point with coordinates in Fq¹² (the twisted embedding the
// Miller loop operates on).
type g12Point struct {
	X, Y FQP
	Inf  bool
}

// twist maps a G2 point onto E(Fq¹²): (x, y) ↦ (x̃·w², ỹ·w³) where x̃, ỹ
// re-express the Fq² coordinates over i = w⁶ − 9.
func (p G2Point) twist() g12Point {
	if p.Inf {
		return g12Point{Inf: true}
	}
	x12 := Fq2ToFq12(p.X)
	y12 := Fq2ToFq12(p.Y)
	var w2c, w3c [12]Fq
	for i := range w2c {
		w2c[i], w3c[i] = FqZero(), FqZero()
	}
	w2c[2] = FqOne()
	w3c[3] = FqOne()
	w2 := NewFq12(w2c)
	w3 := NewFq12(w3c)
	return g12Point{X: x12.Mul(w2), Y: y12.Mul(w3)}
}

// embed maps a G1 point into Fq¹² coordinates.
func (p G1Point) embed() g12Point {
	if p.Inf {
		return g12Point{Inf: true}
	}
	return g12Point{X: FqToFq12(p.X), Y: FqToFq12(p.Y)}
}

func (p g12Point) equal(q g12Point) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(q.X) && p.Y.Equal(q.Y)
}

func (p g12Point) neg() g12Point {
	if p.Inf {
		return p
	}
	return g12Point{X: p.X, Y: p.Y.Neg()}
}

func (p g12Point) add(q g12Point) g12Point {
	switch {
	case p.Inf:
		return q
	case q.Inf:
		return p
	}
	if p.X.Equal(q.X) {
		if p.Y.Equal(q.Y) {
			return p.double()
		}
		return g12Point{Inf: true}
	}
	lam := q.Y.Sub(p.Y).Mul(q.X.Sub(p.X).Inv())
	x3 := lam.Mul(lam).Sub(p.X).Sub(q.X)
	y3 := lam.Mul(p.X.Sub(x3)).Sub(p.Y)
	return g12Point{X: x3, Y: y3}
}

func (p g12Point) double() g12Point {
	if p.Inf || p.Y.IsZero() {
		return g12Point{Inf: true}
	}
	three := FqToFq12(FqFromInt64(3))
	lam := p.X.Mul(p.X).Mul(three).Mul(p.Y.Add(p.Y).Inv())
	x3 := lam.Mul(lam).Sub(p.X).Sub(p.X)
	y3 := lam.Mul(p.X.Sub(x3)).Sub(p.Y)
	return g12Point{X: x3, Y: y3}
}

// frobenius applies the q-power Frobenius coordinate-wise (raising Fq¹²
// coordinates to the q-th power), used for the final two ate-pairing
// steps.
func (p g12Point) frobenius() g12Point {
	if p.Inf {
		return p
	}
	return g12Point{X: p.X.Pow(Q), Y: p.Y.Pow(Q)}
}
