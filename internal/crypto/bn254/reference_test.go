package bn254

// The math/big oracle: the auditable reference implementation of the same
// algebra as the limb code, kept test-only. Fq and the generic polynomial
// quotient rings FQP, where the tower behaviour (the Frobenius action
// included) follows from ordinary polynomial arithmetic rather than
// hand-derived constants; the affine chord-tangent group laws on G1 and on
// the twist; the affine Miller loop over Fq¹² coordinates with the full
// final exponent; and the math/big hash-to-curve loop. fast_test.go and the
// fuzz targets compare the production code against it, through the
// conversions at the end of this file.

import (
	"fmt"
	"math/big"
)

// Fq is an element of the base field (an integer mod Q). Fq values are
// immutable: operations return fresh elements.
type Fq struct{ v *big.Int }

// NewFq reduces an integer into the field.
func NewFq(v *big.Int) Fq {
	x := new(big.Int).Mod(v, Q)
	if x.Sign() < 0 {
		x.Add(x, Q)
	}
	return Fq{v: x}
}

// FqFromInt64 builds a small field element.
func FqFromInt64(v int64) Fq { return NewFq(big.NewInt(v)) }

// FqZero and FqOne are the field identities.
func FqZero() Fq { return Fq{v: new(big.Int)} }

// FqOne returns 1.
func FqOne() Fq { return Fq{v: big.NewInt(1)} }

// Big returns a copy of the underlying integer.
func (a Fq) Big() *big.Int { return new(big.Int).Set(a.v) }

// IsZero reports a == 0.
func (a Fq) IsZero() bool { return a.v.Sign() == 0 }

// Equal reports a == b.
func (a Fq) Equal(b Fq) bool { return a.v.Cmp(b.v) == 0 }

// Add returns a + b.
func (a Fq) Add(b Fq) Fq { return NewFq(new(big.Int).Add(a.v, b.v)) }

// Sub returns a - b.
func (a Fq) Sub(b Fq) Fq { return NewFq(new(big.Int).Sub(a.v, b.v)) }

// Neg returns -a.
func (a Fq) Neg() Fq { return NewFq(new(big.Int).Neg(a.v)) }

// Mul returns a · b.
func (a Fq) Mul(b Fq) Fq { return NewFq(new(big.Int).Mul(a.v, b.v)) }

// Inv returns a⁻¹; it panics on zero (callers guard).
func (a Fq) Inv() Fq {
	if a.IsZero() {
		panic("bn254: inverse of zero")
	}
	return Fq{v: new(big.Int).ModInverse(a.v, Q)}
}

// String renders the element.
func (a Fq) String() string { return a.v.String() }

// FQP is an element of a polynomial quotient ring Fq[x]/(m(x)): the
// generic extension used for both Fq² and Fq¹². coeffs has degree-many
// entries (little-endian); modulus holds the non-leading coefficients of
// the monic modulus polynomial.
type FQP struct {
	coeffs  []Fq
	modulus []Fq // m(x) = x^deg + Σ modulus[i]·x^i
}

// fq2Modulus is x² + 1 (i² = −1).
var fq2Modulus = []Fq{FqFromInt64(1), FqZero()}

// fq12Modulus is x¹² − 18x⁶ + 82, the standard BN254 single-shot tower:
// w⁶ = ξ = 9 + i with i = w⁶ − 9.
var fq12Modulus = []Fq{
	FqFromInt64(82), FqZero(), FqZero(), FqZero(), FqZero(), FqZero(),
	FqFromInt64(-18), FqZero(), FqZero(), FqZero(), FqZero(), FqZero(),
}

// NewFq2 builds an element a + b·i of Fq².
func NewFq2(a, b Fq) FQP {
	return FQP{coeffs: []Fq{a, b}, modulus: fq2Modulus}
}

// NewFq12 builds an element of Fq¹² from 12 coefficients.
func NewFq12(coeffs [12]Fq) FQP {
	c := make([]Fq, 12)
	copy(c, coeffs[:])
	return FQP{coeffs: c, modulus: fq12Modulus}
}

// Fq2Zero and friends construct identities of each extension.
func Fq2Zero() FQP { return zeroFQP(fq2Modulus) }

// Fq2One returns 1 ∈ Fq².
func Fq2One() FQP { return oneFQP(fq2Modulus) }

// Fq12Zero returns 0 ∈ Fq¹².
func Fq12Zero() FQP { return zeroFQP(fq12Modulus) }

// Fq12One returns 1 ∈ Fq¹².
func Fq12One() FQP { return oneFQP(fq12Modulus) }

func zeroFQP(mod []Fq) FQP {
	c := make([]Fq, len(mod))
	for i := range c {
		c[i] = FqZero()
	}
	return FQP{coeffs: c, modulus: mod}
}

func oneFQP(mod []Fq) FQP {
	e := zeroFQP(mod)
	e.coeffs[0] = FqOne()
	return e
}

// Degree reports the extension degree.
func (e FQP) Degree() int { return len(e.coeffs) }

// Coeff returns the i-th coefficient.
func (e FQP) Coeff(i int) Fq { return e.coeffs[i] }

// IsZero reports whether all coefficients vanish.
func (e FQP) IsZero() bool {
	for _, c := range e.coeffs {
		if !c.IsZero() {
			return false
		}
	}
	return true
}

// Equal compares elements of the same extension.
func (e FQP) Equal(o FQP) bool {
	if len(e.coeffs) != len(o.coeffs) {
		return false
	}
	for i := range e.coeffs {
		if !e.coeffs[i].Equal(o.coeffs[i]) {
			return false
		}
	}
	return true
}

func (e FQP) clone() FQP {
	c := make([]Fq, len(e.coeffs))
	copy(c, e.coeffs)
	return FQP{coeffs: c, modulus: e.modulus}
}

// Add returns e + o.
func (e FQP) Add(o FQP) FQP {
	r := e.clone()
	for i := range r.coeffs {
		r.coeffs[i] = r.coeffs[i].Add(o.coeffs[i])
	}
	return r
}

// Sub returns e − o.
func (e FQP) Sub(o FQP) FQP {
	r := e.clone()
	for i := range r.coeffs {
		r.coeffs[i] = r.coeffs[i].Sub(o.coeffs[i])
	}
	return r
}

// Neg returns −e.
func (e FQP) Neg() FQP {
	r := e.clone()
	for i := range r.coeffs {
		r.coeffs[i] = r.coeffs[i].Neg()
	}
	return r
}

// ScalarMul returns k·e for k ∈ Fq.
func (e FQP) ScalarMul(k Fq) FQP {
	r := e.clone()
	for i := range r.coeffs {
		r.coeffs[i] = r.coeffs[i].Mul(k)
	}
	return r
}

// Mul returns e · o reduced by the modulus polynomial.
func (e FQP) Mul(o FQP) FQP {
	deg := len(e.coeffs)
	tmp := make([]Fq, 2*deg-1)
	for i := range tmp {
		tmp[i] = FqZero()
	}
	for i, a := range e.coeffs {
		if a.IsZero() {
			continue
		}
		for j, b := range o.coeffs {
			if b.IsZero() {
				continue
			}
			tmp[i+j] = tmp[i+j].Add(a.Mul(b))
		}
	}
	// Reduce: x^deg ≡ −modulus(x).
	for i := len(tmp) - 1; i >= deg; i-- {
		top := tmp[i]
		if top.IsZero() {
			continue
		}
		tmp[i] = FqZero()
		for j, m := range e.modulus {
			if m.IsZero() {
				continue
			}
			tmp[i-deg+j] = tmp[i-deg+j].Sub(top.Mul(m))
		}
	}
	r := e.clone()
	copy(r.coeffs, tmp[:deg])
	return r
}

// Square returns e².
func (e FQP) Square() FQP { return e.Mul(e) }

// Pow returns e^k for a non-negative integer k.
func (e FQP) Pow(k *big.Int) FQP {
	result := oneFQP(e.modulus)
	base := e.clone()
	for i := k.BitLen() - 1; i >= 0; i-- {
		result = result.Mul(result)
		if k.Bit(i) == 1 {
			result = result.Mul(base)
		}
	}
	return result
}

// Inv returns e⁻¹ via the extended Euclidean algorithm on polynomials
// over Fq. It panics on zero (callers guard).
func (e FQP) Inv() FQP {
	if e.IsZero() {
		panic("bn254: inverse of zero extension element")
	}
	deg := len(e.coeffs)
	// lm·e + (…)·m = low, invariant maintained while reducing.
	lm := make([]Fq, deg+1)
	hm := make([]Fq, deg+1)
	for i := range lm {
		lm[i], hm[i] = FqZero(), FqZero()
	}
	lm[0] = FqOne()
	low := make([]Fq, deg+1)
	high := make([]Fq, deg+1)
	for i := 0; i < deg; i++ {
		low[i] = e.coeffs[i]
		high[i] = e.modulus[i]
	}
	low[deg] = FqZero()
	high[deg] = FqOne()

	for polyDeg(low) > 0 {
		r := polyDivMod(high, low)
		nm := make([]Fq, deg+1)
		nw := make([]Fq, deg+1)
		copy(nm, hm)
		copy(nw, high)
		for i := 0; i <= deg; i++ {
			for j := 0; i+j <= deg; j++ {
				nm[i+j] = nm[i+j].Sub(lm[i].Mul(r[j]))
				nw[i+j] = nw[i+j].Sub(low[i].Mul(r[j]))
			}
		}
		high, hm = low, lm
		low, lm = nw, nm
	}
	invLead := low[0].Inv()
	out := e.clone()
	for i := 0; i < deg; i++ {
		out.coeffs[i] = lm[i].Mul(invLead)
	}
	return out
}

// polyDeg reports the degree of a coefficient slice (−1 for zero).
func polyDeg(p []Fq) int {
	for i := len(p) - 1; i >= 0; i-- {
		if !p[i].IsZero() {
			return i
		}
	}
	return -1
}

// polyDivMod returns ⌊a / b⌋ as polynomials over Fq.
func polyDivMod(a, b []Fq) []Fq {
	tmp := make([]Fq, len(a))
	copy(tmp, a)
	out := make([]Fq, len(a))
	for i := range out {
		out[i] = FqZero()
	}
	degB := polyDeg(b)
	invLead := b[degB].Inv()
	for polyDeg(tmp) >= degB && polyDeg(tmp) >= 0 {
		shift := polyDeg(tmp) - degB
		factor := tmp[polyDeg(tmp)].Mul(invLead)
		out[shift] = out[shift].Add(factor)
		for j := 0; j <= degB; j++ {
			tmp[shift+j] = tmp[shift+j].Sub(factor.Mul(b[j]))
		}
	}
	return out
}

// String renders the coefficients.
func (e FQP) String() string { return fmt.Sprintf("FQP%v", e.coeffs) }

// Fq2ToFq12 embeds an Fq² element a + b·i into Fq¹² using i = w⁶ − 9.
func Fq2ToFq12(x FQP) FQP {
	if len(x.coeffs) != 2 {
		panic("bn254: Fq2ToFq12 requires an Fq2 element")
	}
	var c [12]Fq
	for i := range c {
		c[i] = FqZero()
	}
	// a + b·(w⁶ − 9) = (a − 9b) + b·w⁶.
	c[0] = x.coeffs[0].Sub(FqFromInt64(9).Mul(x.coeffs[1]))
	c[6] = x.coeffs[1]
	return NewFq12(c)
}

// FqToFq12 embeds a base-field element into Fq¹².
func FqToFq12(a Fq) FQP {
	var c [12]Fq
	for i := range c {
		c[i] = FqZero()
	}
	c[0] = a
	return NewFq12(c)
}

// g1Ref is a point on E(Fq) with math/big coordinates: the reference
// G1Point.
type g1Ref struct {
	X, Y Fq
	Inf  bool
}

// IsOnCurve reports y² == x³ + 3 (or infinity).
func (p g1Ref) IsOnCurve() bool {
	if p.Inf {
		return true
	}
	return p.Y.Mul(p.Y).Equal(p.X.Mul(p.X).Mul(p.X).Add(FqFromInt64(3)))
}

// Equal compares points.
func (p g1Ref) Equal(q g1Ref) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(q.X) && p.Y.Equal(q.Y)
}

// Neg returns −p.
func (p g1Ref) Neg() g1Ref {
	if p.Inf {
		return p
	}
	return g1Ref{X: p.X, Y: p.Y.Neg()}
}

// Add returns p + q by the affine chord-tangent law.
func (p g1Ref) Add(q g1Ref) g1Ref {
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
		return g1Ref{Inf: true}
	}
	lam := q.Y.Sub(p.Y).Mul(q.X.Sub(p.X).Inv())
	x3 := lam.Mul(lam).Sub(p.X).Sub(q.X)
	y3 := lam.Mul(p.X.Sub(x3)).Sub(p.Y)
	return g1Ref{X: x3, Y: y3}
}

// Double returns 2p.
func (p g1Ref) Double() g1Ref {
	if p.Inf || p.Y.IsZero() {
		return g1Ref{Inf: true}
	}
	lam := p.X.Mul(p.X).Mul(FqFromInt64(3)).Mul(p.Y.Add(p.Y).Inv())
	x3 := lam.Mul(lam).Sub(p.X).Sub(p.X)
	y3 := lam.Mul(p.X.Sub(x3)).Sub(p.Y)
	return g1Ref{X: x3, Y: y3}
}

// mul is the affine double-and-add, k ≥ 0 and not reduced mod R.
func (p g1Ref) mul(k *big.Int) g1Ref {
	acc := g1Ref{Inf: true}
	base := p
	for i := 0; i < k.BitLen(); i++ {
		if k.Bit(i) == 1 {
			acc = acc.Add(base)
		}
		base = base.Double()
	}
	return acc
}

// Marshal serializes the point (64 bytes, or all-zero for infinity).
func (p g1Ref) Marshal() []byte {
	out := make([]byte, 64)
	if p.Inf {
		return out
	}
	p.X.v.FillBytes(out[:32])
	p.Y.v.FillBytes(out[32:])
	return out
}

// canonicalFq parses a 32-byte big-endian field element, rejecting
// non-canonical (≥ Q) encodings.
func canonicalFq(b []byte) (Fq, bool) {
	v := new(big.Int).SetBytes(b)
	if v.Cmp(Q) >= 0 {
		return Fq{}, false
	}
	return Fq{v: v}, true
}

// hashToG1Reference is the math/big try-and-increment loop, the
// differential oracle for HashToG1.
func hashToG1Reference(msg []byte) G1Point {
	for ctr := uint32(0); ; ctr++ {
		x := NewFq(new(big.Int).SetBytes(hashCandidateX(msg, ctr)))
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
		return g1Ref{X: x, Y: yf}.point()
	}
}

// g2Ref is a point on the twist with math/big coordinates: the reference
// G2Point.
type g2Ref struct {
	X, Y FQP // Fq² elements
	Inf  bool
}

// twistB is 3/ξ with ξ = 9 + i.
var twistB = func() FQP {
	xi := NewFq2(FqFromInt64(9), FqFromInt64(1))
	three := NewFq2(FqFromInt64(3), FqZero())
	return three.Mul(xi.Inv())
}()

// g2GeneratorReference is the standard generator from its decimal
// coordinates in the BN254 specification.
func g2GeneratorReference() g2Ref {
	x0, _ := new(big.Int).SetString("10857046999023057135944570762232829481370756359578518086990519993285655852781", 10)
	x1, _ := new(big.Int).SetString("11559732032986387107991004021392285783925812861821192530917403151452391805634", 10)
	y0, _ := new(big.Int).SetString("8495653923123431417604973247489272438418190587263600148770280649306958101930", 10)
	y1, _ := new(big.Int).SetString("4082367875863433681332203403145435568316851327593401208105741076214120093531", 10)
	return g2Ref{
		X: NewFq2(NewFq(x0), NewFq(x1)),
		Y: NewFq2(NewFq(y0), NewFq(y1)),
	}
}

// IsOnCurve reports membership on the twist.
func (p g2Ref) IsOnCurve() bool {
	if p.Inf {
		return true
	}
	y2 := p.Y.Mul(p.Y)
	x3 := p.X.Mul(p.X).Mul(p.X).Add(twistB)
	return y2.Equal(x3)
}

// InSubgroup reports R·p == ∞.
func (p g2Ref) InSubgroup() bool { return p.mul(R).Inf }

// Equal compares points.
func (p g2Ref) Equal(q g2Ref) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(q.X) && p.Y.Equal(q.Y)
}

// Neg returns −p.
func (p g2Ref) Neg() g2Ref {
	if p.Inf {
		return p
	}
	return g2Ref{X: p.X, Y: p.Y.Neg()}
}

// Add returns p + q.
func (p g2Ref) Add(q g2Ref) g2Ref {
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
		return g2Ref{Inf: true}
	}
	lam := q.Y.Sub(p.Y).Mul(q.X.Sub(p.X).Inv())
	x3 := lam.Mul(lam).Sub(p.X).Sub(q.X)
	y3 := lam.Mul(p.X.Sub(x3)).Sub(p.Y)
	return g2Ref{X: x3, Y: y3}
}

// Double returns 2p.
func (p g2Ref) Double() g2Ref {
	if p.Inf || p.Y.IsZero() {
		return g2Ref{Inf: true}
	}
	three := NewFq2(FqFromInt64(3), FqZero())
	lam := p.X.Mul(p.X).Mul(three).Mul(p.Y.Add(p.Y).Inv())
	x3 := lam.Mul(lam).Sub(p.X).Sub(p.X)
	y3 := lam.Mul(p.X.Sub(x3)).Sub(p.Y)
	return g2Ref{X: x3, Y: y3}
}

// mul is the affine double-and-add, k ≥ 0 and not reduced mod R.
func (p g2Ref) mul(k *big.Int) g2Ref {
	acc := g2Ref{Inf: true}
	base := p
	for i := 0; i < k.BitLen(); i++ {
		if k.Bit(i) == 1 {
			acc = acc.Add(base)
		}
		base = base.Double()
	}
	return acc
}

// Marshal serializes the point (128 bytes; all-zero = infinity).
func (p g2Ref) Marshal() []byte {
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

// unmarshalG2Reference parses a 128-byte point like UnmarshalG2, on the
// reference arithmetic.
func unmarshalG2Reference(data []byte) (g2Ref, bool) {
	if len(data) != 128 {
		return g2Ref{}, false
	}
	allZero := true
	for _, b := range data {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return g2Ref{Inf: true}, true
	}
	x0, ok0 := canonicalFq(data[0:32])
	x1, ok1 := canonicalFq(data[32:64])
	y0, ok2 := canonicalFq(data[64:96])
	y1, ok3 := canonicalFq(data[96:128])
	if !ok0 || !ok1 || !ok2 || !ok3 {
		return g2Ref{}, false
	}
	p := g2Ref{X: NewFq2(x0, x1), Y: NewFq2(y0, y1)}
	if !p.IsOnCurve() || !p.InSubgroup() {
		return g2Ref{}, false
	}
	return p, true
}

// scalarMulReference is the math/big double-and-add oracle for G1.
func (p G1Point) scalarMulReference(k *big.Int) G1Point {
	return g1RefOf(p).mul(new(big.Int).Mod(k, R)).point()
}

// scalarMulReference is the math/big double-and-add oracle for G2.
func (p G2Point) scalarMulReference(k *big.Int) G2Point {
	return g2RefOf(p).mul(new(big.Int).Mod(k, R)).point()
}

// g12Point is a point with coordinates in Fq¹² (the twisted embedding the
// Miller loop operates on).
type g12Point struct {
	X, Y FQP
	Inf  bool
}

// twist maps a G2 point onto E(Fq¹²): (x, y) ↦ (x̃·w², ỹ·w³) where x̃, ỹ
// re-express the Fq² coordinates over i = w⁶ − 9.
func (p g2Ref) twist() g12Point {
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
func (p g1Ref) embed() g12Point {
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

// lineFunc evaluates the line through p1 and p2 at t (all in Fq¹²
// coordinates): the Miller-loop building block.
func lineFunc(p1, p2, t g12Point) FQP {
	if !p1.X.Equal(p2.X) {
		// Chord.
		m := p2.Y.Sub(p1.Y).Mul(p2.X.Sub(p1.X).Inv())
		return m.Mul(t.X.Sub(p1.X)).Sub(t.Y.Sub(p1.Y))
	}
	if p1.Y.Equal(p2.Y) {
		// Tangent.
		three := FqToFq12(FqFromInt64(3))
		m := p1.X.Mul(p1.X).Mul(three).Mul(p1.Y.Add(p1.Y).Inv())
		return m.Mul(t.X.Sub(p1.X)).Sub(t.Y.Sub(p1.Y))
	}
	// Vertical line.
	return t.X.Sub(p1.X)
}

// millerLoop computes f_{6u+2, Q}(P) with the two Frobenius correction
// steps of the optimal ate pairing.
func millerLoop(q, p g12Point) FQP {
	if q.Inf || p.Inf {
		return Fq12One()
	}
	f := Fq12One()
	r := q
	for i := ateLoopCount.BitLen() - 2; i >= 0; i-- {
		f = f.Mul(f).Mul(lineFunc(r, r, p))
		r = r.double()
		if ateLoopCount.Bit(i) == 1 {
			f = f.Mul(lineFunc(r, q, p))
			r = r.add(q)
		}
	}
	q1 := q.frobenius()
	nq2 := q1.frobenius().neg()
	f = f.Mul(lineFunc(r, q1, p))
	r = r.add(q1)
	f = f.Mul(lineFunc(r, nq2, p))
	return f
}

// finalExponent is (q¹² − 1) / r.
var finalExponent = func() *big.Int {
	q12 := new(big.Int).Exp(Q, big.NewInt(12), nil)
	q12.Sub(q12, big.NewInt(1))
	return q12.Div(q12, R)
}()

// pairReference is the math/big pairing, the differential oracle for Pair.
func pairReference(p G1Point, q G2Point) FQP {
	if p.Inf || q.Inf {
		return Fq12One()
	}
	f := millerLoop(g2RefOf(q).twist(), g1RefOf(p).embed())
	return f.Pow(finalExponent)
}

// pairingCheckReference is the math/big product-of-pairings check, the
// differential oracle for PairingCheck and PairingCheckPrepared.
func pairingCheckReference(ps []G1Point, qs []G2Point) bool {
	if len(ps) != len(qs) {
		return false
	}
	acc := Fq12One()
	for i := range ps {
		if ps[i].Inf || qs[i].Inf {
			continue
		}
		acc = acc.Mul(millerLoop(g2RefOf(qs[i]).twist(), g1RefOf(ps[i]).embed()))
	}
	return acc.Pow(finalExponent).Equal(Fq12One())
}

// Conversions between the limb representation and the oracle's.

func bigToLimbs(x *big.Int) [4]uint64 {
	var l [4]uint64
	for i, w := range x.Bits() {
		l[i] = uint64(w)
	}
	return l
}

// fpFromBig reduces v mod Q and converts to Montgomery form.
func fpFromBig(v *big.Int) fp {
	if v.Sign() < 0 || v.Cmp(Q) >= 0 {
		v = new(big.Int).Mod(v, Q)
	}
	z := fp(bigToLimbs(v))
	montMul(&z, &z, &fpRSquare)
	return z
}

// toBig converts out of Montgomery form into a canonical integer < Q.
func (z *fp) toBig() *big.Int {
	c := z.canonical()
	return new(big.Int).SetBits([]big.Word{big.Word(c[0]), big.Word(c[1]), big.Word(c[2]), big.Word(c[3])})
}

// fp2FromFQP converts a reference Fq² element; toFQP is its inverse.
func fp2FromFQP(x FQP) fp2 {
	if len(x.coeffs) != 2 {
		panic("bn254: fp2FromFQP requires an Fq2 element")
	}
	return fp2{c0: fpFromBig(x.coeffs[0].v), c1: fpFromBig(x.coeffs[1].v)}
}

func (z *fp2) toFQP() FQP {
	return NewFq2(Fq{v: z.c0.toBig()}, Fq{v: z.c1.toBig()})
}

// fp12FromFQP converts from the reference single-shot tower: coefficient
// d_k of w^k maps to component (a, b) with b = d_{e+6}, a = d_e + 9·d_{e+6}
// (from i = w⁶ − 9).
func fp12FromFQP(x FQP) fp12 {
	if len(x.coeffs) != 12 {
		panic("bn254: fp12FromFQP requires an Fq12 element")
	}
	var z fp12
	zc := z.components()
	nine := big.NewInt(9)
	for k := 0; k < 6; k++ {
		e := fp12Exponents[k]
		hi := x.coeffs[e+6].v
		a := new(big.Int).Mul(nine, hi)
		a.Add(a, x.coeffs[e].v)
		zc[k].c0 = fpFromBig(a)
		zc[k].c1 = fpFromBig(hi)
	}
	return z
}

// toFQP converts into the reference representation.
func (z *fp12) toFQP() FQP {
	var d [12]Fq
	for i := range d {
		d[i] = FqZero()
	}
	zc := z.components()
	nine := big.NewInt(9)
	for k := 0; k < 6; k++ {
		e := fp12Exponents[k]
		a, b := zc[k].c0.toBig(), zc[k].c1.toBig()
		lo := new(big.Int).Mul(nine, b)
		lo.Sub(a, lo)
		d[e] = NewFq(lo)
		d[e+6] = Fq{v: b}
	}
	return NewFq12(d)
}

// fqp converts a pairing value into the reference representation.
func (a GT) fqp() FQP { return a.v.toFQP() }

func g1RefOf(p G1Point) g1Ref {
	if p.Inf {
		return g1Ref{Inf: true}
	}
	return g1Ref{X: Fq{v: p.x.toBig()}, Y: Fq{v: p.y.toBig()}}
}

func (p g1Ref) point() G1Point {
	if p.Inf {
		return G1Infinity()
	}
	return G1Point{x: fpFromBig(p.X.v), y: fpFromBig(p.Y.v)}
}

func g2RefOf(p G2Point) g2Ref {
	if p.Inf {
		return g2Ref{Inf: true}
	}
	return g2Ref{X: p.x.toFQP(), Y: p.y.toFQP()}
}

func (p g2Ref) point() G2Point {
	if p.Inf {
		return G2Infinity()
	}
	return G2Point{x: fp2FromFQP(p.X), y: fp2FromFQP(p.Y)}
}
