// Package bn254 implements the BN254 (alt_bn128 / BN-P254) pairing-
// friendly elliptic curve from scratch on the standard library: the base
// field Fq, the field extensions Fq² and Fq¹², the groups G1 and G2, and
// the optimal ate pairing. It is the curve the SBFT paper deploys for
// threshold BLS signatures (§III, [21][23]).
//
// The package carries two implementations of the same algebra:
//
//   - The production hot path (fp.go, fp2.go, fp6.go, fp12.go, scalar.go,
//     g1fast.go, g2fast.go, pairing_fast.go): fixed 4×64-bit Montgomery
//     limbs for Fq with no per-operation heap allocation — an unrolled
//     no-carry CIOS multiplication, mask-selected additions, a binary
//     Euclid inversion — under a dedicated 2-3-2 tower
//     (Fq² = Fq[i]/(i²+1), Fq⁶ = Fq²[v]/(v³−(9+i)), Fq¹² = Fq⁶[w]/(w²−v))
//     with Frobenius coefficient tables. G1 has one scalar multiplication,
//     G1MultiScalarMul: GLV half-scalars in width-4 NAF over one shared
//     Jacobian doubling chain (ScalarMul is its one-term case). The
//     pairing is a projective Miller loop over the NAF of 6u+2 with
//     precomputable sparse lines, and a final exponentiation by cyclotomic
//     squarings and the width-4 NAF of u. All public entry points
//     (ScalarMul, G1MultiScalarMul, HashToG1, Pair, PairingCheck) run on
//     this path.
//
//   - The auditable reference (field.go, curve.go, pairing.go): math/big
//     field elements and generic polynomial quotient rings, where the
//     tower behavior (including the Frobenius action) follows from
//     ordinary polynomial arithmetic rather than hand-derived constants.
//     It is retained as the differential-test oracle: fast_test.go
//     cross-checks every limb, tower, group and pairing operation against
//     it on random and boundary inputs, and the fuzz targets on whatever
//     the fuzzer finds. The fast path's Frobenius tables, twist constant
//     and GLV constants are derived from the reference (or from the curve
//     parameter u) at package init; the handful of Montgomery constants
//     the unrolled field code needs at compile time — the modulus limbs,
//     −Q⁻¹ mod 2⁶⁴, 2²⁵⁶ and 2⁵¹² mod Q — are literals that
//     TestFpConstants re-derives from Q. The public point types still
//     carry math/big coordinates, so the reference is not test-only code.
//
// Every structural property — group laws, subgroup orders, non-degeneracy
// and bilinearity of the pairing — is property-tested against both paths.
//
// Side channels: the package is variable-time in its secrets, as the
// math/big construction it grew from was. Signing multiplies a hashed
// point by the secret share: that loop branched on the share's bits when
// it was double-and-add and branches on its NAF digits (and indexes a
// table by them) now; fpInv's Euclid and fpExp take data-dependent paths
// too. The mask-selected field additions are an optimisation, not a
// hardening. This fits the paper's setting — a permissioned deployment
// whose threat model is Byzantine replicas, not an attacker timing a
// co-located signer — and would have to change before the code signed for
// anyone who can measure it.
package bn254

import (
	"fmt"
	"math/big"
)

// Curve constants (decimal, from the BN254 specification).
var (
	// Q is the base field modulus.
	Q, _ = new(big.Int).SetString("21888242871839275222246405745257275088696311157297823662689037894645226208583", 10)
	// R is the order of G1 and G2 (the scalar field modulus).
	R, _ = new(big.Int).SetString("21888242871839275222246405745257275088548364400416034343698204186575808495617", 10)
	// ateLoopCount is 6u+2 for the BN parameter u.
	ateLoopCount, _ = new(big.Int).SetString("29793968203157093288", 10)
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
