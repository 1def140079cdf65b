package bn254

import "math/big"

// Scalar recoding for the group and pairing kernels: width-w non-adjacent
// forms, and the GLV split of a scalar along G1's cheap endomorphism.

// wnaf returns |k| < 2²⁵⁶ in width-w non-adjacent form, least significant
// digit first: every nonzero digit is odd with |d| < 2^(w−1), and of any w
// consecutive digits at most one is nonzero (w = 2 is the plain NAF, one
// nonzero digit in three on average; width w, one in w+1). The top digit
// is nonzero; wnaf(0) is empty.
func wnaf(k *big.Int, w uint) []int8 {
	if k.Sign() == 0 {
		return nil
	}
	var buf [5]uint64
	n := buf[:len(k.Bits())+1] // one spare word: k − d can carry out
	for i, word := range k.Bits() {
		n[i] = uint64(word)
	}
	digits := make([]int8, 0, k.BitLen()+1)
	for left := k.BitLen() + 1; left > 0; left-- {
		var d int64
		if n[0]&1 == 1 {
			d = int64(n[0] & (1<<w - 1))
			if d >= 1<<(w-1) {
				d -= 1 << w
			}
			// n −= d leaves the low w bits clear. Only a negative digit
			// can carry past the first word.
			low := n[0]
			n[0] -= uint64(d)
			if d < 0 && n[0] < low {
				for i := 1; i < len(n); i++ {
					if n[i]++; n[i] != 0 {
						break
					}
				}
			}
		}
		digits = append(digits, int8(d))
		for i := 0; i < len(n)-1; i++ {
			n[i] = n[i]>>1 | n[i+1]<<63
		}
		n[len(n)-1] >>= 1
	}
	for len(digits) > 0 && digits[len(digits)-1] == 0 {
		digits = digits[:len(digits)-1]
	}
	return digits
}

// GLV. E(Fq): y² = x³ + 3 has the endomorphism φ(x, y) = (βx, y) for β a
// primitive cube root of unity in Fq, and on the order-R group φ is
// multiplication by a cube root of unity λ mod R. A scalar k splits as
// k ≡ k1 + k2·λ (mod R) with |k1|, |k2| < 2¹²⁸, so k·P = k1·P + k2·φ(P)
// needs half the doublings. For BN curves everything is a polynomial in the
// curve parameter u (TestGLVConstants checks each against the group law):
//
//	β = 18u³ + 18u² + 9u + 1        λ = 36u³ + 18u² + 6u + 1
//
// and the lattice {(a, b) : a + bλ ≡ 0 mod R} has the short basis
// (2u+1, −(6u²+2u)), (6u²+4u+1, 2u+1), of determinant R.
var (
	glvBeta = func() fp { // β evaluated on the limb field (u < 2⁶³)
		u := fpFromUint64(ateU.Uint64())
		var b fp
		for _, c := range []uint64{18, 18, 9, 1} {
			k := fpFromUint64(c)
			montMul(&b, &b, &u)
			fpAdd(&b, &b, &k)
		}
		return b
	}()
	glvA1, glvB1, glvA2 = uPoly(2, 1), uPoly(6, 2, 0), uPoly(6, 4, 1) // 2u+1, 6u²+2u, 6u²+4u+1
	glvHalfR            = new(big.Int).Rsh(R, 1)
	glvZero             = new(big.Int)
)

// uPoly evaluates a polynomial in the curve parameter u, highest degree
// first.
func uPoly(coeffs ...int64) *big.Int {
	v := new(big.Int)
	for _, c := range coeffs {
		v.Mul(v, ateU).Add(v, big.NewInt(c))
	}
	return v
}

// glvShortBits: a scalar this short, of either sign, is nearer to the
// lattice's origin than to any other lattice point (2¹²⁵ < R/(2·(6u²+2u))),
// so it splits as (k, 0) and the rounding below can be skipped.
const glvShortBits = 125

// glvSplit returns k1, k2 with k ≡ k1 + k2·λ (mod R), for 0 ≤ k < R or a
// short k of either sign: (k, 0) minus the lattice vector nearest to it
// (Babai rounding), which leaves both coordinates within half the basis'
// span — under 2¹²⁸ in magnitude, of either sign.
func glvSplit(k *big.Int) [2]*big.Int {
	if k.BitLen() <= glvShortBits {
		return [2]*big.Int{k, glvZero}
	}
	// (k, 0) = β1·v1 + β2·v2 over the rationals, β1 = k·(2u+1)/R and
	// β2 = k·(6u²+2u)/R; c1, c2 round them.
	c1 := new(big.Int).Mul(k, glvA1)
	c1.Add(c1, glvHalfR).Div(c1, R)
	c2 := new(big.Int).Mul(k, glvB1)
	c2.Add(c2, glvHalfR).Div(c2, R)
	var t big.Int
	k1 := new(big.Int).Sub(k, t.Mul(c1, glvA1))
	k1.Sub(k1, t.Mul(c2, glvA2))
	k2 := new(big.Int).Mul(c1, glvB1)
	k2.Sub(k2, t.Mul(c2, glvA1))
	return [2]*big.Int{k1, k2}
}
