package bn254

import "math/big"

// Scalar recoding for the group and pairing kernels: width-w non-adjacent
// forms, and the GLV split of a scalar along G1's cheap endomorphism.

// wnaf returns k ≥ 0 in width-w non-adjacent form, least significant digit
// first: every nonzero digit is odd with |d| < 2^(w−1), and of any w
// consecutive digits at most one is nonzero (w = 2 is the plain NAF, one
// nonzero digit in three on average; width w, one in w+1). The top digit
// is nonzero; wnaf(0) is empty.
func wnaf(k *big.Int, w uint) []int8 {
	n := make([]uint64, len(k.Bits())+1) // one spare word: k − d can carry out
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
