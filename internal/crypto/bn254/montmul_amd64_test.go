package bn254

import (
	"math/big"
	"slices"
	"testing"
)

// TestWideConstants derives the limbs the lazily reduced assembly reads
// from memory: fpTwoQ = 2Q and fpWideOffset = 80Q.
func TestWideConstants(t *testing.T) {
	limbs := func(v *big.Int, n int) []uint64 {
		out := make([]uint64, n)
		w := new(big.Int).Set(v)
		mask := new(big.Int).SetUint64(^uint64(0))
		for i := range out {
			out[i] = new(big.Int).And(w, mask).Uint64()
			w.Rsh(w, 64)
		}
		return out
	}
	if got, want := fpTwoQ[:], limbs(new(big.Int).Lsh(Q, 1), 4); !slices.Equal(got, want) {
		t.Fatalf("fpTwoQ = %#x, want %#x", got, want)
	}
	if got, want := fpWideOffset[:], limbs(new(big.Int).Mul(Q, big.NewInt(80)), 5); !slices.Equal(got, want) {
		t.Fatalf("fpWideOffset = %#x, want %#x", got, want)
	}
}

// TestPairingCheckGenericPath decides a true and a false two-pair check
// with hasADX cleared, so every assembly kernel runs its generic Go under
// the whole pairing: the path of arm64 and of amd64 CPUs without
// ADX/BMI2, which otherwise only compiles here.
func TestPairingCheckGenericPath(t *testing.T) {
	defer func(saved bool) { hasADX = saved }(hasADX)
	hasADX = false
	g1, g2 := G1Generator(), G2Generator()
	k := big.NewInt(31337)
	p := g1.ScalarMul(k)
	if !PairingCheck([]G1Point{p, g1.Neg()}, []G2Point{g2, g2.ScalarMul(k)}) {
		t.Fatal("generic path rejected a true statement")
	}
	if PairingCheck([]G1Point{p, g1.Neg()}, []G2Point{g2, g2.ScalarMul(big.NewInt(42))}) {
		t.Fatal("generic path accepted a false statement")
	}
}
