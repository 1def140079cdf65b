package bn254

import (
	"math/big"
	"testing"
)

// TestPairingCheckGenericPath decides a true and a false two-pair check
// with hasADX cleared, so montMul and fp2Mul run their generic Go under
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
