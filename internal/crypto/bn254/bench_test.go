package bn254

// Microbenchmarks for the crypto hot path, each paired with its retained
// math/big reference so the speedup is measured in one run:
//
//	go test ./internal/crypto/bn254 -bench . -benchtime 10x
import (
	"fmt"
	"math/big"
	"testing"
)

func BenchmarkPair(b *testing.B) {
	g1, g2 := G1Generator(), G2Generator()
	p := g1.ScalarMul(big.NewInt(12345))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pair(p, g2)
	}
}

func BenchmarkPairReference(b *testing.B) {
	g1, g2 := G1Generator(), G2Generator()
	p := g1.ScalarMul(big.NewInt(12345))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairReference(p, g2)
	}
}

func BenchmarkPairingCheck(b *testing.B) {
	g1, g2 := G1Generator(), G2Generator()
	k := big.NewInt(31337)
	p := g1.ScalarMul(k)
	qs := []G2Point{g2, g2.ScalarMul(k)}
	ps := []G1Point{p, g1.Neg()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !PairingCheck(ps, qs) {
			b.Fatal("check failed")
		}
	}
}

// benchScalar is full-width mod R, like a dealt key share (a shorter
// literal under-reports what Sign pays).
var benchScalar, _ = new(big.Int).SetString("19437852069571093468251906437150692837465019283746501928374650192837465019283", 10)

func BenchmarkG1ScalarMul(b *testing.B) {
	g := G1Generator()
	k := benchScalar
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ScalarMul(k)
	}
}

// BenchmarkG1MultiScalarMul: k full-width scalars over k distinct points,
// the shape of a Lagrange combination whose denominators were not cleared.
func BenchmarkG1MultiScalarMul(b *testing.B) {
	for _, k := range []int{3, 7} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			ps := make([]G1Point, k)
			ks := make([]*big.Int, k)
			for i := range ps {
				ps[i] = HashToG1([]byte{byte(i)})
				ks[i] = new(big.Int).Rsh(benchScalar, uint(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				G1MultiScalarMul(ps, ks)
			}
		})
	}
}

func BenchmarkG1ScalarMulReference(b *testing.B) {
	g := G1Generator()
	k := benchScalar
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.scalarMulReference(k)
	}
}

func BenchmarkG2ScalarMul(b *testing.B) {
	g := G2Generator()
	k := benchScalar
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ScalarMul(k)
	}
}

func BenchmarkHashToG1(b *testing.B) {
	msgs := make([][]byte, 64)
	for i := range msgs {
		msgs[i] = []byte{byte(i), byte(i >> 8), 0xab}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HashToG1(msgs[i%len(msgs)])
	}
}

func BenchmarkHashToG1Reference(b *testing.B) {
	msgs := make([][]byte, 64)
	for i := range msgs {
		msgs[i] = []byte{byte(i), byte(i >> 8), 0xab}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashToG1Reference(msgs[i%len(msgs)])
	}
}

func BenchmarkFpMul(b *testing.B) {
	x := fpFromBig(big.NewInt(0).SetBytes([]byte("benchmark fp element a.")))
	y := fpFromBig(big.NewInt(0).SetBytes([]byte("benchmark fp element b.")))
	var z fp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		montMul(&z, &x, &y)
	}
}

// BenchmarkFpMulGeneric is the pure-Go rounds montMul's assembly replaces
// on ADX/BMI2 CPUs; elsewhere the two rows time the same code.
func BenchmarkFpMulGeneric(b *testing.B) {
	x := fpFromBig(big.NewInt(0).SetBytes([]byte("benchmark fp element a.")))
	y := fpFromBig(big.NewInt(0).SetBytes([]byte("benchmark fp element b.")))
	var z fp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		montMulGeneric(&z, &x, &y)
	}
}

func BenchmarkFp2Mul(b *testing.B) {
	r := testRand()
	x, y := fp2FromFQP(randFq2(r)), fp2FromFQP(randFq2(r))
	var z fp2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp2Mul(&z, &x, &y)
	}
}

// BenchmarkFp2MulGeneric is the three-montMul Karatsuba fp2Mul's assembly
// replaces on ADX/BMI2 CPUs.
func BenchmarkFp2MulGeneric(b *testing.B) {
	r := testRand()
	x, y := fp2FromFQP(randFq2(r)), fp2FromFQP(randFq2(r))
	var z fp2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp2MulGeneric(&z, &x, &y)
	}
}

func BenchmarkFp6Mul(b *testing.B) {
	r := testRand()
	x, y := fp12FromFQP(randFq12(r)).c0, fp12FromFQP(randFq12(r)).c1
	var z fp6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp6Mul(&z, &x, &y)
	}
}

// BenchmarkFp6MulGeneric is the six-fp2Mul Karatsuba fp6Mul's lazily
// reduced assembly replaces on ADX/BMI2 CPUs.
func BenchmarkFp6MulGeneric(b *testing.B) {
	r := testRand()
	x, y := fp12FromFQP(randFq12(r)).c0, fp12FromFQP(randFq12(r)).c1
	var z fp6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp6MulGeneric(&z, &x, &y)
	}
}

func BenchmarkCyclotomicSquare(b *testing.B) {
	f := fp12FromFQP(randFq12(testRand()))
	x := easyPart(&f)
	var z fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp12CyclotomicSquare(&z, &x)
	}
}

// BenchmarkCyclotomicSquareGeneric is the nine-fp2Square Granger–Scott
// squaring the assembly replaces on ADX/BMI2 CPUs.
func BenchmarkCyclotomicSquareGeneric(b *testing.B) {
	f := fp12FromFQP(randFq12(testRand()))
	x := easyPart(&f)
	var z fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp12CyclotomicSquareGeneric(&z, &x)
	}
}

func BenchmarkFpSquare(b *testing.B) {
	x := fpFromBig(big.NewInt(0).SetBytes([]byte("benchmark fp element a.")))
	var z fp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpSquare(&z, &x)
	}
}

func BenchmarkFpInv(b *testing.B) {
	x := fpFromBig(big.NewInt(0).SetBytes([]byte("benchmark fp element a.")))
	var z fp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpInv(&z, &x)
	}
}

func BenchmarkFinalExp(b *testing.B) {
	f := fp12FromFQP(randFq12(testRand()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finalExpFast(&f)
	}
}

// BenchmarkMillerLoop is the Miller loop of Verify's check: two prepared
// G2 arguments, evaluated at two G1 points, with no final exponentiation.
func BenchmarkMillerLoop(b *testing.B) {
	g1, g2 := G1Generator(), G2Generator()
	k := big.NewInt(31337)
	q := g2.ScalarMul(k)
	lines := [][]normLine{prepareLines(&g2), prepareLines(&q)}
	ps := []G1Point{g1.ScalarMul(k), g1.Neg()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		millerLoopLines(lines, ps)
	}
}

// BenchmarkPrepareG2 computes one G2 argument's lines, as dealing does for
// each fixed key and BatchVerifyShares does for its combined key.
func BenchmarkPrepareG2(b *testing.B) {
	q := G2Generator().ScalarMul(benchScalar)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PrepareG2(q)
	}
}

func BenchmarkFp12Mul(b *testing.B) {
	r := testRand()
	x := fp12FromFQP(randFq12(r))
	y := fp12FromFQP(randFq12(r))
	var z fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp12Mul(&z, &x, &y)
	}
}

// BenchmarkFp12MulGeneric is the three-fp6Mul Karatsuba fp12Mul's lazily
// reduced assembly replaces on ADX/BMI2 CPUs.
func BenchmarkFp12MulGeneric(b *testing.B) {
	r := testRand()
	x := fp12FromFQP(randFq12(r))
	y := fp12FromFQP(randFq12(r))
	var z fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp12MulGeneric(&z, &x, &y)
	}
}

// BenchmarkFp12Square is the Miller loop's squaring of f.
func BenchmarkFp12Square(b *testing.B) {
	x := fp12FromFQP(randFq12(testRand()))
	var z fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp12Square(&z, &x)
	}
}

// BenchmarkFp12SquareGeneric is the two-fp6Mul squaring the assembly
// replaces on ADX/BMI2 CPUs.
func BenchmarkFp12SquareGeneric(b *testing.B) {
	x := fp12FromFQP(randFq12(testRand()))
	var z fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp12SquareGeneric(&z, &x)
	}
}
