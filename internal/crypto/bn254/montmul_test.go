package bn254

import (
	"bytes"
	"math/rand"
	"testing"
)

// The assembly in montmul_amd64.s against the Go it replaces: montMul
// against montMulGeneric on every operand montMul accepts, [0, 2Q), and
// fp2Mul, fp6Mul and the Fq¹² kernels against their generic Go on
// reduced operands, with z fresh and aliased where the signature allows;
// the outputs must be bit-identical. Off amd64, or on a CPU without
// ADX/BMI2, each is its generic function and there is nothing to compare.

const noADX = "no ADX/BMI2 (or not amd64): the kernels are their generic Go here"

// twoQ is 2Q as limbs, the bound on montMul's operands.
var twoQ = func() (z fp) { fpAddNoReduce(&z, &qLimbs, &qLimbs); return z }()

// fold2Q maps any 256-bit limb integer into [0, 2Q): the top bit is
// dropped, and 2²⁵⁵ < 4Q leaves at most one 2Q to subtract.
func fold2Q(x fp) fp {
	x[3] &^= 1 << 63
	if !x.less(&twoQ) {
		x.subNoReduce(&twoQ)
	}
	return x
}

// foldQ maps any 256-bit limb integer into [0, Q).
func foldQ(x fp) fp {
	x = fold2Q(x)
	if !x.less(&qLimbs) {
		x.subNoReduce(&qLimbs)
	}
	return x
}

// montMulAgrees checks montMul against montMulGeneric on (x, y) with z
// fresh, z aliasing x, z aliasing y, and x, y and z all one.
func montMulAgrees(t *testing.T, x, y fp) {
	t.Helper()
	var want, got fp
	montMulGeneric(&want, &x, &y)
	montMul(&got, &x, &y)
	if got != want {
		t.Fatalf("montMul(%x, %x) = %x, montMulGeneric %x", x, y, got, want)
	}
	a, b := x, y
	montMul(&a, &a, &b)
	if a != want {
		t.Fatalf("montMul(%x, %x) = %x with z aliasing x, want %x", x, y, a, want)
	}
	a, b = x, y
	montMul(&b, &a, &b)
	if b != want {
		t.Fatalf("montMul(%x, %x) = %x with z aliasing y, want %x", x, y, b, want)
	}
	montMulGeneric(&want, &x, &x)
	a = x
	montMul(&a, &a, &a)
	if a != want {
		t.Fatalf("montMul(%x, %x) = %x with x, y and z aliased, want %x", x, x, a, want)
	}
}

// fp2MulAgrees is montMulAgrees for fp2Mul.
func fp2MulAgrees(t *testing.T, x, y fp2) {
	t.Helper()
	var want, got fp2
	fp2MulGeneric(&want, &x, &y)
	fp2Mul(&got, &x, &y)
	if got != want {
		t.Fatalf("fp2Mul(%x, %x) = %x, fp2MulGeneric %x", x, y, got, want)
	}
	a, b := x, y
	fp2Mul(&a, &a, &b)
	if a != want {
		t.Fatalf("fp2Mul(%x, %x) = %x with z aliasing x, want %x", x, y, a, want)
	}
	a, b = x, y
	fp2Mul(&b, &a, &b)
	if b != want {
		t.Fatalf("fp2Mul(%x, %x) = %x with z aliasing y, want %x", x, y, b, want)
	}
	fp2MulGeneric(&want, &x, &x)
	a = x
	fp2Mul(&a, &a, &a)
	if a != want {
		t.Fatalf("fp2Mul(%x, %x) = %x with x, y and z aliased, want %x", x, x, a, want)
	}
}

func TestMontMulMatchesGeneric(t *testing.T) {
	if !hasADX {
		t.Skip(noADX)
	}
	qm1, twoQm1 := qLimbs, twoQ
	qm1[0]--
	twoQm1[0]--
	edges := []fp{{}, {1}, qm1, qLimbs, twoQm1, fpMontOne, fpRSquare,
		{^uint64(0), ^uint64(0), ^uint64(0), q3 - 1}}
	for _, x := range edges {
		for _, y := range edges {
			montMulAgrees(t, x, y)
		}
	}
	r := rand.New(rand.NewSource(0x26adc))
	for i := 0; i < 1<<20; i++ {
		x := fold2Q(fp{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()})
		y := fold2Q(fp{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()})
		montMulAgrees(t, x, y)
	}
}

// TestFp2MulMatchesGeneric: every pair of components drawn from 0, 1,
// Q − 1 and Montgomery one, where the lazy c0 = a0b0 − a1b1 goes negative
// or lands on zero, then 2¹⁸ seeded random pairs below Q.
func TestFp2MulMatchesGeneric(t *testing.T) {
	if !hasADX {
		t.Skip(noADX)
	}
	qm1 := qLimbs
	qm1[0]--
	var edges []fp2
	for _, a := range []fp{{}, {1}, qm1, fpMontOne} {
		for _, b := range []fp{{}, {1}, qm1, fpMontOne} {
			edges = append(edges, fp2{a, b})
		}
	}
	for _, x := range edges {
		for _, y := range edges {
			fp2MulAgrees(t, x, y)
		}
	}
	r := rand.New(rand.NewSource(0xf2))
	limbs := func() fp { return foldQ(fp{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}) }
	for i := 0; i < 1<<18; i++ {
		fp2MulAgrees(t, fp2{limbs(), limbs()}, fp2{limbs(), limbs()})
	}
}

// fp6MulAgrees is montMulAgrees for fp6Mul.
func fp6MulAgrees(t *testing.T, x, y fp6) {
	t.Helper()
	var want, got fp6
	fp6MulGeneric(&want, &x, &y)
	fp6Mul(&got, &x, &y)
	if got != want {
		t.Fatalf("fp6Mul(%x, %x) = %x, fp6MulGeneric %x", x, y, got, want)
	}
	a, b := x, y
	fp6Mul(&a, &a, &b)
	if a != want {
		t.Fatalf("fp6Mul(%x, %x) = %x with z aliasing x, want %x", x, y, a, want)
	}
	a, b = x, y
	fp6Mul(&b, &a, &b)
	if b != want {
		t.Fatalf("fp6Mul(%x, %x) = %x with z aliasing y, want %x", x, y, b, want)
	}
	fp6MulGeneric(&want, &x, &x)
	a = x
	fp6Mul(&a, &a, &a)
	if a != want {
		t.Fatalf("fp6Mul(%x, %x) = %x with x, y and z aliased, want %x", x, x, a, want)
	}
}

// cyclotomicSquareAgrees checks fp12CyclotomicSquare against its generic
// Go, with z fresh and aliasing x. Both evaluate the same polynomial, so
// they must agree on any input, in the cyclotomic subgroup or not.
func cyclotomicSquareAgrees(t *testing.T, x fp12) {
	t.Helper()
	var want, got fp12
	fp12CyclotomicSquareGeneric(&want, &x)
	fp12CyclotomicSquare(&got, &x)
	if got != want {
		t.Fatalf("fp12CyclotomicSquare(%x) = %x, generic %x", x, got, want)
	}
	got = x
	fp12CyclotomicSquare(&got, &got)
	if got != want {
		t.Fatalf("fp12CyclotomicSquare(%x) = %x with z aliasing x, want %x", x, got, want)
	}
}

// fp12MulLineAgrees checks fp12MulLine against its generic Go. The
// kernel works in place, so there is no aliasing to vary.
func fp12MulLineAgrees(t *testing.T, f fp12, l normLine, a evalArg) {
	t.Helper()
	want, got := f, f
	fp12MulLineGeneric(&want, &l, &a)
	fp12MulLine(&got, &l, &a)
	if got != want {
		t.Fatalf("fp12MulLine(%x, %x, %x) = %x, generic %x", f, l, a, got, want)
	}
}

// fp12MulAgrees is montMulAgrees for fp12Mul.
func fp12MulAgrees(t *testing.T, x, y fp12) {
	t.Helper()
	var want, got fp12
	fp12MulGeneric(&want, &x, &y)
	fp12Mul(&got, &x, &y)
	if got != want {
		t.Fatalf("fp12Mul(%x, %x) = %x, fp12MulGeneric %x", x, y, got, want)
	}
	a, b := x, y
	fp12Mul(&a, &a, &b)
	if a != want {
		t.Fatalf("fp12Mul(%x, %x) = %x with z aliasing x, want %x", x, y, a, want)
	}
	a, b = x, y
	fp12Mul(&b, &a, &b)
	if b != want {
		t.Fatalf("fp12Mul(%x, %x) = %x with z aliasing y, want %x", x, y, b, want)
	}
}

// fp12SquareAgrees checks fp12Square against its generic Go, with z fresh
// and aliasing x.
func fp12SquareAgrees(t *testing.T, x fp12) {
	t.Helper()
	var want, got fp12
	fp12SquareGeneric(&want, &x)
	fp12Square(&got, &x)
	if got != want {
		t.Fatalf("fp12Square(%x) = %x, generic %x", x, got, want)
	}
	got = x
	fp12Square(&got, &got)
	if got != want {
		t.Fatalf("fp12Square(%x) = %x with z aliasing x, want %x", x, got, want)
	}
}

// fp6FromLimbs and fp12FromLimbs lay six or twelve Fq components out in
// order.
func fp6FromLimbs(c []fp) fp6 {
	return fp6{fp2{c[0], c[1]}, fp2{c[2], c[3]}, fp2{c[4], c[5]}}
}

func fp12FromLimbs(c []fp) fp12 {
	return fp12{fp6FromLimbs(c[:6]), fp6FromLimbs(c[6:12])}
}

// qMinus1 is Q − 1 as limbs, the largest reduced component.
var qMinus1 = fp{q0 - 1, q1, q2, q3}

// cornerLimbs spells pattern's low n bits as components 0 (bit clear) and
// Q − 1 (bit set), the ends of each component's range.
func cornerLimbs(pattern, n int) []fp {
	c := make([]fp, n)
	for i := range c {
		if pattern>>i&1 == 1 {
			c[i] = qMinus1
		}
	}
	return c
}

// edgeLimbs fills c with components drawn from 0, 1, Q − 1 and Montgomery
// one, and randomLimbs with components below Q.
func edgeLimbs(r *rand.Rand, c []fp) {
	edges := []fp{{}, {1}, qMinus1, fpMontOne}
	for i := range c {
		c[i] = edges[r.Intn(len(edges))]
	}
}

func randomLimbs(r *rand.Rand, c []fp) {
	for i := range c {
		c[i] = foldQ(fp{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()})
	}
}

// TestFp6MulMatchesGeneric: every pair of corners {0, Q − 1}⁶ for x's and
// y's components, then components drawn at random from 0, 1, Q − 1 and
// Montgomery one, then 2¹⁴ seeded random pairs below Q.
func TestFp6MulMatchesGeneric(t *testing.T) {
	if !hasADX {
		t.Skip(noADX)
	}
	// The low six bits of p pick x's corner and the high six y's: every
	// pair of corners.
	for p := 0; p < 1<<12; p++ {
		c := cornerLimbs(p, 12)
		fp6MulAgrees(t, fp6FromLimbs(c[:6]), fp6FromLimbs(c[6:]))
	}
	r := rand.New(rand.NewSource(0xf6))
	c := make([]fp, 12)
	for i := 0; i < 1<<12; i++ {
		edgeLimbs(r, c)
		fp6MulAgrees(t, fp6FromLimbs(c[:6]), fp6FromLimbs(c[6:]))
	}
	for i := 0; i < 1<<14; i++ {
		randomLimbs(r, c)
		fp6MulAgrees(t, fp6FromLimbs(c[:6]), fp6FromLimbs(c[6:]))
	}
}

// TestCyclotomicSquareMatchesGeneric: all 2¹² corners {0, Q − 1}¹² of x's
// components, then components drawn at random from 0, 1, Q − 1 and
// Montgomery one, then 2¹⁴ seeded random inputs below Q.
func TestCyclotomicSquareMatchesGeneric(t *testing.T) {
	if !hasADX {
		t.Skip(noADX)
	}
	for p := 0; p < 1<<12; p++ {
		cyclotomicSquareAgrees(t, fp12FromLimbs(cornerLimbs(p, 12)))
	}
	r := rand.New(rand.NewSource(0xc5))
	c := make([]fp, 12)
	for i := 0; i < 1<<12; i++ {
		edgeLimbs(r, c)
		cyclotomicSquareAgrees(t, fp12FromLimbs(c))
	}
	for i := 0; i < 1<<14; i++ {
		randomLimbs(r, c)
		cyclotomicSquareAgrees(t, fp12FromLimbs(c))
	}
}

// TestFp12MulLineMatchesGeneric: every corner {0, Q − 1}¹² of f against
// each corner {0, Q − 1}⁴ of the line, evaluated at (1, 1) so that L is
// that corner and at each corner {0, Q − 1}² of the evaluation pair; then
// components drawn at random from 0, 1, Q − 1 and Montgomery one, then
// 2¹⁴ seeded random inputs below Q.
func TestFp12MulLineMatchesGeneric(t *testing.T) {
	if !hasADX {
		t.Skip(noADX)
	}
	args := []evalArg{{fpMontOne, fpMontOne}}
	for q := 0; q < 1<<2; q++ {
		c := cornerLimbs(q, 2)
		args = append(args, evalArg{c[0], c[1]})
	}
	for p := 0; p < 1<<12; p++ {
		f := fp12FromLimbs(cornerLimbs(p, 12))
		for q := 0; q < 1<<4; q++ {
			c := cornerLimbs(q, 4)
			for _, a := range args {
				fp12MulLineAgrees(t, f, normLine{fp2{c[0], c[1]}, fp2{c[2], c[3]}}, a)
			}
		}
	}
	r := rand.New(rand.NewSource(0x11e))
	c := make([]fp, 18)
	for i := 0; i < 1<<12; i++ {
		edgeLimbs(r, c)
		fp12MulLineAgrees(t, fp12FromLimbs(c), normLine{fp2{c[12], c[13]}, fp2{c[14], c[15]}}, evalArg{c[16], c[17]})
	}
	for i := 0; i < 1<<14; i++ {
		randomLimbs(r, c)
		fp12MulLineAgrees(t, fp12FromLimbs(c), normLine{fp2{c[12], c[13]}, fp2{c[14], c[15]}}, evalArg{c[16], c[17]})
	}
}

// TestFp12SquareMatchesGeneric: all 2¹² corners {0, Q − 1}¹² of x's
// components, then components drawn at random from 0, 1, Q − 1 and
// Montgomery one, then 2¹⁴ seeded random inputs below Q.
func TestFp12SquareMatchesGeneric(t *testing.T) {
	if !hasADX {
		t.Skip(noADX)
	}
	for p := 0; p < 1<<12; p++ {
		fp12SquareAgrees(t, fp12FromLimbs(cornerLimbs(p, 12)))
	}
	r := rand.New(rand.NewSource(0x5a))
	c := make([]fp, 12)
	for i := 0; i < 1<<12; i++ {
		edgeLimbs(r, c)
		fp12SquareAgrees(t, fp12FromLimbs(c))
	}
	for i := 0; i < 1<<14; i++ {
		randomLimbs(r, c)
		fp12SquareAgrees(t, fp12FromLimbs(c))
	}
}

// TestFp12MulMatchesGeneric: every corner {0, Q − 1}¹² of x against y
// equal to it, its complement, all zero, all Q − 1 and eight seeded
// random corners, in both orders (the 2²⁴ pairs of corners would take
// minutes); then components drawn at random from 0, 1, Q − 1 and
// Montgomery one, then 2¹³ seeded random pairs below Q.
func TestFp12MulMatchesGeneric(t *testing.T) {
	if !hasADX {
		t.Skip(noADX)
	}
	r := rand.New(rand.NewSource(0x12))
	for p := 0; p < 1<<12; p++ {
		x := fp12FromLimbs(cornerLimbs(p, 12))
		ys := []int{p, p ^ (1<<12 - 1), 0, 1<<12 - 1}
		for i := 0; i < 8; i++ {
			ys = append(ys, r.Intn(1<<12))
		}
		for _, q := range ys {
			y := fp12FromLimbs(cornerLimbs(q, 12))
			fp12MulAgrees(t, x, y)
			fp12MulAgrees(t, y, x)
		}
	}
	c := make([]fp, 24)
	for i := 0; i < 1<<12; i++ {
		edgeLimbs(r, c)
		fp12MulAgrees(t, fp12FromLimbs(c[:12]), fp12FromLimbs(c[12:]))
	}
	for i := 0; i < 1<<13; i++ {
		randomLimbs(r, c)
		fp12MulAgrees(t, fp12FromLimbs(c[:12]), fp12FromLimbs(c[12:]))
	}
}

// FuzzMontMul: two 32-byte big-endian inputs (shorter ones are
// left-padded) folded into [0, 2Q) for montMul, and into [0, Q) as the
// components of fp2Mul's x = a + b·i and y = b + a·i, and of the Fq⁶ and
// Fq¹² kernels' operands built from a, b and their negations.
func FuzzMontMul(f *testing.F) {
	if !hasADX {
		f.Skip(noADX)
	}
	ff := bytes.Repeat([]byte{0xff}, 32)
	f.Add([]byte{}, []byte{1})
	f.Add(ff, ff)
	f.Add(Q.Bytes(), Q.Bytes())
	f.Add(ff, []byte{2})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		if len(ab) > 32 || len(bb) > 32 {
			return
		}
		var a32, b32 [32]byte
		copy(a32[32-len(ab):], ab)
		copy(b32[32-len(bb):], bb)
		a, b := rawFromBytes(a32[:]), rawFromBytes(b32[:])
		montMulAgrees(t, fold2Q(a), fold2Q(b))
		a, b = foldQ(a), foldQ(b)
		fp2MulAgrees(t, fp2{a, b}, fp2{b, a})
		var na, nb fp
		fpNeg(&na, &a)
		fpNeg(&nb, &b)
		x := fp6FromLimbs([]fp{a, b, na, nb, b, a})
		y := fp6FromLimbs([]fp{nb, a, b, na, a, nb})
		fp6MulAgrees(t, x, y)
		cyclotomicSquareAgrees(t, fp12{x, y})
		fp12MulLineAgrees(t, fp12{x, y}, normLine{fp2{a, nb}, fp2{b, na}}, evalArg{b, na})
		fp12MulLineAgrees(t, fp12{x, y}, normLine{fp2{a, nb}, fp2{b, na}}, evalArg{fpMontOne, fpMontOne})
		fp12MulAgrees(t, fp12{x, y}, fp12{y, x})
		fp12SquareAgrees(t, fp12{x, y})
	})
}
