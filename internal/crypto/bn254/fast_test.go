package bn254

// Differential tests: every fixed-limb operation is cross-checked against
// the retained math/big reference implementation on random inputs. The
// reference is slow (a full pairing costs hundreds of milliseconds), so
// the tests that invoke it directly are capped at a few samples and
// skipped under -short, like the original pairing tests.

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

// testRand returns a deterministic source so failures are reproducible.
func testRand() *rand.Rand { return rand.New(rand.NewSource(0x5bf7)) }

func randBig(r *rand.Rand) *big.Int {
	b := make([]byte, 40) // > 32 bytes: exercises reduction mod Q
	r.Read(b)
	return new(big.Int).SetBytes(b)
}

func randFq(r *rand.Rand) Fq { return NewFq(randBig(r)) }

func randFq2(r *rand.Rand) FQP { return NewFq2(randFq(r), randFq(r)) }

func randFq12(r *rand.Rand) FQP {
	var c [12]Fq
	for i := range c {
		c[i] = randFq(r)
	}
	return NewFq12(c)
}

func TestFpDifferential(t *testing.T) {
	r := testRand()
	for i := 0; i < 200; i++ {
		a, b := randBig(r), randBig(r)
		fa, fb := fpFromBig(a), fpFromBig(b)
		ra, rb := NewFq(a), NewFq(b)

		var z fp
		fpAdd(&z, &fa, &fb)
		if z.toBig().Cmp(ra.Add(rb).Big()) != 0 {
			t.Fatalf("add mismatch: %v + %v", a, b)
		}
		fpSub(&z, &fa, &fb)
		if z.toBig().Cmp(ra.Sub(rb).Big()) != 0 {
			t.Fatalf("sub mismatch: %v - %v", a, b)
		}
		montMul(&z, &fa, &fb)
		if z.toBig().Cmp(ra.Mul(rb).Big()) != 0 {
			t.Fatalf("mul mismatch: %v * %v", a, b)
		}
		fpNeg(&z, &fa)
		if z.toBig().Cmp(ra.Neg().Big()) != 0 {
			t.Fatalf("neg mismatch: %v", a)
		}
		fpHalve(&z, &fa)
		var z2 fp
		fpDouble(&z2, &z)
		if !z2.equal(&fa) {
			t.Fatalf("halve/double mismatch: %v", a)
		}
		if !ra.IsZero() {
			fpInv(&z, &fa)
			if z.toBig().Cmp(ra.Inv().Big()) != 0 {
				t.Fatalf("inv mismatch: %v", a)
			}
		}
		// Sqrt agrees with big.Int ModSqrt on existence, and the root
		// squares back.
		var s fp
		ok := fpSqrt(&s, &fa)
		refRoot := new(big.Int).ModSqrt(ra.Big(), Q)
		if ok != (refRoot != nil) {
			t.Fatalf("sqrt existence mismatch for %v", a)
		}
		if ok {
			fpSquare(&z, &s)
			if !z.equal(&fa) {
				t.Fatalf("sqrt does not square back: %v", a)
			}
		}
	}
	// Round-trip at the field boundary.
	for _, v := range []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(Q, big.NewInt(1))} {
		f := fpFromBig(v)
		if f.toBig().Cmp(v) != 0 {
			t.Fatalf("round trip mismatch for %v", v)
		}
	}
	// The 64-byte reduction behind HashToG1, at its boundaries and at random.
	q32 := Q.FillBytes(make([]byte, 32))
	wides := [][]byte{make([]byte, 64), bytes.Repeat([]byte{0xff}, 64), append(bytes.Clone(q32), q32...)}
	for i := 0; i < 20; i++ {
		w := make([]byte, 64)
		r.Read(w)
		wides = append(wides, w)
	}
	for _, w := range wides {
		want := new(big.Int).SetBytes(w)
		if z := fpFromWide(w); z.toBig().Cmp(want.Mod(want, Q)) != 0 {
			t.Fatalf("fpFromWide(%x) = %v, want %v", w, z.toBig(), want)
		}
	}
}

// TestFpConstants derives every constant fp.go writes out as a literal —
// the modulus limbs, the Montgomery factor and the powers of 2²⁵⁶ — from Q.
func TestFpConstants(t *testing.T) {
	if got := (fp{q0, q1, q2, q3}); got != fp(bigToLimbs(Q)) {
		t.Fatalf("modulus limbs %x do not spell Q", got)
	}
	word := new(big.Int).Lsh(big.NewInt(1), 64)
	inv := new(big.Int).ModInverse(Q, word)
	inv.Neg(inv).Mod(inv, word)
	if inv.Uint64() != qInvNeg {
		t.Fatalf("qInvNeg = %#x, want %#x", qInvNeg, inv.Uint64())
	}
	for _, c := range []struct {
		name  string
		got   fp
		shift uint
	}{{"fpMontOne", fpMontOne, 256}, {"fpRSquare", fpRSquare, 512}} {
		want := new(big.Int).Lsh(big.NewInt(1), c.shift)
		if c.got != fp(bigToLimbs(want.Mod(want, Q))) {
			t.Fatalf("%s is not 2^%d mod Q", c.name, c.shift)
		}
	}
}

// TestFpBoundary runs every fp operation over the operands where a carry,
// a borrow or the final subtraction can go wrong, each against math/big,
// with the destination fresh, aliasing x, aliasing y and aliasing both.
func TestFpBoundary(t *testing.T) {
	ones := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	// raw is the integer whose Montgomery representative has the limbs l.
	raw := func(l fp) *big.Int { return l.toBig() }
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(Q, big.NewInt(1)), new(big.Int).Sub(Q, big.NewInt(2)),
		new(big.Int).Rsh(Q, 1), new(big.Int).Add(new(big.Int).Rsh(Q, 1), big.NewInt(1)),
		ones, // 2²⁵⁶−1, reduced by fpFromBig
		new(big.Int).Lsh(big.NewInt(1), 64), new(big.Int).Lsh(big.NewInt(1), 192),
		new(big.Int).SetUint64(^uint64(0)),
		// Montgomery representatives with extreme limbs: the value whose
		// limbs are Q−1, and the one whose low three limbs are all ones.
		raw(fp{q0 - 1, q1, q2, q3}), raw(fp{^uint64(0), ^uint64(0), ^uint64(0), q3 - 1}),
	}
	type binop struct {
		name string
		fast func(z, x, y *fp)
		ref  func(x, y Fq) Fq
	}
	ops := []binop{
		{"add", fpAdd, Fq.Add},
		{"sub", fpSub, Fq.Sub},
		{"mul", montMul, Fq.Mul},
	}
	for _, a := range vals {
		for _, b := range vals {
			fa, fb := fpFromBig(a), fpFromBig(b)
			ra, rb := NewFq(a), NewFq(b)
			for _, op := range ops {
				want := op.ref(ra, rb).Big()
				var z fp
				op.fast(&z, &fa, &fb)
				if z.toBig().Cmp(want) != 0 {
					t.Fatalf("%s(%v, %v) = %v, want %v", op.name, a, b, z.toBig(), want)
				}
				x, y := fa, fb
				op.fast(&x, &x, &y) // z aliases x
				if x != z {
					t.Fatalf("%s(%v, %v) differs when z aliases x", op.name, a, b)
				}
				x, y = fa, fb
				op.fast(&y, &x, &y) // z aliases y
				if y != z {
					t.Fatalf("%s(%v, %v) differs when z aliases y", op.name, a, b)
				}
			}
		}
		fa, ra := fpFromBig(a), NewFq(a)
		var z fp
		fpSquare(&z, &fa)
		if z.toBig().Cmp(ra.Mul(ra).Big()) != 0 {
			t.Fatalf("square(%v)", a)
		}
		x := fa
		montMul(&x, &x, &x) // all three alias
		if x != z {
			t.Fatalf("mul(%v) differs when z, x and y alias", a)
		}
		fpDouble(&z, &fa)
		if z.toBig().Cmp(ra.Add(ra).Big()) != 0 {
			t.Fatalf("double(%v)", a)
		}
		fpNeg(&z, &fa)
		if z.toBig().Cmp(ra.Neg().Big()) != 0 {
			t.Fatalf("neg(%v)", a)
		}
		fpHalve(&z, &fa)
		fpDouble(&z, &z)
		if z != fa {
			t.Fatalf("halve(%v) does not double back", a)
		}
		if !ra.IsZero() {
			fpInv(&z, &fa)
			if z.toBig().Cmp(ra.Inv().Big()) != 0 {
				t.Fatalf("inv(%v) = %v, want %v", a, z.toBig(), ra.Inv().Big())
			}
			x = fa
			fpInv(&x, &x)
			if x != z {
				t.Fatalf("inv(%v) differs in place", a)
			}
		}
	}
}

// TestFpLazyOperands checks the two places a value above Q is let through:
// montMul on unreduced sums (fp2Mul's Karatsuba cross term), up to both
// operands at 2Q − 2, and fpNineXPlus with its quotient estimate.
func TestFpLazyOperands(t *testing.T) {
	r := testRand()
	qm1 := new(big.Int).Sub(Q, big.NewInt(1))
	vals := []*big.Int{big.NewInt(0), big.NewInt(1), qm1, new(big.Int).Rsh(Q, 1)}
	for i := 0; i < 50; i++ {
		vals = append(vals, randBig(r))
	}
	// Sums of Montgomery representatives near Q: (Q−1) + (Q−1) as limbs.
	top := fp{q0 - 1, q1, q2, q3}
	vals = append(vals, top.toBig())
	for _, a := range vals {
		for _, b := range vals {
			fa, fb := fpFromBig(a), fpFromBig(b)
			ra, rb := NewFq(a), NewFq(b)
			var s, z fp
			fpAddNoReduce(&s, &fa, &fb)
			montMul(&z, &s, &s)
			sum := ra.Add(rb)
			if z.toBig().Cmp(sum.Mul(sum).Big()) != 0 {
				t.Fatalf("montMul on the unreduced sum %v + %v", a, b)
			}
			montMul(&z, &s, &fa)
			if z.toBig().Cmp(sum.Mul(ra).Big()) != 0 {
				t.Fatalf("montMul with one unreduced operand, %v + %v", a, b)
			}
			nine := FqFromInt64(9)
			fpNineXPlus(&z, &fa, &fb)
			if z.toBig().Cmp(nine.Mul(ra).Add(rb).Big()) != 0 {
				t.Fatalf("9·%v + %v", a, b)
			}
			x := fa
			fpNineXPlus(&x, &x, &fb)
			if x != z {
				t.Fatalf("9·%v + %v differs in place", a, b)
			}
		}
		// w = Q itself (fp2MulByNonresidue passes Q − 0).
		fa := fpFromBig(a)
		var z fp
		fpNineXPlus(&z, &fa, &fp{q0, q1, q2, q3})
		if z.toBig().Cmp(FqFromInt64(9).Mul(NewFq(a)).Big()) != 0 {
			t.Fatalf("9·%v + Q", a)
		}
	}
	// The quotient estimate, for every h = ⌊t/2²⁵⁰⌋ a t < 10Q can have:
	// k·Q ≤ h·2²⁵⁰ (never overshoots) and (h+1)·2²⁵⁰ − k·Q ≤ 2Q.
	tenQ := new(big.Int).Mul(Q, big.NewInt(10))
	for h := uint64(0); ; h++ {
		lo := new(big.Int).Lsh(new(big.Int).SetUint64(h), 250)
		if lo.Cmp(tenQ) >= 0 {
			break
		}
		kQ := new(big.Int).Mul(new(big.Int).SetUint64(nineXQuotient(h)), Q)
		hi := new(big.Int).Lsh(new(big.Int).SetUint64(h+1), 250)
		if kQ.Cmp(lo) > 0 || hi.Sub(hi, kQ).Cmp(new(big.Int).Lsh(Q, 1)) > 0 {
			t.Fatalf("quotient estimate off at h=%d", h)
		}
	}
}

// TestG1EqualMarshalLazy: G1Point.Equal compares limbs, which is sound only
// because every stored coordinate is fully reduced. A coordinate reached
// through the lazily reduced paths — montMul of an unreduced sum,
// fpNineXPlus with its quotient estimate — must equal, limb for limb, the
// same residue reached by reduced arithmetic, and both must marshal to the
// oracle's canonical bytes.
func TestG1EqualMarshalLazy(t *testing.T) {
	r := testRand()
	qm1 := new(big.Int).Sub(Q, big.NewInt(1))
	vals := []*big.Int{big.NewInt(0), big.NewInt(1), qm1, new(big.Int).Rsh(Q, 1)}
	for i := 0; i < 20; i++ {
		vals = append(vals, randBig(r))
	}
	top := fp{q0 - 1, q1, q2, q3}
	vals = append(vals, top.toBig())
	nine := fpFromUint64(9)
	for _, a := range vals {
		for _, b := range vals {
			fa, fb := fpFromBig(a), fpFromBig(b)
			ra, rb := NewFq(a), NewFq(b)
			// x = a + b: montMul by 1 of the unreduced sum, and fpAdd.
			var lazy, reduced G1Point
			fpAddNoReduce(&lazy.x, &fa, &fb)
			montMul(&lazy.x, &lazy.x, &fpMontOne)
			fpAdd(&reduced.x, &fa, &fb)
			// y = 9a + b: fpNineXPlus, and a multiplication and an addition.
			fpNineXPlus(&lazy.y, &fa, &fb)
			montMul(&reduced.y, &nine, &fa)
			fpAdd(&reduced.y, &reduced.y, &fb)
			ref := g1Ref{X: ra.Add(rb), Y: FqFromInt64(9).Mul(ra).Add(rb)}
			if !lazy.Equal(reduced) || !reduced.Equal(lazy) {
				t.Fatalf("a=%v b=%v: lazily reduced point %x ≠ reduced %x", a, b, lazy.Marshal(), reduced.Marshal())
			}
			for _, p := range []G1Point{lazy, reduced} {
				if got, want := p.Marshal(), ref.Marshal(); !bytes.Equal(got, want) {
					t.Fatalf("a=%v b=%v: Marshal = %x, oracle %x", a, b, got, want)
				}
			}
			// Equal also agrees with the oracle where the points may differ.
			other := G1Point{x: lazy.x, y: fa}
			if lazy.Equal(other) != ref.Equal(g1Ref{X: ref.X, Y: ra}) {
				t.Fatalf("a=%v b=%v: Equal disagrees with the oracle", a, b)
			}
		}
	}
}

func TestFp2Differential(t *testing.T) {
	r := testRand()
	xi := NewFq2(FqFromInt64(9), FqFromInt64(1))
	for i := 0; i < 100; i++ {
		a, b := randFq2(r), randFq2(r)
		fa, fb := fp2FromFQP(a), fp2FromFQP(b)

		var z fp2
		fp2Mul(&z, &fa, &fb)
		if !z.toFQP().Equal(a.Mul(b)) {
			t.Fatal("fp2 mul mismatch")
		}
		fp2Square(&z, &fa)
		if !z.toFQP().Equal(a.Mul(a)) {
			t.Fatal("fp2 square mismatch")
		}
		fp2Add(&z, &fa, &fb)
		if !z.toFQP().Equal(a.Add(b)) {
			t.Fatal("fp2 add mismatch")
		}
		fp2MulByNonresidue(&z, &fa)
		if !z.toFQP().Equal(a.Mul(xi)) {
			t.Fatal("fp2 mul-by-ξ mismatch")
		}
		if !a.IsZero() {
			fp2Inv(&z, &fa)
			if !z.toFQP().Equal(a.Inv()) {
				t.Fatal("fp2 inv mismatch")
			}
		}
		// Aliased nonresidue multiplication.
		z = fa
		fp2MulByNonresidue(&z, &z)
		if !z.toFQP().Equal(a.Mul(xi)) {
			t.Fatal("aliased fp2 mul-by-ξ mismatch")
		}
	}
}

func TestFp12Differential(t *testing.T) {
	r := testRand()
	for i := 0; i < 25; i++ {
		a, b := randFq12(r), randFq12(r)
		fa, fb := fp12FromFQP(a), fp12FromFQP(b)

		if !fa.toFQP().Equal(a) {
			t.Fatal("fp12 conversion round trip mismatch")
		}
		var z fp12
		fp12Mul(&z, &fa, &fb)
		if !z.toFQP().Equal(a.Mul(b)) {
			t.Fatal("fp12 mul mismatch")
		}
		fp12Square(&z, &fa)
		if !z.toFQP().Equal(a.Mul(a)) {
			t.Fatal("fp12 square mismatch")
		}
		if !a.IsZero() {
			fp12Inv(&z, &fa)
			if !z.toFQP().Equal(a.Inv()) {
				t.Fatal("fp12 inv mismatch")
			}
		}
	}
}

func TestFp12FrobeniusDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("reference Frobenius exponentiation is expensive")
	}
	r := testRand()
	a := randFq12(r)
	fa := fp12FromFQP(a)
	q2 := new(big.Int).Mul(Q, Q)
	q3 := new(big.Int).Mul(q2, Q)
	var z fp12
	fp12Frobenius(&z, &fa)
	if !z.toFQP().Equal(a.Pow(Q)) {
		t.Fatal("Frobenius mismatch vs Pow(q)")
	}
	fp12FrobeniusSquare(&z, &fa)
	if !z.toFQP().Equal(a.Pow(q2)) {
		t.Fatal("Frobenius² mismatch vs Pow(q²)")
	}
	fp12FrobeniusCube(&z, &fa)
	if !z.toFQP().Equal(a.Pow(q3)) {
		t.Fatal("Frobenius³ mismatch vs Pow(q³)")
	}
}

// easyPart maps an arbitrary nonzero element into the cyclotomic subgroup.
func easyPart(f *fp12) fp12 {
	var t, inv, t2 fp12
	fp12Conjugate(&t, f)
	fp12Inv(&inv, f)
	fp12Mul(&t, &t, &inv)
	fp12FrobeniusSquare(&t2, &t)
	fp12Mul(&t, &t2, &t)
	return t
}

func TestCyclotomicSquareAgrees(t *testing.T) {
	r := testRand()
	for i := 0; i < 10; i++ {
		a := fp12FromFQP(randFq12(r))
		g := easyPart(&a)
		var cs, sq fp12
		fp12CyclotomicSquare(&cs, &g)
		fp12Square(&sq, &g)
		if !cs.equal(&sq) {
			t.Fatal("cyclotomic square disagrees with full square in the cyclotomic subgroup")
		}
	}
}

// fp12Exp sets z = x^e by plain square-and-multiply (variable time).
func fp12Exp(z, x *fp12, e *big.Int) {
	var r fp12
	r.setOne()
	b := *x
	for i := e.BitLen() - 1; i >= 0; i-- {
		fp12Square(&r, &r)
		if e.Bit(i) == 1 {
			fp12Mul(&r, &r, &b)
		}
	}
	*z = r
}

func TestExpByUAgrees(t *testing.T) {
	r := testRand()
	a := fp12FromFQP(randFq12(r))
	g := easyPart(&a)
	var fast, slow fp12
	expByU(&fast, &g)
	fp12Exp(&slow, &g, ateU)
	if !fast.equal(&slow) {
		t.Fatal("expByU disagrees with generic exponentiation")
	}
}

func TestFinalExpMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reference final exponentiation is expensive")
	}
	g1, g2 := G1Generator(), G2Generator()
	p := g1.ScalarMul(big.NewInt(5))
	lines := prepareLines(&g2)
	if lines == nil {
		t.Fatal("miller loop hit degenerate line")
	}
	f := millerLoopLines([][]lineCoeff{lines}, []G1Point{p})
	fast := finalExpFast(&f)
	ref := f.toFQP().Pow(finalExponent)
	if !fast.toFQP().Equal(ref) {
		t.Fatal("fast final exponentiation disagrees with f^((q¹²−1)/r)")
	}
}

func TestScalarMulFastMatchesReference(t *testing.T) {
	r := testRand()
	g1, g2 := G1Generator(), G2Generator()
	scalars := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(R, big.NewInt(1)), new(big.Int).Set(R),
	}
	for i := 0; i < 5; i++ {
		scalars = append(scalars, randBig(r))
	}
	for _, k := range scalars {
		if !g1.ScalarMul(k).Equal(g1.scalarMulReference(k)) {
			t.Fatalf("G1 scalar mul mismatch for k=%v", k)
		}
		if !g2.ScalarMul(k).Equal(g2.scalarMulReference(k)) {
			t.Fatalf("G2 scalar mul mismatch for k=%v", k)
		}
	}
	// Non-generator base points.
	p := g1.ScalarMul(big.NewInt(7))
	q := g2.ScalarMul(big.NewInt(11))
	k := randBig(r)
	if !p.ScalarMul(k).Equal(p.scalarMulReference(k)) {
		t.Fatal("G1 scalar mul mismatch on derived base")
	}
	if !q.ScalarMul(k).Equal(q.scalarMulReference(k)) {
		t.Fatal("G2 scalar mul mismatch on derived base")
	}
	if !G1Infinity().ScalarMul(k).Inf || !G2Infinity().ScalarMul(k).Inf {
		t.Fatal("scalar mul of infinity is not infinity")
	}
}

// glvLambda is the eigenvalue of φ(x, y) = (βx, y) on G1.
var glvLambda = uPoly(36, 18, 6, 1)

// TestGLVConstants checks β, λ and the lattice basis against the algebra
// they are supposed to satisfy, the last against the reference group law.
func TestGLVConstants(t *testing.T) {
	var b2, b3 fp
	fpSquare(&b2, &glvBeta)
	montMul(&b3, &b2, &glvBeta)
	if glvBeta == fpMontOne || b3 != fpMontOne {
		t.Fatal("β is not a primitive cube root of unity mod Q")
	}
	l := new(big.Int).Mul(glvLambda, glvLambda)
	if l.Add(l, glvLambda).Add(l, big.NewInt(1)).Mod(l, R).Sign() != 0 {
		t.Fatal("λ² + λ + 1 ≠ 0 mod R")
	}
	// φ(P) = λ·P, by the math/big double-and-add.
	p := G1Generator().scalarMulReference(big.NewInt(5))
	phi := p
	montMul(&phi.x, &phi.x, &glvBeta)
	if !phi.Equal(p.scalarMulReference(glvLambda)) {
		t.Fatal("φ(P) ≠ λ·P: β and λ are not a matching pair")
	}
	// Both basis vectors (a, b) satisfy a + bλ ≡ 0, and span determinant R.
	negB1 := new(big.Int).Neg(glvB1)
	for _, v := range [][2]*big.Int{{glvA1, negB1}, {glvA2, glvA1}} {
		if s := new(big.Int).Mul(v[1], glvLambda); s.Add(s, v[0]).Mod(s, R).Sign() != 0 {
			t.Fatalf("(%v, %v) is not in the lattice", v[0], v[1])
		}
	}
	det := new(big.Int).Mul(glvA1, glvA1)
	if det.Add(det, new(big.Int).Mul(glvA2, glvB1)).Cmp(R) != 0 {
		t.Fatal("basis determinant is not R")
	}
}

// edgeScalars are the multipliers where the recoding can go wrong: the
// ends of the range, both sides of the short-scalar cut, a half-scalar
// carrying into bit 128, and the corners of the lattice's fundamental cell,
// where the GLV half-scalars are as large as they get.
func edgeScalars() []*big.Int {
	pow := func(n uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), n) }
	ks := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3), big.NewInt(7), big.NewInt(8), big.NewInt(-1), big.NewInt(-8),
		new(big.Int).Sub(R, big.NewInt(1)), new(big.Int).Set(R), new(big.Int).Add(R, big.NewInt(1)),
		new(big.Int).Lsh(R, 3), new(big.Int).Neg(pow(200)),
		glvLambda, new(big.Int).Sub(R, glvLambda), new(big.Int).Mul(glvLambda, glvLambda),
	}
	for _, n := range []uint{glvShortBits - 1, glvShortBits, glvShortBits + 1, 127, 128, 253} {
		ks = append(ks, new(big.Int).Sub(pow(n), big.NewInt(1)), pow(n), new(big.Int).Add(pow(n), big.NewInt(1)))
	}
	// Corners ±(v1 ± v2)/2 of the cell, as scalars a + bλ, and their
	// neighbours.
	for _, s1 := range []int64{1, -1} {
		for _, s2 := range []int64{1, -1} {
			a := new(big.Int).Mul(glvA1, big.NewInt(s1))
			a.Add(a, new(big.Int).Mul(glvA2, big.NewInt(s2))).Rsh(a, 1)
			b := new(big.Int).Mul(glvB1, big.NewInt(-s1))
			b.Add(b, new(big.Int).Mul(glvA1, big.NewInt(s2))).Rsh(b, 1)
			k := b.Mul(b, glvLambda).Add(b, a).Mod(b, R)
			ks = append(ks, k, new(big.Int).Add(k, big.NewInt(1)), new(big.Int).Sub(k, big.NewInt(1)))
		}
	}
	return ks
}

func TestGLVSplit(t *testing.T) {
	r := testRand()
	ks := edgeScalars()
	for i := 0; i < 200; i++ {
		ks = append(ks, randBig(r))
	}
	longest := 0
	for _, k := range ks {
		if k.BitLen() > glvShortBits {
			k = new(big.Int).Mod(k, R) // what G1MultiScalarMul hands over
		}
		h := glvSplit(k)
		sum := new(big.Int).Mul(h[1], glvLambda)
		if sum.Add(sum, h[0]).Sub(sum, k).Mod(sum, R).Sign() != 0 {
			t.Fatalf("k=%v: %v + %v·λ is a different scalar", k, h[0], h[1])
		}
		longest = max(longest, h[0].BitLen(), h[1].BitLen())
		// The short-cut and the rounding agree where both apply.
		if k.BitLen() <= glvShortBits && k.Sign() >= 0 {
			wide := new(big.Int).Add(k, R) // same scalar, too long for the short-cut
			if full := glvSplit(wide.Mod(wide, R)); full[0].Cmp(h[0]) != 0 || full[1].Sign() != 0 {
				t.Fatalf("k=%v: short-cut (k, 0) but rounding gives (%v, %v)", k, full[0], full[1])
			}
		}
	}
	if longest > 128 {
		t.Fatalf("a half-scalar of %d bits", longest)
	}
}

func TestWnaf(t *testing.T) {
	r := testRand()
	ks := edgeScalars()
	for i := 0; i < 50; i++ {
		ks = append(ks, randBig(r).Rsh(randBig(r), uint(64+i)))
	}
	for _, k := range ks {
		if k.BitLen() > 256 {
			continue
		}
		for _, w := range []uint{2, 3, 4, 5} {
			digits := wnaf(k, w)
			sum := new(big.Int)
			last := -int(w)
			for i := len(digits) - 1; i >= 0; i-- {
				sum.Lsh(sum, 1).Add(sum, big.NewInt(int64(digits[i])))
			}
			for i, d := range digits {
				if d == 0 {
					continue
				}
				if d%2 == 0 || int(d) >= 1<<(w-1) || int(d) <= -(1<<(w-1)) || i-last < int(w) {
					t.Fatalf("wnaf(%v, %d): digit %d at %d breaks the form", k, w, d, i)
				}
				last = i
			}
			if sum.CmpAbs(k) != 0 {
				t.Fatalf("wnaf(%v, %d) spells %v", k, w, sum)
			}
			if n := len(digits); n > 0 && digits[n-1] == 0 {
				t.Fatalf("wnaf(%v, %d) has a leading zero", k, w)
			}
		}
	}
}

// TestG1ScalarMulEdges runs the edge multipliers over the generator, its
// negation and a derived point, each against the math/big double-and-add.
func TestG1ScalarMulEdges(t *testing.T) {
	g := G1Generator()
	for _, p := range []G1Point{g, g.Neg(), HashToG1([]byte("edge"))} {
		for _, k := range edgeScalars() {
			if got, want := p.ScalarMul(k), p.scalarMulReference(k); !got.Equal(want) {
				t.Fatalf("%v·%x: got %x, want %x", k, p.Marshal(), got.Marshal(), want.Marshal())
			}
		}
	}
}

// TestG1MultiScalarMul checks the interleaved pass against the sum of
// reference multiplications, on the inputs that drive the accumulator
// through addAffine's special cases: a repeated point (P + P doubles), a
// point and its negation (P + (−P) returns to infinity mid-loop), terms
// that cancel outright, infinity and zero terms.
func TestG1MultiScalarMul(t *testing.T) {
	r := testRand()
	g := G1Generator()
	p, q := HashToG1([]byte("p")), HashToG1([]byte("q"))
	k1, k2 := randBig(r), randBig(r)
	one, three := big.NewInt(1), big.NewInt(3)
	cases := []struct {
		name string
		ps   []G1Point
		ks   []*big.Int
	}{
		{"empty", nil, nil},
		{"random", []G1Point{g, p, q}, []*big.Int{k1, k2, randBig(r)}},
		{"repeated point, equal scalars", []G1Point{p, p}, []*big.Int{k1, k1}},
		{"repeated point, small scalars", []G1Point{p, p, p}, []*big.Int{one, one, three}},
		{"opposite points, equal scalars", []G1Point{p, p.Neg()}, []*big.Int{k1, k1}},
		{"opposite points, small scalars", []G1Point{p, p.Neg(), q}, []*big.Int{three, one, one}},
		{"cancelling scalars", []G1Point{p, p, q}, []*big.Int{k1, new(big.Int).Neg(k1), k2}},
		{"p and 3p", []G1Point{p, p.scalarMulReference(three)}, []*big.Int{three, big.NewInt(-1)}},
		{"infinity and zero terms", []G1Point{G1Infinity(), p, q}, []*big.Int{k1, new(big.Int), k2}},
		{"seven full-width terms", []G1Point{g, p, q, g.Neg(), p.Neg(), q, g}, []*big.Int{k1, k2, randBig(r), randBig(r), randBig(r), randBig(r), randBig(r)}},
	}
	for _, c := range cases {
		want := G1Infinity()
		for i := range c.ps {
			want = want.Add(c.ps[i].scalarMulReference(c.ks[i]))
		}
		if got := G1MultiScalarMul(c.ps, c.ks); !got.Equal(want) {
			t.Fatalf("%s: got %v, want %v", c.name, got, want)
		}
	}
}

func TestHashToG1MatchesReference(t *testing.T) {
	for _, msg := range []string{"", "a", "sbft digest", "try-and-increment exercises retries"} {
		fast := HashToG1([]byte(msg))
		ref := hashToG1Reference([]byte(msg))
		if !fast.Equal(ref) {
			t.Fatalf("HashToG1 mismatch for %q", msg)
		}
		if !fast.IsOnCurve() {
			t.Fatalf("hashed point off curve for %q", msg)
		}
	}
}

func TestPairFastMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reference pairing is expensive")
	}
	g1, g2 := G1Generator(), G2Generator()
	cases := []struct {
		p G1Point
		q G2Point
	}{
		{g1, g2},
		{g1.ScalarMul(big.NewInt(17)), g2.ScalarMul(big.NewInt(29))},
		{G1Infinity(), g2},
		{g1, G2Infinity()},
	}
	for i, c := range cases {
		if !Pair(c.p, c.q).fqp().Equal(pairReference(c.p, c.q)) {
			t.Fatalf("case %d: fast pairing disagrees with reference", i)
		}
	}
}

func TestPairFastBilinearity(t *testing.T) {
	g1, g2 := G1Generator(), G2Generator()
	e := Pair(g1, g2).fqp()
	if e.Equal(Fq12One()) {
		t.Fatal("fast pairing degenerate")
	}
	a, b := big.NewInt(131), big.NewInt(467)
	lhs := Pair(g1.ScalarMul(a), g2.ScalarMul(b)).fqp()
	rhs := e.Pow(new(big.Int).Mul(a, b))
	if !lhs.Equal(rhs) {
		t.Fatal("fast pairing not bilinear")
	}
	if !e.Pow(R).Equal(Fq12One()) {
		t.Fatal("fast pairing value not in the order-r subgroup")
	}
	// PairingCheck agreement on true and false statements.
	k := big.NewInt(31337)
	p := g1.ScalarMul(k)
	if !PairingCheck([]G1Point{p, g1.Neg()}, []G2Point{g2, g2.ScalarMul(k)}) {
		t.Fatal("fast PairingCheck rejected a true statement")
	}
	if PairingCheck([]G1Point{p, g1.Neg()}, []G2Point{g2, g2.ScalarMul(big.NewInt(42))}) {
		t.Fatal("fast PairingCheck accepted a false statement")
	}
}

// pairingCheckAgrees runs one statement through the single-loop check, the
// prepared-lines check and the math/big reference, and fails on any
// disagreement.
func pairingCheckAgrees(t *testing.T, ps []G1Point, qs []G2Point) bool {
	t.Helper()
	want := pairingCheckReference(ps, qs)
	if got := PairingCheck(ps, qs); got != want {
		t.Fatalf("PairingCheck = %v, reference = %v", got, want)
	}
	prepared := make([]*G2Prepared, len(qs))
	for i, q := range qs {
		prepared[i] = PrepareG2(q)
	}
	// Prepared lines are reusable: check twice with the same preparation.
	for range 2 {
		if got := PairingCheckPrepared(ps, prepared); got != want {
			t.Fatalf("PairingCheckPrepared = %v, reference = %v", got, want)
		}
	}
	return want
}

func TestPairingCheckMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reference pairing is expensive")
	}
	r := testRand()
	g1, g2 := G1Generator(), G2Generator()
	// Random true and false statements over two and three pairs.
	{
		a, b := randBig(r), randBig(r)
		ab := new(big.Int).Mul(a, b)
		// e(a·g1, b·g2) · e(−ab·g1, g2) == 1
		if !pairingCheckAgrees(t,
			[]G1Point{g1.ScalarMul(a), g1.ScalarMul(ab).Neg()},
			[]G2Point{g2.ScalarMul(b), g2}) {
			t.Fatal("true statement rejected")
		}
		if pairingCheckAgrees(t,
			[]G1Point{g1.ScalarMul(a), g1.ScalarMul(b).Neg()},
			[]G2Point{g2.ScalarMul(b), g2}) {
			t.Fatal("false statement accepted")
		}
	}
	a, b, c := randBig(r), randBig(r), randBig(r)
	sum := new(big.Int).Add(new(big.Int).Mul(a, b), c)
	// e(a·g1, b·g2) · e(c·g1, g2) · e(−(ab+c)·g1, g2) == 1
	if !pairingCheckAgrees(t,
		[]G1Point{g1.ScalarMul(a), g1.ScalarMul(c), g1.ScalarMul(sum).Neg()},
		[]G2Point{g2.ScalarMul(b), g2, g2}) {
		t.Fatal("three-pair true statement rejected")
	}

	// Degenerate inputs: infinities on either side, the empty product, a
	// lone non-trivial pairing, a pair and its double negation.
	p, q := g1.ScalarMul(big.NewInt(7)), g2.ScalarMul(big.NewInt(11))
	for i, c := range []struct {
		ps   []G1Point
		qs   []G2Point
		want bool
	}{
		{nil, nil, true},
		{[]G1Point{G1Infinity()}, []G2Point{q}, true},
		{[]G1Point{p}, []G2Point{G2Infinity()}, true},
		{[]G1Point{p, G1Infinity(), p.Neg()}, []G2Point{q, g2, q}, true},
		{[]G1Point{p}, []G2Point{q}, false},
		{[]G1Point{p, p.Neg()}, []G2Point{q, q.Neg()}, false},
	} {
		if got := pairingCheckAgrees(t, c.ps, c.qs); got != c.want {
			t.Fatalf("degenerate case %d: %v, want %v", i, got, c.want)
		}
	}
	if PairingCheckPrepared([]G1Point{p}, nil) {
		t.Fatal("mismatched lengths accepted")
	}
}

// TestPairingCheckFailsClosed: a finite G2 argument without prepared lines
// (its Miller loop met a vertical line, so it is not an r-torsion point)
// fails the check outright — there is no second pairing to fall back to.
// The zero G2Point value, (0, 0), is such a point; Pair sends it to zero.
func TestPairingCheckFailsClosed(t *testing.T) {
	g1, g2 := G1Generator(), G2Generator()
	zero := PrepareG2(G2Point{})
	if zero.lines != nil {
		t.Fatal("the zero G2Point prepared a full set of lines")
	}
	for _, bad := range []*G2Prepared{{}, zero} {
		if PairingCheckPrepared([]G1Point{g1}, []*G2Prepared{bad}) {
			t.Fatal("a finite point without lines passed alone")
		}
		// e(g1, g2)·e(−g1, g2) == 1 with the bad point riding along.
		if PairingCheckPrepared([]G1Point{g1, g1.Neg(), g1}, []*G2Prepared{PrepareG2(g2), PrepareG2(g2), bad}) {
			t.Fatal("a finite point without lines passed beside a true statement")
		}
		// An infinite G1 partner still contributes 1.
		if !PairingCheckPrepared([]G1Point{G1Infinity()}, []*G2Prepared{bad}) {
			t.Fatal("∞ paired with a point without lines is not 1")
		}
	}
	if Pair(g1, G2Point{}).Equal(Pair(G1Infinity(), g2)) {
		t.Fatal("a degenerate Miller loop paired to 1")
	}
}

// TestG2GeneratorDecimal: the hex-encoded production generator is the
// specification's decimal one.
func TestG2GeneratorDecimal(t *testing.T) {
	if got, want := G2Generator(), g2GeneratorReference(); !g2RefOf(got).Equal(want) {
		t.Fatalf("G2Generator = %x, want %x", got.Marshal(), want.Marshal())
	}
}

func TestPreparedLineCount(t *testing.T) {
	g2 := G2Generator()
	if lines := prepareLines(&g2); len(lines) != ateLines {
		t.Fatalf("prepared %d lines, want %d", len(lines), ateLines)
	}
}
