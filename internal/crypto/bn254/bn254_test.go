package bn254

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestFqArithmetic(t *testing.T) {
	a, b := FqFromInt64(7), FqFromInt64(5)
	if !a.Add(b).Equal(FqFromInt64(12)) {
		t.Fatal("add")
	}
	if !a.Sub(b).Equal(FqFromInt64(2)) {
		t.Fatal("sub")
	}
	if !a.Mul(b).Equal(FqFromInt64(35)) {
		t.Fatal("mul")
	}
	if !a.Mul(a.Inv()).Equal(FqOne()) {
		t.Fatal("inv")
	}
	if !b.Neg().Add(b).Equal(FqZero()) {
		t.Fatal("neg")
	}
	// Wraparound at the modulus.
	pm1 := NewFq(new(big.Int).Sub(Q, big.NewInt(1)))
	if !pm1.Add(FqFromInt64(1)).Equal(FqZero()) {
		t.Fatal("modular wrap")
	}
}

func TestQuickFqFieldLaws(t *testing.T) {
	f := func(x, y, z int64) bool {
		a, b, c := FqFromInt64(x), FqFromInt64(y), FqFromInt64(z)
		// Distributivity and associativity.
		if !a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c))) {
			return false
		}
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFq2Arithmetic(t *testing.T) {
	// i² = −1.
	i := NewFq2(FqZero(), FqOne())
	minusOne := NewFq2(FqFromInt64(-1), FqZero())
	if !i.Mul(i).Equal(minusOne) {
		t.Fatal("i² != -1")
	}
	x := NewFq2(FqFromInt64(3), FqFromInt64(4))
	if !x.Mul(x.Inv()).Equal(Fq2One()) {
		t.Fatal("Fq2 inverse")
	}
	if !x.Sub(x).Equal(Fq2Zero()) {
		t.Fatal("Fq2 sub")
	}
}

func TestFq12Arithmetic(t *testing.T) {
	var c [12]Fq
	for i := range c {
		c[i] = FqFromInt64(int64(i + 1))
	}
	x := NewFq12(c)
	if !x.Mul(x.Inv()).Equal(Fq12One()) {
		t.Fatal("Fq12 inverse")
	}
	if !x.Mul(Fq12One()).Equal(x) {
		t.Fatal("Fq12 multiplicative identity")
	}
	// w⁶ = 9 + i: check via the embedding (i = w⁶ − 9 by construction).
	i2 := NewFq2(FqZero(), FqOne())
	emb := Fq2ToFq12(i2)
	var w6c [12]Fq
	for k := range w6c {
		w6c[k] = FqZero()
	}
	w6c[6] = FqOne()
	w6 := NewFq12(w6c)
	nine := FqToFq12(FqFromInt64(9))
	if !emb.Add(nine).Equal(w6) {
		t.Fatal("tower embedding: i + 9 != w⁶")
	}
	// Embedding is a ring homomorphism on a sample: (9+i)(9+i).
	xi := NewFq2(FqFromInt64(9), FqFromInt64(1))
	lhs := Fq2ToFq12(xi.Mul(xi))
	rhs := Fq2ToFq12(xi).Mul(Fq2ToFq12(xi))
	if !lhs.Equal(rhs) {
		t.Fatal("Fq2→Fq12 embedding not multiplicative")
	}
}

func TestFq12PowMatchesRepeatedMul(t *testing.T) {
	var c [12]Fq
	for i := range c {
		c[i] = FqFromInt64(int64(3*i + 2))
	}
	x := NewFq12(c)
	want := Fq12One()
	for i := 0; i < 13; i++ {
		want = want.Mul(x)
	}
	if !x.Pow(big.NewInt(13)).Equal(want) {
		t.Fatal("Pow(13) != x¹³")
	}
}

func TestG1GroupLaws(t *testing.T) {
	g := G1Generator()
	if !g.IsOnCurve() {
		t.Fatal("generator off curve")
	}
	if !g.Add(g).Equal(g.Double()) {
		t.Fatal("add vs double")
	}
	// 2g + g == g + 2g (commutativity) and (g+g)+g == g+(g+g).
	if !g.Double().Add(g).Equal(g.Add(g.Double())) {
		t.Fatal("commutativity")
	}
	if !g.Add(g.Neg()).Inf {
		t.Fatal("g + (−g) != ∞")
	}
	if !g.Add(G1Infinity()).Equal(g) {
		t.Fatal("identity")
	}
	// Group order: r·g == ∞.
	if !g.ScalarMul(R).Inf {
		t.Fatal("r·g != ∞ — wrong group order")
	}
	if g.ScalarMul(big.NewInt(0)).Inf != true {
		t.Fatal("0·g != ∞")
	}
}

func TestQuickG1ScalarLinearity(t *testing.T) {
	g := G1Generator()
	f := func(a, b uint32) bool {
		ba, bb := big.NewInt(int64(a)), big.NewInt(int64(b))
		lhs := g.ScalarMul(new(big.Int).Add(ba, bb))
		rhs := g.ScalarMul(ba).Add(g.ScalarMul(bb))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestG2GroupLaws(t *testing.T) {
	g := G2Generator()
	if !g.IsOnCurve() {
		t.Fatal("G2 generator off twist curve")
	}
	if !g.Add(g).Equal(g.Double()) {
		t.Fatal("G2 add vs double")
	}
	if !g.Add(g.Neg()).Inf {
		t.Fatal("G2 g + (−g) != ∞")
	}
	if !g.ScalarMul(R).Inf {
		t.Fatal("r·g2 != ∞ — wrong subgroup order")
	}
	if !g.InSubgroup() {
		t.Fatal("generator fails subgroup check")
	}
}

func TestG1MarshalRoundTrip(t *testing.T) {
	p := G1Generator().ScalarMul(big.NewInt(12345))
	q, ok := UnmarshalG1(p.Marshal())
	if !ok || !q.Equal(p) {
		t.Fatal("G1 marshal round trip")
	}
	if _, ok := UnmarshalG1(make([]byte, 63)); ok {
		t.Fatal("short input accepted")
	}
	bad := p.Marshal()
	bad[63] ^= 1
	if _, ok := UnmarshalG1(bad); ok {
		t.Fatal("off-curve point accepted")
	}
	inf, ok := UnmarshalG1(make([]byte, 64))
	if !ok || !inf.Inf {
		t.Fatal("infinity round trip")
	}
}

func TestG2MarshalRoundTrip(t *testing.T) {
	p := G2Generator().ScalarMul(big.NewInt(777))
	q, ok := UnmarshalG2(p.Marshal())
	if !ok || !q.Equal(p) {
		t.Fatal("G2 marshal round trip")
	}
	bad := p.Marshal()
	bad[127] ^= 1
	if _, ok := UnmarshalG2(bad); ok {
		t.Fatal("corrupted G2 point accepted")
	}
}

func TestHashToG1(t *testing.T) {
	p1 := HashToG1([]byte("message one"))
	p2 := HashToG1([]byte("message two"))
	if !p1.IsOnCurve() || !p2.IsOnCurve() {
		t.Fatal("hashed point off curve")
	}
	if p1.Equal(p2) {
		t.Fatal("distinct messages hash to the same point")
	}
	if !p1.Equal(HashToG1([]byte("message one"))) {
		t.Fatal("hash-to-curve not deterministic")
	}
	if p1.Inf {
		t.Fatal("hashed to infinity")
	}
}

func TestPairingBilinearity(t *testing.T) {
	if testing.Short() {
		t.Skip("pairing is expensive with big.Int arithmetic")
	}
	g1, g2 := G1Generator(), G2Generator()
	e := Pair(g1, g2).fqp()
	if e.Equal(Fq12One()) {
		t.Fatal("pairing degenerate: e(g1, g2) == 1")
	}
	// e(a·g1, b·g2) == e(g1, g2)^(ab): the property every BLS signature
	// verification relies on.
	a, b := big.NewInt(17), big.NewInt(29)
	lhs := Pair(g1.ScalarMul(a), g2.ScalarMul(b)).fqp()
	rhs := e.Pow(new(big.Int).Mul(a, b))
	if !lhs.Equal(rhs) {
		t.Fatal("bilinearity failed: e(17·g1, 29·g2) != e(g1,g2)^493")
	}
	// Order: e(g1, g2)^r == 1.
	if !e.Pow(R).Equal(Fq12One()) {
		t.Fatal("pairing value not in the order-r subgroup")
	}
}

func TestPairingCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("pairing is expensive with big.Int arithmetic")
	}
	g1, g2 := G1Generator(), G2Generator()
	k := big.NewInt(31337)
	// e(k·g1, g2) · e(−(k·g1), g2) == 1.
	p := g1.ScalarMul(k)
	if !PairingCheck([]G1Point{p, p.Neg()}, []G2Point{g2, g2}) {
		t.Fatal("cancelling pairing check failed")
	}
	// e(k·g1, g2) · e(−g1, k·g2) == 1 (the BLS verification form).
	if !PairingCheck([]G1Point{p, g1.Neg()}, []G2Point{g2, g2.ScalarMul(k)}) {
		t.Fatal("BLS-form pairing check failed")
	}
	// A mismatched statement must fail.
	if PairingCheck([]G1Point{p, g1.Neg()}, []G2Point{g2, g2.ScalarMul(big.NewInt(42))}) {
		t.Fatal("false statement passed the pairing check")
	}
	if PairingCheck([]G1Point{p}, nil) {
		t.Fatal("mismatched lengths accepted")
	}
}
