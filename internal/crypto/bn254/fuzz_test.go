package bn254

import (
	"bytes"
	"math/big"
	"testing"
)

// Fuzz targets. For the deserialization boundary: any accepted input must
// be a valid curve (and for G2, subgroup) point whose re-marshalling
// round-trips, and valid marshalled points must always be accepted. For the
// limb arithmetic, the recoded scalar multiplication and the G2 group law
// and codec: agreement with the math/big oracle on whatever operands the
// fuzzer finds.

// FuzzFpArith drives every fp operation against math/big. The operands are
// 32 raw bytes each, reduced mod Q on the way in, so limbs of all ones and
// values just under and over the modulus are one mutation away.
func FuzzFpArith(f *testing.F) {
	ff := bytes.Repeat([]byte{0xff}, 32)
	qm1 := new(big.Int).Sub(Q, big.NewInt(1)).Bytes()
	f.Add(make([]byte, 32), make([]byte, 32))
	f.Add(ff, ff)
	f.Add(qm1, qm1)
	f.Add(Q.Bytes(), []byte{1})
	f.Add([]byte{2}, qm1)
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		if len(ab) > 32 || len(bb) > 32 {
			return
		}
		a, b := new(big.Int).SetBytes(ab), new(big.Int).SetBytes(bb)
		fa, fb := fpFromBig(a), fpFromBig(b)
		ra, rb := NewFq(a), NewFq(b)
		check := func(op string, got *fp, want Fq) {
			t.Helper()
			if got.toBig().Cmp(want.Big()) != 0 {
				t.Fatalf("%s(%v, %v) = %v, want %v", op, a, b, got.toBig(), want.Big())
			}
		}
		var z, lazy fp
		montMul(&z, &fa, &fb)
		check("mul", &z, ra.Mul(rb))
		fpSquare(&z, &fa)
		check("square", &z, ra.Mul(ra))
		fpAdd(&z, &fa, &fb)
		check("add", &z, ra.Add(rb))
		fpSub(&z, &fa, &fb)
		check("sub", &z, ra.Sub(rb))
		fpDouble(&z, &fa)
		check("double", &z, ra.Add(ra))
		fpNeg(&z, &fa)
		check("neg", &z, ra.Neg())
		fpHalve(&z, &fa)
		fpDouble(&z, &z)
		check("halve, doubled back", &z, ra)
		fpAddNoReduce(&lazy, &fa, &fb)
		montMul(&z, &lazy, &lazy)
		check("mul of unreduced sums", &z, ra.Add(rb).Mul(ra.Add(rb)))
		fpNineXPlus(&z, &fa, &fb)
		check("9x+y", &z, FqFromInt64(9).Mul(ra).Add(rb))
		if !ra.IsZero() {
			fpInv(&z, &fa)
			check("inv", &z, ra.Inv())
		}
		if got, want := fpLegendre(&fa), big.Jacobi(ra.Big(), Q); got != want {
			t.Fatalf("legendre(%v) = %d, want %d", a, got, want)
		}
	})
}

// FuzzG1ScalarMul drives the GLV + width-4 NAF multiplication against the
// math/big double-and-add, on the generator's multiples by a fuzzed base
// scalar so the point varies too, alone and as one term of three.
func FuzzG1ScalarMul(f *testing.F) {
	f.Add(uint64(1), []byte{0})
	f.Add(uint64(1), []byte{1})
	f.Add(uint64(7), R.Bytes())
	f.Add(uint64(2), new(big.Int).Sub(R, big.NewInt(1)).Bytes())
	f.Add(^uint64(0), bytes.Repeat([]byte{0xff}, 32))
	f.Add(uint64(3), new(big.Int).Lsh(big.NewInt(1), 127).Bytes())
	f.Add(uint64(5), uPoly(36, 18, 6, 1).Bytes()) // λ
	g := G1Generator()
	f.Fuzz(func(t *testing.T, base uint64, kb []byte) {
		if len(kb) > 40 {
			return
		}
		p := g.scalarMulReference(new(big.Int).SetUint64(base))
		k := new(big.Int).SetBytes(kb)
		want := p.scalarMulReference(k)
		if got := p.ScalarMul(k); !got.Equal(want) {
			t.Fatalf("%v·(%d·g): got %v, want %v", k, base, got, want)
		}
		// As a term among others: k·p + 3·p − 3·p.
		three := big.NewInt(3)
		if got := G1MultiScalarMul([]G1Point{p, p, p.Neg()}, []*big.Int{k, three, three}); !got.Equal(want) {
			t.Fatalf("%v·(%d·g) among cancelling terms: got %v, want %v", k, base, got, want)
		}
	})
}

// offTorsionTwistPoint returns a point of the twist E'(Fq²) outside the
// R-torsion (the twist's order is R·(2Q − R)), found on the oracle: the
// first x = c + i with x³ + b′ a square, its root taken by the q ≡ 3 (mod 4)
// method of Adj and Rodríguez-Henríquez and checked by squaring back.
func offTorsionTwistPoint() g2Ref {
	minusOne := NewFq2(FqFromInt64(-1), FqZero())
	e34 := new(big.Int).Rsh(new(big.Int).Sub(Q, big.NewInt(3)), 2) // (q−3)/4
	e12 := new(big.Int).Rsh(new(big.Int).Sub(Q, big.NewInt(1)), 1) // (q−1)/2
	for c := int64(1); ; c++ {
		x := NewFq2(FqFromInt64(c), FqOne())
		a := x.Mul(x).Mul(x).Add(twistB)
		a1 := a.Pow(e34)
		alpha := a1.Mul(a1).Mul(a)
		x0 := a1.Mul(a)
		var y FQP
		if alpha.Equal(minusOne) {
			y = x0.Mul(NewFq2(FqZero(), FqOne()))
		} else {
			y = alpha.Add(Fq2One()).Pow(e12).Mul(x0)
		}
		p := g2Ref{X: x, Y: y}
		if y.Mul(y).Equal(a) && !p.InSubgroup() {
			return p
		}
	}
}

// withCoordPlusQ returns enc with Q added to its i-th 32-byte coordinate:
// the same residue, encoded non-canonically (Q < 2²⁵⁴ leaves the room).
func withCoordPlusQ(enc []byte, i int) []byte {
	out := bytes.Clone(enc)
	v := new(big.Int).SetBytes(out[32*i : 32*(i+1)])
	v.Add(v, Q).FillBytes(out[32*i : 32*(i+1)])
	return out
}

// FuzzG2Ops drives the G2 group law, the curve and subgroup checks and the
// codec against the oracle. P = a·B and Q = b·B over a base B that is the
// generator or, with offTorsion, a twist point outside the R-torsion;
// every run also adds P + P, P + (−P) and the ∞ operands, checks an
// off-curve neighbour of P, and decodes both the fuzzed encoding and P's
// own with each coordinate pushed up by Q.
func FuzzG2Ops(f *testing.F) {
	g2 := G2Generator()
	tw := offTorsionTwistPoint()
	f.Add(uint64(1), uint64(1), false, []byte(nil))
	f.Add(uint64(5), uint64(7), false, g2.Marshal())
	f.Add(uint64(0), uint64(3), false, make([]byte, 128))
	f.Add(uint64(2), uint64(9), true, tw.Marshal())
	f.Add(uint64(3), uint64(3), true, withCoordPlusQ(g2.Marshal(), 0))
	f.Add(^uint64(0), uint64(1), false, withCoordPlusQ(g2.Marshal(), 3))
	f.Add(uint64(4), uint64(0), true, bytes.Repeat([]byte{0xff}, 128))
	f.Fuzz(func(t *testing.T, a, b uint64, offTorsion bool, enc []byte) {
		base := g2RefOf(g2)
		if offTorsion {
			base = tw
		}
		rp, rq := base.mul(new(big.Int).SetUint64(a)), base.mul(new(big.Int).SetUint64(b))
		p, q := rp.point(), rq.point()
		if !base.point().ScalarMul(new(big.Int).SetUint64(a)).Equal(p) {
			t.Fatalf("ScalarMul(%d) disagrees with the oracle", a)
		}
		inf, rinf := G2Infinity(), g2Ref{Inf: true}
		for _, c := range []struct {
			name   string
			x, y   G2Point
			rx, ry g2Ref
		}{
			{"P+Q", p, q, rp, rq},
			{"P+P", p, p, rp, rp},
			{"P+(−P)", p, p.Neg(), rp, rp.Neg()},
			{"P+∞", p, inf, rp, rinf},
			{"∞+P", inf, p, rinf, rp},
			{"∞+∞", inf, inf, rinf, rinf},
		} {
			if got, want := c.x.Add(c.y), c.rx.Add(c.ry); !g2RefOf(got).Equal(want) {
				t.Fatalf("%s (a=%d, b=%d): got %x, want %x", c.name, a, b, got.Marshal(), want.Marshal())
			}
		}
		if !g2RefOf(p.Double()).Equal(rp.Double()) || !g2RefOf(p.Neg()).Equal(rp.Neg()) {
			t.Fatalf("Double or Neg of %d·B disagrees with the oracle", a)
		}
		inSubgroup := rp.InSubgroup() // the oracle's R·P: most of a run's time
		if !p.IsOnCurve() || p.InSubgroup() != inSubgroup {
			t.Fatalf("%d·B: IsOnCurve %v, InSubgroup %v, oracle %v", a, p.IsOnCurve(), p.InSubgroup(), inSubgroup)
		}
		if !p.Inf {
			off := p
			fpAdd(&off.y.c0, &off.y.c0, &fpMontOne)
			if off.IsOnCurve() != g2RefOf(off).IsOnCurve() {
				t.Fatal("IsOnCurve disagrees with the oracle off the curve")
			}
		}
		encP := p.Marshal()
		if !bytes.Equal(encP, rp.Marshal()) {
			t.Fatalf("Marshal(%d·B) = %x, oracle %x", a, encP, rp.Marshal())
		}
		if got, ok := UnmarshalG2(encP); ok != inSubgroup || ok && !got.Equal(p) {
			t.Fatalf("UnmarshalG2(Marshal(%d·B)) = %v, in the R-torsion: %v", a, ok, inSubgroup)
		}
		inputs := [][]byte{enc}
		if !p.Inf {
			for i := 0; i < 4; i++ {
				inputs = append(inputs, withCoordPlusQ(encP, i))
			}
		}
		for _, in := range inputs {
			got, ok := UnmarshalG2(in)
			want, wantOK := unmarshalG2Reference(in)
			if ok != wantOK || ok && !g2RefOf(got).Equal(want) {
				t.Fatalf("UnmarshalG2(%x) = %v, oracle %v", in, ok, wantOK)
			}
		}
	})
}

func FuzzUnmarshalG1(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(G1Generator().Marshal())
	f.Add(G1Generator().ScalarMul(big.NewInt(7)).Marshal())
	f.Add([]byte{1, 2, 3})
	bad := G1Generator().Marshal()
	bad[63] ^= 1
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := UnmarshalG1(data)
		if !ok {
			return
		}
		if !p.IsOnCurve() {
			t.Fatal("accepted off-curve G1 point")
		}
		out := p.Marshal()
		if !bytes.Equal(out, data) {
			t.Fatalf("G1 round trip mismatch: in=%x out=%x", data, out)
		}
		q, ok2 := UnmarshalG1(out)
		if !ok2 || !q.Equal(p) {
			t.Fatal("re-unmarshal mismatch")
		}
	})
}

func FuzzUnmarshalG2(f *testing.F) {
	f.Add(make([]byte, 128))
	f.Add(G2Generator().Marshal())
	f.Add(G2Generator().ScalarMul(big.NewInt(9)).Marshal())
	f.Add([]byte{4, 5, 6})
	bad := G2Generator().Marshal()
	bad[127] ^= 1
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := UnmarshalG2(data)
		if !ok {
			return
		}
		if !p.IsOnCurve() {
			t.Fatal("accepted off-curve G2 point")
		}
		if !p.InSubgroup() {
			t.Fatal("accepted G2 point outside the r-torsion")
		}
		out := p.Marshal()
		if !bytes.Equal(out, data) {
			t.Fatalf("G2 round trip mismatch: in=%x out=%x", data, out)
		}
	})
}

// FuzzPairingCheck drives the single-loop product check — on the fly and
// over prepared lines — against the bilinear identity it must decide:
// e(a·g₁, b·g₂) · e(−c·g₁, g₂) == 1 exactly when ab ≡ c (mod r). The
// math/big reference is too slow to sit inside a fuzz loop; the
// differential tests in fast_test.go pin the two to each other.
func FuzzPairingCheck(f *testing.F) {
	f.Add(uint64(3), uint64(5), uint64(15))
	f.Add(uint64(3), uint64(5), uint64(16))
	f.Add(uint64(0), uint64(7), uint64(0))
	f.Add(uint64(1), uint64(0), uint64(1))
	f.Add(^uint64(0), ^uint64(0), uint64(1))
	g1, g2 := G1Generator(), G2Generator()
	g2Lines := PrepareG2(g2)
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		ba, bb, bc := new(big.Int).SetUint64(a), new(big.Int).SetUint64(b), new(big.Int).SetUint64(c)
		ab := new(big.Int).Mul(ba, bb)
		want := ab.Mod(ab, R).Cmp(bc) == 0
		ps := []G1Point{g1.ScalarMul(ba), g1.ScalarMul(bc).Neg()}
		q := g2.ScalarMul(bb)
		if got := PairingCheck(ps, []G2Point{q, g2}); got != want {
			t.Fatalf("PairingCheck(%d·g1, %d·g2; −%d·g1, g2) = %v, want %v", a, b, c, got, want)
		}
		if got := PairingCheckPrepared(ps, []*G2Prepared{PrepareG2(q), g2Lines}); got != want {
			t.Fatalf("PairingCheckPrepared(%d, %d, %d) = %v, want %v", a, b, c, got, want)
		}
	})
}
