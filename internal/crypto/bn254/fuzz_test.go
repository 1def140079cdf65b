package bn254

import (
	"bytes"
	"math/big"
	"testing"
)

// Fuzz targets for the deserialization boundary: any accepted input must
// be a valid curve (and for G2, subgroup) point whose re-marshalling
// round-trips, and valid marshalled points must always be accepted.

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
