package bn254

import (
	"bytes"
	"math/rand"
	"testing"
)

// The assembly in montmul_amd64.s against the Go it replaces: montMul
// against montMulGeneric on every operand montMul accepts, [0, 2Q), and
// fp2Mul against fp2MulGeneric on reduced operands, each with z fresh and
// aliased; the outputs must be bit-identical. Off amd64, or on a CPU
// without ADX/BMI2, each is its generic function and there is nothing to
// compare.

const noADX = "no ADX/BMI2 (or not amd64): montMul and fp2Mul are their generic Go here"

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

// FuzzMontMul: two 32-byte big-endian inputs (shorter ones are
// left-padded) folded into [0, 2Q) for montMul, and into [0, Q) as the
// components of fp2Mul's x = a + b·i and y = b + a·i.
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
	})
}
