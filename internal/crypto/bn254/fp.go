package bn254

// Fixed-limb base-field arithmetic: the production hot path promised by the
// package doc. An fp holds an integer mod Q as 4 little-endian 64-bit limbs
// in Montgomery form (value · 2²⁵⁶ mod Q). Multiplication is the unrolled
// no-carry CIOS (montMulGeneric here; on amd64 with ADX, the same rounds in
// montmul_amd64.s); addition, subtraction, doubling and halving
// select their result with a mask instead of a branch, because the branch
// is a coin flip the predictor loses half the time; inversion is a binary
// extended Euclid. Nothing here allocates. The test-only math/big Fq type
// is the semantic reference; fast_test.go cross-checks every operation
// against it on random and boundary inputs, and FuzzFpArith on whatever the
// fuzzer finds.
//
// The modulus limbs, −Q⁻¹ mod 2⁶⁴ and the powers of 2²⁵⁶ are written out as
// constants so the compiler folds them into the unrolled code;
// TestFpConstants derives each from Q and compares.

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// fp is a base-field element in Montgomery form. The zero value is 0.
type fp [4]uint64

// The modulus Q as limbs, and qInvNeg = −Q⁻¹ mod 2⁶⁴, the Montgomery
// reduction factor.
const (
	q0 uint64 = 0x3c208c16d87cfd47
	q1 uint64 = 0x97816a916871ca8d
	q2 uint64 = 0xb85045b68181585d
	q3 uint64 = 0x30644e72e131a029

	qInvNeg uint64 = 0x87d20782e4866389
)

var (
	// qLimbs is Q as a plain (non-Montgomery) limb integer.
	qLimbs = fp{q0, q1, q2, q3}
	// fpMontOne is 1 in Montgomery form (2²⁵⁶ mod Q).
	fpMontOne = fp{0xd35d438dc58f0d9d, 0x0a78eb28f5c70b3d, 0x666ea36f7879462c, 0x0e0a77c19a07df2f}
	// fpRSquare is 2⁵¹² mod Q, used to convert into Montgomery form.
	fpRSquare = fp{0xf32cfc5b538afa89, 0xb5e71911d44501fb, 0x47ab1eff0a417ff6, 0x06d89f71cab8351f}
	// fpSqrtChain raises to (Q+1)/4; Q ≡ 3 (mod 4), so x^((Q+1)/4) is a
	// square root of any quadratic residue x. In windows of four bits: 252
	// squarings and 54 multiplications, where bit by bit takes 108 (and
	// windows of five, 53).
	fpSqrtChain = newExpChain(new(big.Int).Rsh(new(big.Int).Add(Q, big.NewInt(1)), 2))
)

func fpFromUint64(v uint64) fp {
	z := fp{v}
	montMul(&z, &z, &fpRSquare)
	return z
}

// rawFromBytes reads 32 big-endian bytes as a plain 256-bit limb integer.
func rawFromBytes(b []byte) fp {
	return fp{
		binary.BigEndian.Uint64(b[24:32]), binary.BigEndian.Uint64(b[16:24]),
		binary.BigEndian.Uint64(b[8:16]), binary.BigEndian.Uint64(b[0:8]),
	}
}

// fpFromBytes parses a 32-byte big-endian field element, rejecting
// non-canonical (≥ Q) encodings so every point has exactly one byte
// representation (signatures are compared and deduplicated as bytes).
func fpFromBytes(b []byte) (fp, bool) {
	z := rawFromBytes(b)
	if !z.less(&qLimbs) {
		return fp{}, false
	}
	montMul(&z, &z, &fpRSquare)
	return z, true
}

// fpFromRaw reduces a plain 256-bit integer below Q by subtraction
// (2²⁵⁶ < 6Q) and converts it to Montgomery form.
func fpFromRaw(z fp) fp {
	for !z.less(&qLimbs) {
		z.subNoReduce(&qLimbs)
	}
	montMul(&z, &z, &fpRSquare)
	return z
}

// fpFromWide reduces a 64-byte big-endian integer hi·2²⁵⁶ + lo mod Q.
func fpFromWide(b []byte) fp {
	hi, lo := fpFromRaw(rawFromBytes(b[:32])), fpFromRaw(rawFromBytes(b[32:64]))
	montMul(&hi, &hi, &fpRSquare) // ·2²⁵⁶: 2⁵¹² mod Q is 2²⁵⁶ in Montgomery form
	fpAdd(&hi, &hi, &lo)
	return hi
}

// putBytes writes z's canonical value as 32 big-endian bytes.
func (z *fp) putBytes(b []byte) {
	c := z.canonical()
	binary.BigEndian.PutUint64(b[0:8], c[3])
	binary.BigEndian.PutUint64(b[8:16], c[2])
	binary.BigEndian.PutUint64(b[16:24], c[1])
	binary.BigEndian.PutUint64(b[24:32], c[0])
}

// canonical returns the non-Montgomery limb representation (< Q).
func (z *fp) canonical() fp {
	one := fp{1}
	var c fp
	montMul(&c, z, &one)
	return c
}

func (z *fp) isZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

func (z *fp) equal(x *fp) bool { return *z == *x }

func (z *fp) set(x *fp) { *z = *x }

func (z *fp) setZero() { *z = fp{} }

func (z *fp) setOne() { *z = fpMontOne }

// lessCanonical compares canonical (non-Montgomery) values: z < x.
func (z *fp) lessCanonical(x *fp) bool {
	a, b := z.canonical(), x.canonical()
	return a.less(&b)
}

// montMulGeneric sets z = x·y·2⁻²⁵⁶ mod Q: CIOS Montgomery multiplication,
// fully unrolled. Each round forms x[i]·y and m·Q as four independent 64×64
// products joined by one carry chain, so the adds compile to straight ADC
// runs. Q's top limb leaves two bits free, which keeps the running total
// under y + Q + 1 between rounds: it never outgrows four words plus the
// small spill t4 (the "no-carry" variant — textbook CIOS's sixth accumulator
// word and its carry handling are gone). Operands may be as large as
// 2Q − 1 (3Q still fits four words, and x·y/2²⁵⁶ + Q stays under 2Q for the
// one subtraction at the end); the result is always below Q. z may alias x
// or y.
//
// This is montMul's contract. montMul is this function off amd64 and on
// CPUs without ADX/BMI2 (montmul_other.go), and the same rounds in
// MULX/ADCX/ADOX assembly otherwise (montmul_amd64.s);
// TestMontMulMatchesGeneric holds the two to each other.
func montMulGeneric(z, x, y *fp) {
	var t0, t1, t2, t3, t4, h0, h1, h2, h3, l0, l1, l2, l3, c, m uint64

	// Round 0: t = x[0]·y, then t = (t + m·Q)/2⁶⁴ with m cancelling the low word.
	h0, l0 = bits.Mul64(x[0], y[0])
	h1, l1 = bits.Mul64(x[0], y[1])
	h2, l2 = bits.Mul64(x[0], y[2])
	h3, l3 = bits.Mul64(x[0], y[3])
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	t0, t1, t2, t3, t4 = l0, l1, l2, l3, h3
	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3 = t4 + h3 + c

	// Round 1: t += x[1]·y, then t = (t + m·Q)/2⁶⁴.
	h0, l0 = bits.Mul64(x[1], y[0])
	h1, l1 = bits.Mul64(x[1], y[1])
	h2, l2 = bits.Mul64(x[1], y[2])
	h3, l3 = bits.Mul64(x[1], y[3])
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3 = t4 + h3 + c

	// Round 2: t += x[2]·y, then t = (t + m·Q)/2⁶⁴.
	h0, l0 = bits.Mul64(x[2], y[0])
	h1, l1 = bits.Mul64(x[2], y[1])
	h2, l2 = bits.Mul64(x[2], y[2])
	h3, l3 = bits.Mul64(x[2], y[3])
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3 = t4 + h3 + c

	// Round 3: t += x[3]·y, then t = (t + m·Q)/2⁶⁴.
	h0, l0 = bits.Mul64(x[3], y[0])
	h1, l1 = bits.Mul64(x[3], y[1])
	h2, l2 = bits.Mul64(x[3], y[2])
	h3, l3 = bits.Mul64(x[3], y[3])
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	h3 += c
	_, c = bits.Add64(t0, l0, 0)
	t0, c = bits.Add64(t1, l1, c)
	t1, c = bits.Add64(t2, l2, c)
	t2, c = bits.Add64(t3, l3, c)
	t3 = t4 + h3 + c

	// t < 2Q: one conditional subtraction, selected by mask.
	l0, c = bits.Sub64(t0, q0, 0)
	l1, c = bits.Sub64(t1, q1, c)
	l2, c = bits.Sub64(t2, q2, c)
	l3, c = bits.Sub64(t3, q3, c)
	m = -c // all ones when t < Q
	z[0] = l0 ^ (l0^t0)&m
	z[1] = l1 ^ (l1^t1)&m
	z[2] = l2 ^ (l2^t2)&m
	z[3] = l3 ^ (l3^t3)&m
}

// fpAdd sets z = x + y. (The reduction is written out in fpAdd, fpDouble
// and montMulGeneric rather than called: none of them is small enough to
// inline, and a nested call per field addition is a tenth of a pairing.)
func fpAdd(z, x, y *fp) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, _ := bits.Add64(x[3], y[3], c) // Q < 2²⁵⁴, so no carry out
	r0, b := bits.Sub64(t0, q0, 0)
	r1, b := bits.Sub64(t1, q1, b)
	r2, b := bits.Sub64(t2, q2, b)
	r3, b := bits.Sub64(t3, q3, b)
	keep := -b // all ones when x + y < Q
	z[0] = r0 ^ (r0^t0)&keep
	z[1] = r1 ^ (r1^t1)&keep
	z[2] = r2 ^ (r2^t2)&keep
	z[3] = r3 ^ (r3^t3)&keep
}

// fpAddNoReduce sets z = x + y without reducing: z < 2Q. montMul takes
// operands below 2Q (the product stays under 2²⁵⁶·Q, which is all its final
// subtraction needs), so a sum that only feeds a multiplication skips the
// reduction.
func fpAddNoReduce(z, x, y *fp) {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], _ = bits.Add64(x[3], y[3], c)
}

// fpSub sets z = x − y, adding Q back under the borrow's mask.
func fpSub(z, x, y *fp) {
	var b, c uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	m := -b
	z[0], c = bits.Add64(z[0], q0&m, 0)
	z[1], c = bits.Add64(z[1], q1&m, c)
	z[2], c = bits.Add64(z[2], q2&m, c)
	z[3], _ = bits.Add64(z[3], q3&m, c)
}

// fpNeg sets z = −x.
func fpNeg(z, x *fp) {
	if x.isZero() {
		z.setZero()
		return
	}
	fpNegNoReduce(z, x)
}

// fpNegNoReduce sets z = Q − x, which is −x left in (0, Q]: zero comes out
// as Q. Good as fpNineXPlus's addend, which is why it exists apart from
// fpNeg.
func fpNegNoReduce(z, x *fp) {
	var b uint64
	z[0], b = bits.Sub64(q0, x[0], 0)
	z[1], b = bits.Sub64(q1, x[1], b)
	z[2], b = bits.Sub64(q2, x[2], b)
	z[3], _ = bits.Sub64(q3, x[3], b)
}

// fpDouble sets z = 2x.
func fpDouble(z, x *fp) {
	t3 := x[3]<<1 | x[2]>>63 // x < 2²⁵⁴: nothing shifts out
	t2 := x[2]<<1 | x[1]>>63
	t1 := x[1]<<1 | x[0]>>63
	t0 := x[0] << 1
	r0, b := bits.Sub64(t0, q0, 0)
	r1, b := bits.Sub64(t1, q1, b)
	r2, b := bits.Sub64(t2, q2, b)
	r3, b := bits.Sub64(t3, q3, b)
	keep := -b // all ones when 2x < Q
	z[0] = r0 ^ (r0^t0)&keep
	z[1] = r1 ^ (r1^t1)&keep
	z[2] = r2 ^ (r2^t2)&keep
	z[3] = r3 ^ (r3^t3)&keep
}

// fpNineXPlus sets z = 9x + w mod Q for x < Q and w ≤ Q: the wide step
// behind multiplication by ξ = 9 + i. The sum stays below 10Q < 2²⁵⁸, so it
// is formed unreduced in five words and brought down by one estimated
// multiple of Q and one conditional subtraction, where three doublings and
// two additions would pay five reductions.
func fpNineXPlus(z, x, w *fp) {
	// t = (x << 3) + x + w
	t0, c := bits.Add64(x[0]<<3, x[0], 0)
	t1, c := bits.Add64(x[1]<<3|x[0]>>61, x[1], c)
	t2, c := bits.Add64(x[2]<<3|x[1]>>61, x[2], c)
	t3, c := bits.Add64(x[3]<<3|x[2]>>61, x[3], c)
	t4 := x[3]>>61 + c
	t0, c = bits.Add64(t0, w[0], 0)
	t1, c = bits.Add64(t1, w[1], c)
	t2, c = bits.Add64(t2, w[2], c)
	t3, c = bits.Add64(t3, w[3], c)
	t4 += c

	// t −= k·Q, leaving t < 2Q: only the low four words are needed.
	k := nineXQuotient(t4<<6 | t3>>58)
	h0, l0 := bits.Mul64(k, q0)
	h1, l1 := bits.Mul64(k, q1)
	h2, l2 := bits.Mul64(k, q2)
	l3 := k * q3
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, _ = bits.Add64(l3, h2, c)
	t0, c = bits.Sub64(t0, l0, 0)
	t1, c = bits.Sub64(t1, l1, c)
	t2, c = bits.Sub64(t2, l2, c)
	t3, _ = bits.Sub64(t3, l3, c)

	r0, b := bits.Sub64(t0, q0, 0)
	r1, b := bits.Sub64(t1, q1, b)
	r2, b := bits.Sub64(t2, q2, b)
	r3, b := bits.Sub64(t3, q3, b)
	keep := -b
	z[0] = r0 ^ (r0^t0)&keep
	z[1] = r1 ^ (r1^t1)&keep
	z[2] = r2 ^ (r2^t2)&keep
	z[3] = r3 ^ (r3^t3)&keep
}

// nineXQuotient estimates ⌊t/Q⌋ for t < 177Q from h = ⌊t/2²⁵⁰⌋: 338/2¹²
// sits just under 2²⁵⁰/Q, so k = ⌊338h/2¹²⌋ never overshoots, and it
// leaves t − kQ < 2Q (TestFpLazyOperands checks both for every h). Here
// t < 10Q; the assembly's FINISH (montmul_amd64.s) computes the same k
// for t < 177Q.
func nineXQuotient(h uint64) uint64 { return h * 338 >> 12 }

// fpHalve sets z = x/2: x when even, else x + Q (Q is odd), shifted down.
func fpHalve(z, x *fp) {
	m := -(x[0] & 1)
	t0, c := bits.Add64(x[0], q0&m, 0)
	t1, c := bits.Add64(x[1], q1&m, c)
	t2, c := bits.Add64(x[2], q2&m, c)
	t3, _ := bits.Add64(x[3], q3&m, c) // x + Q < 2²⁵⁵
	z[0] = t0>>1 | t1<<63
	z[1] = t1>>1 | t2<<63
	z[2] = t2>>1 | t3<<63
	z[3] = t3 >> 1
}

// fpSquare sets z = x².
func fpSquare(z, x *fp) { montMul(z, x, x) }

// expChain is a fixed exponent e > 0 as a left-to-right sliding-window
// chain: e's bits cut into odd windows of at most four bits, the zeros
// between them skipped. x^e is x^(2k+1) for the first step's k; each
// later step squares sq times and multiplies by x^(2k+1); tail squarings
// end it.
type expChain struct {
	steps []expStep
	tail  int
}

type expStep struct{ sq, k int }

func newExpChain(e *big.Int) expChain {
	var c expChain
	zeros := 0
	for i := e.BitLen() - 1; i >= 0; {
		if e.Bit(i) == 0 {
			zeros++
			i--
			continue
		}
		j := max(i-3, 0)
		for e.Bit(j) == 0 {
			j++
		}
		v := 0
		for b := i; b >= j; b-- {
			v = v<<1 | int(e.Bit(b))
		}
		c.steps = append(c.steps, expStep{sq: zeros + i - j + 1, k: v / 2})
		zeros = 0
		i = j - 1
	}
	c.tail = zeros
	return c
}

// fpExpChain sets z = x^e for the exponent c spells (variable time, for
// public exponents).
func fpExpChain(z, x *fp, c *expChain) {
	var tab [8]fp // x, x³, …, x¹⁵
	var x2 fp
	tab[0] = *x
	fpSquare(&x2, x)
	for k := 1; k < len(tab); k++ {
		montMul(&tab[k], &tab[k-1], &x2)
	}
	r := tab[c.steps[0].k]
	for _, s := range c.steps[1:] {
		for i := 0; i < s.sq; i++ {
			fpSquare(&r, &r)
		}
		montMul(&r, &r, &tab[s.k])
	}
	for i := 0; i < c.tail; i++ {
		fpSquare(&r, &r)
	}
	*z = r
}

// fpInv sets z = x⁻¹ by the binary extended Euclidean algorithm (variable
// time). Panics on zero. With a = x·2²⁵⁶ the limb value, the loop keeps
// u ≡ a·r and v ≡ a·s (mod Q) while it shrinks (u, v) from (a, Q) to a 1;
// starting r at 2⁵¹² instead of 1 makes the answer a⁻¹·2⁵¹² = x⁻¹·2²⁵⁶,
// already in Montgomery form.
func fpInv(z, x *fp) {
	if x.isZero() {
		panic("bn254: inverse of zero")
	}
	u, v := *x, fp{q0, q1, q2, q3}
	r, s := fpRSquare, fp{}
	one := fp{1}
	for u != one && v != one {
		for u[0]&1 == 0 {
			u.shiftRight()
			fpHalve(&r, &r)
		}
		for v[0]&1 == 0 {
			v.shiftRight()
			fpHalve(&s, &s)
		}
		if v.less(&u) {
			u.subNoReduce(&v)
			fpSub(&r, &r, &s)
		} else {
			v.subNoReduce(&u)
			fpSub(&s, &s, &r)
		}
	}
	if u == one {
		*z = r
	} else {
		*z = s
	}
}

// shiftRight, less and subNoReduce treat the limbs as a plain 256-bit
// integer (fpInv's u and v).
func (z *fp) shiftRight() {
	z[0] = z[0]>>1 | z[1]<<63
	z[1] = z[1]>>1 | z[2]<<63
	z[2] = z[2]>>1 | z[3]<<63
	z[3] >>= 1
}

func (z *fp) less(x *fp) bool {
	_, b := bits.Sub64(z[0], x[0], 0)
	_, b = bits.Sub64(z[1], x[1], b)
	_, b = bits.Sub64(z[2], x[2], b)
	_, b = bits.Sub64(z[3], x[3], b)
	return b != 0
}

func (z *fp) subNoReduce(x *fp) {
	var b uint64
	z[0], b = bits.Sub64(z[0], x[0], 0)
	z[1], b = bits.Sub64(z[1], x[1], b)
	z[2], b = bits.Sub64(z[2], x[2], b)
	z[3], _ = bits.Sub64(z[3], x[3], b)
}

// fpSqrt sets z to a square root of x and reports whether one exists.
func fpSqrt(z, x *fp) bool {
	var r, check fp
	fpExpChain(&r, x, &fpSqrtChain)
	fpSquare(&check, &r)
	if !check.equal(x) {
		return false
	}
	*z = r
	return true
}

// fpLegendre returns the Legendre symbol of x mod Q: 1 for a nonzero
// square, −1 for a non-square, 0 for zero. It reads the Montgomery limbs
// as they are: x·2²⁵⁶ has x's symbol, since (2/Q)²⁵⁶ = 1. The binary
// Jacobi algorithm: with n odd, strip the twos of a, each flipping the
// sign when n ≡ ±3 (mod 8); when a < n, swap them by reciprocity, which
// flips it when both are 3 mod 4; then a −= n. About a fifth of fpSqrt.
func fpLegendre(x *fp) int {
	a, n := *x, qLimbs
	var flip uint64
	for a[0]|a[1]|a[2]|a[3] != 0 {
		if a[1]|a[2]|a[3]|n[1]|n[2]|n[3] == 0 {
			return jacobi64(a[0], n[0], flip)
		}
		for a[0] == 0 { // 64 twos: an even count, no flip
			a[0], a[1], a[2], a[3] = a[1], a[2], a[3], 0
		}
		if tz := uint(bits.TrailingZeros64(a[0])); tz != 0 {
			a[0] = a[0]>>tz | a[1]<<(64-tz)
			a[1] = a[1]>>tz | a[2]<<(64-tz)
			a[2] = a[2]>>tz | a[3]<<(64-tz)
			a[3] >>= tz
			flip ^= uint64(tz) & (n[0]>>1 ^ n[0]>>2)
		}
		if a.less(&n) {
			a, n = n, a
			flip ^= (a[0] >> 1) & (n[0] >> 1)
		}
		a.subNoReduce(&n)
	}
	if n != (fp{1}) {
		return 0
	}
	return 1 - 2*int(flip&1)
}

// jacobi64 finishes fpLegendre once a and n fit in a word; flip's low bit
// carries the sign so far.
func jacobi64(a, n, flip uint64) int {
	for a != 0 {
		tz := uint(bits.TrailingZeros64(a))
		a >>= tz
		flip ^= uint64(tz) & (n>>1 ^ n>>2)
		if a < n {
			a, n = n, a
			flip ^= (a >> 1) & (n >> 1)
		}
		a -= n
	}
	if n != 1 {
		return 0
	}
	return 1 - 2*int(flip&1)
}
