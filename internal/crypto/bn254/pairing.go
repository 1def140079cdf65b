package bn254

import "math/big"

// The optimal ate pairing: a projective Miller loop over the fixed-limb
// tower. The G2 accumulator lives in homogeneous projective coordinates
// over Fq², the line is evaluated inline as a sparse Fq¹² element (three
// Fq² coefficients at 1, w, v·w), and multiplying it into f is a dedicated
// sparse multiplication. Lines are computed only up to Fq² scalars, which
// the final exponentiation kills. The test-only reference
// (reference_test.go) works in affine Fq¹² coordinates with a full
// extension-field inversion per line and the full final exponent.

// GT is an element of the order-r subgroup of Fq¹², the pairing's target
// group: the value Pair returns, comparable only with Equal.
type GT struct{ v fp12 }

// Equal reports a == b.
func (a GT) Equal(b GT) bool { return a.v.equal(&b.v) }

// Pair computes the optimal ate pairing e(P, Q) ∈ GT for P ∈ G1 and
// Q ∈ G2; e is bilinear and non-degenerate (property-tested against the
// reference). A Q whose Miller loop meets a vertical line is outside the
// r-torsion — of the G2Point values the package hands out only the zero
// value can be — and pairs to zero, which equals no pairing value.
func Pair(p G1Point, q G2Point) GT {
	var e GT
	if p.Inf || q.Inf {
		e.v.setOne()
		return e
	}
	lines := prepareLines(&q)
	if lines == nil {
		return e
	}
	f := millerLoopLines([][]lineCoeff{lines}, []G1Point{p})
	e.v = finalExpFast(&f)
	return e
}

// PairingCheck reports whether Π e(Pᵢ, Qᵢ) == 1, the form signature
// verification uses: e(H(m), pk) · e(−sig, g₂) == 1. All pairs run through
// a single Miller loop and share a single final exponentiation; callers
// whose G2 arguments are fixed skip the line computation too by preparing
// them once (PrepareG2, PairingCheckPrepared).
func PairingCheck(ps []G1Point, qs []G2Point) bool {
	if len(ps) != len(qs) {
		return false
	}
	prepared := make([]*G2Prepared, len(qs))
	for i, q := range qs {
		prepared[i] = PrepareG2(q)
	}
	return PairingCheckPrepared(ps, prepared)
}

// ateU is the BN parameter u with 6u+2 = ateLoopCount.
var ateU, _ = new(big.Int).SetString("4965661367192848881", 10)

// g2Proj is a twist point in homogeneous projective coordinates:
// affine (X/Z, Y/Z).
type g2Proj struct{ x, y, z fp2 }

// lineEval is ℓ(P) = r0 + r1·w + r2·v·w with rᵢ ∈ Fq².
type lineEval struct{ r0, r1, r2 fp2 }

// lineCoeff is a Miller-loop line with its G1 argument still open:
// ℓ(P) = a·yP + b·xP·w + c·v·w for P = (xP, yP). The coefficients depend
// on the G2 argument alone, so they can be computed once for a Q that many
// pairings share (G2Prepared).
type lineCoeff struct{ a, b, c fp2 }

// doubleStep sets T = 2T and l to the tangent line at T:
//
//	ℓ(P) = −2YZ·yP + 3X²·xP·w + (3b′Z² − Y²)·v·w
//
// (scaled by 2YZ²/Z relative to the affine tangent; Fq² scalars vanish
// under the final exponentiation).
func doubleStep(t *g2Proj, l *lineCoeff) {
	var a, b, c, e, f, g, h, j, ee, u fp2
	fp2Mul(&a, &t.x, &t.y)
	fp2Halve(&a, &a) // A = XY/2
	fp2Square(&b, &t.y)
	fp2Square(&c, &t.z)
	fp2Double(&e, &c)
	fp2Add(&e, &e, &c)
	fp2Mul(&e, &e, &fp2TwistB) // E = 3b′Z²
	fp2Double(&f, &e)
	fp2Add(&f, &f, &e) // F = 3E
	fp2Add(&g, &b, &f)
	fp2Halve(&g, &g) // G = (B+F)/2
	fp2Add(&h, &t.y, &t.z)
	fp2Square(&h, &h)
	fp2Add(&u, &b, &c)
	fp2Sub(&h, &h, &u) // H = (Y+Z)² − B − C = 2YZ
	fp2Square(&j, &t.x)
	fp2Square(&ee, &e)

	// Line coefficients (before T moves).
	fp2Neg(&l.a, &h) // −H
	fp2Double(&l.b, &j)
	fp2Add(&l.b, &l.b, &j) // 3X²
	fp2Sub(&l.c, &e, &b)   // E − B

	// T = 2T.
	fp2Sub(&u, &b, &f)
	fp2Mul(&t.x, &a, &u) // X' = A(B − F)
	fp2Square(&t.y, &g)
	fp2Double(&u, &ee)
	fp2Add(&u, &u, &ee)
	fp2Sub(&t.y, &t.y, &u) // Y' = G² − 3E²
	fp2Mul(&t.z, &b, &h)   // Z' = BH
}

// addStep sets T = T + Q (Q affine) and l to the chord through them:
//
//	ℓ(P) = −λ·yP + θ·xP·w + (λ·yQ − θ·xQ)·v·w
//
// with θ = Y − yQ·Z, λ = X − xQ·Z. Returns false on the degenerate
// vertical-line case, which cannot occur for r-torsion inputs.
func addStep(t *g2Proj, l *lineCoeff, q *G2Point) bool {
	var theta, lambda, c, d, e, f, g, h, u fp2
	fp2Mul(&u, &q.y, &t.z)
	fp2Sub(&theta, &t.y, &u) // θ = Y − yQ·Z
	fp2Mul(&u, &q.x, &t.z)
	fp2Sub(&lambda, &t.x, &u) // λ = X − xQ·Z
	if lambda.isZero() {
		return false
	}
	fp2Square(&c, &theta)
	fp2Square(&d, &lambda)
	fp2Mul(&e, &lambda, &d)
	fp2Mul(&f, &t.z, &c)
	fp2Mul(&g, &t.x, &d)
	fp2Double(&u, &g)
	fp2Add(&h, &e, &f)
	fp2Sub(&h, &h, &u) // H = E + F − 2G

	// Line coefficients (use Q, not T).
	fp2Neg(&l.a, &lambda)
	l.b = theta
	var t0, t1 fp2
	fp2Mul(&t0, &lambda, &q.y)
	fp2Mul(&t1, &theta, &q.x)
	fp2Sub(&l.c, &t0, &t1) // λ·yQ − θ·xQ

	// T = T + Q.
	fp2Mul(&u, &t.y, &e)
	fp2Sub(&g, &g, &h)
	fp2Mul(&g, &theta, &g)
	fp2Sub(&t.y, &g, &u) // Y' = θ(G − H) − E·Y
	fp2Mul(&t.x, &lambda, &h)
	fp2Mul(&t.z, &t.z, &e)
	return true
}

// mulByLine multiplies f by the sparse line value
// r0 + (r1 + r2·v)·w, costing 15 fp2 multiplications instead of 18.
func mulByLine(f *fp12, l *lineEval) {
	var a, b, sum fp6
	var d0 fp2
	fp6MulByE2(&a, &f.c0, &l.r0)      // A·L0
	fp6Mul01(&b, &f.c1, &l.r1, &l.r2) // B·L1
	fp2Add(&d0, &l.r0, &l.r1)
	var s fp6
	fp6Add(&s, &f.c0, &f.c1)
	fp6Mul01(&sum, &s, &d0, &l.r2) // (A+B)(L0+L1)
	fp6Sub(&sum, &sum, &a)
	fp6Sub(&sum, &sum, &b) // A·L1 + B·L0
	var vb fp6
	fp6MulByNonresidue(&vb, &b)
	fp6Add(&f.c0, &a, &vb)
	f.c1 = sum
}

// psi applies the twist-Frobenius-untwist endomorphism to an affine twist
// point: ψ(x, y) = (x̄·ξ^((q−1)/3), ȳ·ξ^((q−1)/2)).
func psi(q *G2Point) G2Point {
	var r G2Point
	var t fp2
	fp2Conjugate(&t, &q.x)
	fp2Mul(&r.x, &t, &frobGamma1[2])
	fp2Conjugate(&t, &q.y)
	fp2Mul(&r.y, &t, &frobGamma1[3])
	return r
}

// psi2 applies ψ²: (x·ξ^((q²−1)/3), y·ξ^((q²−1)/2)).
func psi2(q *G2Point) G2Point {
	var r G2Point
	fp2Mul(&r.x, &q.x, &frobGamma2[2])
	fp2Mul(&r.y, &q.y, &frobGamma2[3])
	return r
}

// ateNAF is the loop count 6u+2 in non-adjacent form, least significant
// digit first: 22 nonzero digits below the leading one where the binary
// expansion has 36, so 14 fewer addition steps per loop. A −1 digit adds −Q;
// against the binary loop the value moves only by vertical lines, which lie
// in a proper subfield and die in the final exponentiation.
var ateNAF = wnaf(ateLoopCount, 2)

// ateLines is the number of lines in one optimal-ate Miller loop: a
// doubling per digit of 6u+2 below the top one, an addition per nonzero
// digit among them, and the two Frobenius correction steps.
var ateLines = func() int {
	n := len(ateNAF) - 1 + 2
	for _, d := range ateNAF[:len(ateNAF)-1] {
		if d != 0 {
			n++
		}
	}
	return n
}()

// prepareLines walks the Miller loop of a finite Q alone and records every
// line's coefficients in loop order. It returns nil on a degenerate line,
// which cannot occur for an r-torsion Q (every key is one: dealt, or
// through UnmarshalG2's subgroup check); callers then fail closed.
func prepareLines(q *G2Point) []lineCoeff {
	lines := make([]lineCoeff, 0, ateLines)
	t := g2Proj{x: q.x, y: q.y}
	t.z.setOne()
	var l lineCoeff
	add := func(q *G2Point) bool {
		if !addStep(&t, &l, q) {
			return false
		}
		lines = append(lines, l)
		return true
	}
	nq := *q
	fp2Neg(&nq.y, &nq.y)
	for i := len(ateNAF) - 2; i >= 0; i-- {
		doubleStep(&t, &l)
		lines = append(lines, l)
		if d := ateNAF[i]; d > 0 && !add(q) || d < 0 && !add(&nq) {
			return nil
		}
	}
	q1 := psi(q)
	nq2 := psi2(q)
	fp2Neg(&nq2.y, &nq2.y)
	if !add(&q1) || !add(&nq2) {
		return nil
	}
	return lines
}

// millerLoopLines computes Π_j f_{6u+2,Q_j}(P_j) in ONE pass over the loop
// (lines[j] are Q_j's prepared lines, P_j finite): the pairs share every
// squaring of f, and each step only evaluates the prepared lines at P_j.
func millerLoopLines(lines [][]lineCoeff, ps []G1Point) fp12 {
	var f fp12
	f.setOne()
	k := 0
	step := func() {
		var l lineEval
		for j := range lines {
			c := &lines[j][k]
			fp2MulByFp(&l.r0, &c.a, &ps[j].y)
			fp2MulByFp(&l.r1, &c.b, &ps[j].x)
			l.r2 = c.c
			mulByLine(&f, &l)
		}
		k++
	}
	for i := len(ateNAF) - 2; i >= 0; i-- {
		fp12Square(&f, &f)
		step()
		if ateNAF[i] != 0 {
			step()
		}
	}
	step()
	step()
	return f
}

// G2Prepared is a G2 point with the lines of its Miller loop computed
// ahead of time. A pairing check whose G2 arguments are fixed — a
// signature scheme's generator and public key — prepares them once and
// then pays, per check, only the evaluation of those lines at the G1
// arguments (PairingCheckPrepared).
type G2Prepared struct {
	inf   bool
	lines []lineCoeff // nil when q is infinity or hit a degenerate line
}

// PrepareG2 precomputes q's Miller-loop lines.
func PrepareG2(q G2Point) *G2Prepared {
	if q.Inf {
		return &G2Prepared{inf: true}
	}
	return &G2Prepared{lines: prepareLines(&q)}
}

// PairingCheckPrepared reports whether Π e(Pᵢ, Qᵢ) == 1: one Miller loop
// over all pairs, one final exponentiation. A finite Qᵢ without lines (a
// degenerate Miller line, so not an r-torsion point) fails the check.
func PairingCheckPrepared(ps []G1Point, qs []*G2Prepared) bool {
	if len(ps) != len(qs) {
		return false
	}
	lines := make([][]lineCoeff, 0, len(ps))
	args := make([]G1Point, 0, len(ps))
	for i, p := range ps {
		if p.Inf || qs[i].inf {
			continue // contributes 1
		}
		if qs[i].lines == nil {
			return false
		}
		lines = append(lines, qs[i].lines)
		args = append(args, p)
	}
	f := millerLoopLines(lines, args)
	e := finalExpFast(&f)
	return e.isOne()
}

// ateUNAF is u in width-4 non-adjacent form: 14 nonzero digits over the odd
// powers x, x³, x⁵, x⁷ (u's binary expansion has 28 ones).
var ateUNAF = wnaf(ateU, 4)

// expByU sets z = x^u for x in the cyclotomic subgroup, where squaring is
// the cheap cyclotomic one and inversion is conjugation: a negative digit
// costs the same multiplication as a positive one. 62 squarings and 16
// multiplications (3 for the table), against 27 for square-and-multiply.
func expByU(z, x *fp12) {
	var tab [4]fp12 // x, x³, x⁵, x⁷
	var x2, t fp12
	tab[0] = *x
	fp12CyclotomicSquare(&x2, x)
	for i := 1; i < len(tab); i++ {
		fp12Mul(&tab[i], &tab[i-1], &x2)
	}
	top := len(ateUNAF) - 1
	r := tab[ateUNAF[top]/2] // the leading digit is positive
	for i := top - 1; i >= 0; i-- {
		fp12CyclotomicSquare(&r, &r)
		switch d := ateUNAF[i]; {
		case d > 0:
			fp12Mul(&r, &r, &tab[d/2])
		case d < 0:
			fp12Conjugate(&t, &tab[-d/2])
			fp12Mul(&r, &r, &t)
		}
	}
	*z = r
}

// finalExpFast raises a Miller-loop output to (q¹²−1)/r: the easy part
// (q⁶−1)(q²+1) by conjugation, inversion and Frobenius, then the hard part
// (q⁴−q²+1)/r via the u-power decomposition of Devegili et al. (the
// schedule used by golang.org/x/crypto/bn256), with cyclotomic squarings.
// Verified against the reference full-exponent Pow in fast_test.go.
func finalExpFast(f *fp12) fp12 {
	// Easy part: t = f^((q⁶−1)(q²+1)).
	var t, inv, t2 fp12
	fp12Conjugate(&t, f)
	fp12Inv(&inv, f)
	fp12Mul(&t, &t, &inv)
	fp12FrobeniusSquare(&t2, &t)
	fp12Mul(&t, &t2, &t)

	// Hard part.
	var fq, fq2, fq3, fu, fu2, fu3, fu2p, fu3p fp12
	var y0, y1, y2, y3, y4, y5, y6, t0, t1 fp12
	fp12Frobenius(&fq, &t)
	fp12FrobeniusSquare(&fq2, &t)
	fp12FrobeniusCube(&fq3, &t)
	expByU(&fu, &t)
	expByU(&fu2, &fu)
	expByU(&fu3, &fu2)
	fp12Frobenius(&y3, &fu)
	fp12Frobenius(&fu2p, &fu2)
	fp12Frobenius(&fu3p, &fu3)
	fp12FrobeniusSquare(&y2, &fu2)

	fp12Mul(&y0, &fq, &fq2)
	fp12Mul(&y0, &y0, &fq3)
	fp12Conjugate(&y1, &t)
	fp12Conjugate(&y5, &fu2)
	fp12Conjugate(&y3, &y3)
	fp12Mul(&y4, &fu, &fu2p)
	fp12Conjugate(&y4, &y4)
	fp12Mul(&y6, &fu3, &fu3p)
	fp12Conjugate(&y6, &y6)

	fp12CyclotomicSquare(&t0, &y6)
	fp12Mul(&t0, &t0, &y4)
	fp12Mul(&t0, &t0, &y5)
	fp12Mul(&t1, &y3, &y5)
	fp12Mul(&t1, &t1, &t0)
	fp12Mul(&t0, &t0, &y2)
	fp12CyclotomicSquare(&t1, &t1)
	fp12Mul(&t1, &t1, &t0)
	fp12CyclotomicSquare(&t1, &t1)
	fp12Mul(&t0, &t1, &y1)
	fp12Mul(&t1, &t1, &y0)
	fp12CyclotomicSquare(&t0, &t0)
	fp12Mul(&t0, &t0, &t1)
	return t0
}
