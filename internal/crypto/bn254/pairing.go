package bn254

import "math/big"

// lineFunc evaluates the line through p1 and p2 at t (all in Fq¹²
// coordinates): the Miller-loop building block.
func lineFunc(p1, p2, t g12Point) FQP {
	if !p1.X.Equal(p2.X) {
		// Chord.
		m := p2.Y.Sub(p1.Y).Mul(p2.X.Sub(p1.X).Inv())
		return m.Mul(t.X.Sub(p1.X)).Sub(t.Y.Sub(p1.Y))
	}
	if p1.Y.Equal(p2.Y) {
		// Tangent.
		three := FqToFq12(FqFromInt64(3))
		m := p1.X.Mul(p1.X).Mul(three).Mul(p1.Y.Add(p1.Y).Inv())
		return m.Mul(t.X.Sub(p1.X)).Sub(t.Y.Sub(p1.Y))
	}
	// Vertical line.
	return t.X.Sub(p1.X)
}

// millerLoop computes f_{6u+2, Q}(P) with the two Frobenius correction
// steps of the optimal ate pairing.
func millerLoop(q, p g12Point) FQP {
	if q.Inf || p.Inf {
		return Fq12One()
	}
	f := Fq12One()
	r := q
	for i := ateLoopCount.BitLen() - 2; i >= 0; i-- {
		f = f.Mul(f).Mul(lineFunc(r, r, p))
		r = r.double()
		if ateLoopCount.Bit(i) == 1 {
			f = f.Mul(lineFunc(r, q, p))
			r = r.add(q)
		}
	}
	q1 := q.frobenius()
	nq2 := q1.frobenius().neg()
	f = f.Mul(lineFunc(r, q1, p))
	r = r.add(q1)
	f = f.Mul(lineFunc(r, nq2, p))
	return f
}

// finalExponent is (q¹² − 1) / r.
var finalExponent = func() *big.Int {
	q12 := new(big.Int).Exp(Q, big.NewInt(12), nil)
	q12.Sub(q12, big.NewInt(1))
	return q12.Div(q12, R)
}()

// Pair computes the optimal ate pairing e(P, Q) ∈ Fq¹² for P ∈ G1 and
// Q ∈ G2. The result lies in the order-r subgroup of Fq¹²; e is bilinear
// and non-degenerate (property-tested in pairing_test.go). It runs on the
// fixed-limb projective path (pairing_fast.go); pairReference retains the
// auditable affine implementation as the oracle.
func Pair(p G1Point, q G2Point) FQP {
	if p.Inf || q.Inf {
		return Fq12One()
	}
	qa := g2AffineFromPoint(q)
	lines, ok := prepareLines(&qa)
	if !ok {
		return pairReference(p, q)
	}
	f := millerLoopLines([][]lineCoeff{lines}, []g1Arg{{fpFromBig(p.X.v), fpFromBig(p.Y.v)}})
	e := finalExpFast(&f)
	return e.toFQP()
}

// pairReference is the retained math/big pairing, the differential oracle
// for the fast path.
func pairReference(p G1Point, q G2Point) FQP {
	if p.Inf || q.Inf {
		return Fq12One()
	}
	f := millerLoop(q.twist(), p.embed())
	return f.Pow(finalExponent)
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

// pairingCheckReference is the retained math/big product-of-pairings
// check, the differential oracle for the fast path.
func pairingCheckReference(ps []G1Point, qs []G2Point) bool {
	if len(ps) != len(qs) {
		return false
	}
	acc := Fq12One()
	for i := range ps {
		if ps[i].Inf || qs[i].Inf {
			continue
		}
		acc = acc.Mul(millerLoop(qs[i].twist(), ps[i].embed()))
	}
	return acc.Pow(finalExponent).Equal(Fq12One())
}
