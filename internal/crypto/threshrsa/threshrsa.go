// Package threshrsa implements Shoup's practical threshold RSA signatures
// (EUROCRYPT 2000), the robust non-interactive threshold scheme the SBFT
// paper cites as the classic alternative to threshold BLS (§III, [67]).
//
// A trusted dealer (matching SBFT's permissioned PKI setup) generates an
// RSA modulus N = pq with p = 2p'+1 and q = 2q'+1 safe primes, and Shamir
// shares the private exponent d over Z_m, m = p'q'. Signature shares are
// x_i = x^{2Δs_i} mod N with Δ = n! and carry a Chaum–Pedersen style proof
// of correctness, making the scheme robust: bad shares are filtered before
// combination. Any k valid shares interpolate (in the exponent, with
// integer Lagrange coefficients scaled by Δ) to w with w^e = x^{4Δ²}; the
// final signature y with y^e = x follows from gcd(4Δ², e) = 1 via the
// extended Euclidean algorithm.
//
// Everything is stdlib (math/big, crypto/rand, crypto/sha256).
package threshrsa

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"sbft/internal/crypto/threshsig"
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// DefaultModulusBits is the RSA modulus size used by Dealer when none is
// configured. 2048 bits matches the security level the paper compares BLS
// against; safe-prime generation at this size takes tens of seconds, so
// tests use smaller moduli.
const DefaultModulusBits = 2048

// Dealer generates threshold RSA instances.
type Dealer struct {
	// ModulusBits is the size of N. Zero means DefaultModulusBits.
	ModulusBits int
	// Rand is the entropy source. Nil means crypto/rand.Reader.
	Rand io.Reader
}

var _ threshsig.Dealer = Dealer{}

// Scheme is the public side of a dealt threshold RSA instance.
type Scheme struct {
	k, n  int
	nMod  *big.Int   // RSA modulus N
	e     *big.Int   // public exponent
	v     *big.Int   // verification base, generator of QR_N
	vks   []*big.Int // vks[i-1] = v^{s_i}, per-signer verification keys
	delta *big.Int   // Δ = n!
}

// Signer holds one share s_i of the private exponent.
type Signer struct {
	id     int
	scheme *Scheme
	si     *big.Int
	rand   io.Reader
}

// Deal implements threshsig.Dealer.
func (d Dealer) Deal(k, n int) (threshsig.Scheme, []threshsig.Signer, error) {
	if k < 1 || n < 1 || k > n {
		return nil, nil, fmt.Errorf("threshrsa: invalid threshold k=%d n=%d", k, n)
	}
	bits := d.ModulusBits
	if bits == 0 {
		bits = DefaultModulusBits
	}
	rng := d.Rand
	if rng == nil {
		rng = rand.Reader
	}

	pp, p, err := safePrime(rng, bits/2)
	if err != nil {
		return nil, nil, fmt.Errorf("threshrsa: generating p: %w", err)
	}
	var qp, q *big.Int
	for {
		qp, q, err = safePrime(rng, bits-bits/2)
		if err != nil {
			return nil, nil, fmt.Errorf("threshrsa: generating q: %w", err)
		}
		if p.Cmp(q) != 0 {
			break
		}
	}
	nMod := new(big.Int).Mul(p, q)
	m := new(big.Int).Mul(pp, qp) // order of QR_N

	// Public exponent: a prime larger than n so it cannot divide Δ = n!.
	e := big.NewInt(65537)
	if int64(n) >= e.Int64() {
		return nil, nil, fmt.Errorf("threshrsa: n=%d too large for fixed e", n)
	}
	dExp := new(big.Int).ModInverse(e, m)
	if dExp == nil {
		return nil, nil, fmt.Errorf("threshrsa: e not invertible mod m")
	}

	// Shamir-share d over Z_m with a degree k-1 polynomial.
	coeffs := make([]*big.Int, k)
	coeffs[0] = dExp
	for i := 1; i < k; i++ {
		c, err := rand.Int(rng, m)
		if err != nil {
			return nil, nil, fmt.Errorf("threshrsa: sampling coefficient: %w", err)
		}
		coeffs[i] = c
	}
	shares := make([]*big.Int, n)
	for i := 1; i <= n; i++ {
		shares[i-1] = evalPoly(coeffs, big.NewInt(int64(i)), m)
	}

	// Verification base v: a random square generates QR_N with
	// overwhelming probability (QR_N is cyclic of order p'q').
	u, err := rand.Int(rng, nMod)
	if err != nil {
		return nil, nil, fmt.Errorf("threshrsa: sampling v: %w", err)
	}
	v := new(big.Int).Exp(u, two, nMod)

	sch := &Scheme{
		k:     k,
		n:     n,
		nMod:  nMod,
		e:     e,
		v:     v,
		vks:   make([]*big.Int, n),
		delta: factorial(n),
	}
	for i := 1; i <= n; i++ {
		sch.vks[i-1] = new(big.Int).Exp(v, shares[i-1], nMod)
	}
	signers := make([]threshsig.Signer, n)
	for i := 1; i <= n; i++ {
		signers[i-1] = &Signer{id: i, scheme: sch, si: shares[i-1], rand: rng}
	}
	return sch, signers, nil
}

// safePrime returns (p', p) with p = 2p'+1, both prime, p of the given bit
// length.
func safePrime(rng io.Reader, bits int) (pp, p *big.Int, err error) {
	for {
		pp, err = rand.Prime(rng, bits-1)
		if err != nil {
			return nil, nil, err
		}
		p = new(big.Int).Lsh(pp, 1)
		p.Add(p, one)
		if p.ProbablyPrime(20) {
			return pp, p, nil
		}
	}
}

func evalPoly(coeffs []*big.Int, x, mod *big.Int) *big.Int {
	res := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		res.Mul(res, x)
		res.Add(res, coeffs[i])
		res.Mod(res, mod)
	}
	return res
}

func factorial(n int) *big.Int {
	f := big.NewInt(1)
	for i := 2; i <= n; i++ {
		f.Mul(f, big.NewInt(int64(i)))
	}
	return f
}

// digestToQR maps a digest into QR_N by hashing into Z_N and squaring.
func (s *Scheme) digestToQR(digest []byte) *big.Int {
	// Expand the digest with counters until we cover len(N) bytes, then
	// reduce mod N and square. Deterministic and collision-resistant up
	// to SHA-256 strength.
	need := (s.nMod.BitLen() + 7) / 8
	var buf []byte
	for ctr := uint32(0); len(buf) < need+8; ctr++ {
		h := sha256.New()
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		h.Write(cb[:])
		h.Write(digest)
		buf = h.Sum(buf)
	}
	x := new(big.Int).SetBytes(buf[:need])
	x.Mod(x, s.nMod)
	x.Mul(x, x)
	x.Mod(x, s.nMod)
	return x
}

// ID implements threshsig.Signer.
func (sg *Signer) ID() int { return sg.id }

// Sign implements threshsig.Signer. The share is x^{2Δs_i} together with a
// non-interactive proof of equality of discrete logs binding the share to
// the signer's verification key.
func (sg *Signer) Sign(digest []byte) (threshsig.Share, error) {
	s := sg.scheme
	x := s.digestToQR(digest)

	exp := new(big.Int).Lsh(sg.si, 1) // 2 s_i
	exp.Mul(exp, s.delta)             // 2 Δ s_i
	xi := new(big.Int).Exp(x, exp, s.nMod)

	// Chaum–Pedersen proof for log_v(v_i) = log_{x4Δ}(x_i²) = s_i.
	x4d := new(big.Int).Exp(x, new(big.Int).Lsh(s.delta, 2), s.nMod) // x^{4Δ}
	xi2 := new(big.Int).Exp(xi, two, s.nMod)

	// r is sampled from [0, 2^{L(N)+2*L1} ) to statistically hide s_i.
	bound := new(big.Int).Lsh(one, uint(s.nMod.BitLen())+2*proofHashBits)
	r, err := rand.Int(sg.rand, bound)
	if err != nil {
		return threshsig.Share{}, fmt.Errorf("threshrsa: sampling proof nonce: %w", err)
	}
	vr := new(big.Int).Exp(s.v, r, s.nMod)
	xr := new(big.Int).Exp(x4d, r, s.nMod)
	c := proofChallenge(s.v, x4d, s.vks[sg.id-1], xi2, vr, xr)
	z := new(big.Int).Mul(c, sg.si)
	z.Add(z, r)

	return threshsig.Share{Signer: sg.id, Data: encodeShare(xi, c, z)}, nil
}

// proofHashBits is the challenge length of the share-correctness proof.
const proofHashBits = 256

func proofChallenge(vals ...*big.Int) *big.Int {
	h := sha256.New()
	for _, v := range vals {
		b := v.Bytes()
		var lb [4]byte
		binary.BigEndian.PutUint32(lb[:], uint32(len(b)))
		h.Write(lb[:])
		h.Write(b)
	}
	return new(big.Int).SetBytes(h.Sum(nil))
}

var _ threshsig.Scheme = (*Scheme)(nil)

// Threshold implements threshsig.Scheme.
func (s *Scheme) Threshold() int { return s.k }

// N implements threshsig.Scheme.
func (s *Scheme) N() int { return s.n }

// VerifyShare implements threshsig.Scheme. It checks the Chaum–Pedersen
// proof carried in the share.
func (s *Scheme) VerifyShare(digest []byte, share threshsig.Share) error {
	if share.Signer < 1 || share.Signer > s.n {
		return fmt.Errorf("%w: signer %d, n=%d", threshsig.ErrBadSignerID, share.Signer, s.n)
	}
	xi, c, z, err := decodeShare(share.Data)
	if err != nil {
		return fmt.Errorf("%w: %v", threshsig.ErrInvalidShare, err)
	}
	x := s.digestToQR(digest)
	x4d := new(big.Int).Exp(x, new(big.Int).Lsh(s.delta, 2), s.nMod)
	xi2 := new(big.Int).Exp(xi, two, s.nMod)
	vi := s.vks[share.Signer-1]

	// Recompute the commitments: v^z v_i^{-c} and x4d^z x_i^{-2c}.
	vz := new(big.Int).Exp(s.v, z, s.nMod)
	vic := new(big.Int).Exp(vi, c, s.nMod)
	vicInv := new(big.Int).ModInverse(vic, s.nMod)
	if vicInv == nil {
		return fmt.Errorf("%w: degenerate verification key", threshsig.ErrInvalidShare)
	}
	vr := vz.Mul(vz, vicInv)
	vr.Mod(vr, s.nMod)

	xz := new(big.Int).Exp(x4d, z, s.nMod)
	xic := new(big.Int).Exp(xi2, c, s.nMod)
	xicInv := new(big.Int).ModInverse(xic, s.nMod)
	if xicInv == nil {
		return fmt.Errorf("%w: non-invertible share", threshsig.ErrInvalidShare)
	}
	xr := xz.Mul(xz, xicInv)
	xr.Mod(xr, s.nMod)

	if proofChallenge(s.v, x4d, vi, xi2, vr, xr).Cmp(c) != 0 {
		return fmt.Errorf("%w: proof of correctness failed for signer %d", threshsig.ErrInvalidShare, share.Signer)
	}
	return nil
}

// Combine implements threshsig.Scheme: interpolate, self-check the RSA
// signature once, and verify the shares' Chaum–Pedersen proofs only when
// that check fails, to name the bad signers.
func (s *Scheme) Combine(digest []byte, shares []threshsig.Share) (threshsig.Signature, error) {
	sorted, err := threshsig.CheckShares(s.k, s.n, shares)
	if err != nil {
		return threshsig.Signature{}, err
	}
	sig, err := s.CombineVerified(digest, sorted)
	if err != nil {
		return threshsig.Signature{}, threshsig.Blame(s, digest, sorted)
	}
	return sig, nil
}

// CombineVerified implements threshsig.Scheme: the caller attests the
// shares' Chaum–Pedersen proofs were already checked, so only the
// interpolation runs (the combined signature is still self-checked, which
// costs one RSA verification rather than k proof verifications).
func (s *Scheme) CombineVerified(digest []byte, shares []threshsig.Share) (threshsig.Signature, error) {
	sorted, err := threshsig.CheckShares(s.k, s.n, shares)
	if err != nil {
		return threshsig.Signature{}, err
	}
	sorted = sorted[:s.k]
	ids := make([]int, s.k)
	xis := make([]*big.Int, s.k)
	for i, sh := range sorted {
		xi, _, _, err := decodeShare(sh.Data)
		if err != nil {
			return threshsig.Signature{}, fmt.Errorf("%w: %v", threshsig.ErrInvalidShare, err)
		}
		ids[i] = sh.Signer
		xis[i] = xi
	}

	x := s.digestToQR(digest)
	// w = Π x_i^{2 λ_{0,i}} where λ_{0,i} = Δ Π_{j≠i} j/(j-i) is an
	// integer. Then w^e = x^{4Δ²}.
	w := big.NewInt(1)
	for i, id := range ids {
		lam := s.lagrange0(ids, id)
		exp := new(big.Int).Lsh(lam, 1) // 2λ
		t := new(big.Int)
		if exp.Sign() < 0 {
			inv := new(big.Int).ModInverse(xis[i], s.nMod)
			if inv == nil {
				return threshsig.Signature{}, fmt.Errorf("%w: non-invertible share from %d", threshsig.ErrInvalidShare, id)
			}
			t.Exp(inv, new(big.Int).Neg(exp), s.nMod)
		} else {
			t.Exp(xis[i], exp, s.nMod)
		}
		w.Mul(w, t)
		w.Mod(w, s.nMod)
	}

	// gcd(4Δ², e) = 1 since e is an odd prime > n. Find a, b with
	// a·4Δ² + b·e = 1; the signature is y = w^a x^b, y^e = x.
	ePrime := new(big.Int).Mul(s.delta, s.delta)
	ePrime.Lsh(ePrime, 2)
	g, a, b := new(big.Int), new(big.Int), new(big.Int)
	g.GCD(a, b, ePrime, s.e)
	if g.Cmp(one) != 0 {
		return threshsig.Signature{}, fmt.Errorf("threshrsa: gcd(4Δ², e) != 1")
	}
	y := new(big.Int)
	if a.Sign() < 0 {
		winv := new(big.Int).ModInverse(w, s.nMod)
		if winv == nil {
			return threshsig.Signature{}, fmt.Errorf("threshrsa: non-invertible w")
		}
		y.Exp(winv, new(big.Int).Neg(a), s.nMod)
	} else {
		y.Exp(w, a, s.nMod)
	}
	xb := new(big.Int)
	if b.Sign() < 0 {
		xinv := new(big.Int).ModInverse(x, s.nMod)
		if xinv == nil {
			return threshsig.Signature{}, fmt.Errorf("threshrsa: non-invertible x")
		}
		xb.Exp(xinv, new(big.Int).Neg(b), s.nMod)
	} else {
		xb.Exp(x, b, s.nMod)
	}
	y.Mul(y, xb)
	y.Mod(y, s.nMod)

	sig := threshsig.Signature{Data: y.Bytes()}
	if err := s.Verify(digest, sig); err != nil {
		return threshsig.Signature{}, fmt.Errorf("threshrsa: combined signature failed self-check: %w", err)
	}
	return sig, nil
}

// lagrange0 computes λ_{0,i} = Δ · Π_{j∈S, j≠i} j / (j - i), an integer.
func (s *Scheme) lagrange0(set []int, i int) *big.Int {
	num := new(big.Int).Set(s.delta)
	den := big.NewInt(1)
	for _, j := range set {
		if j == i {
			continue
		}
		num.Mul(num, big.NewInt(int64(j)))
		den.Mul(den, big.NewInt(int64(j-i)))
	}
	return num.Quo(num, den)
}

// Verify implements threshsig.Scheme: y^e == H(digest)² mod N.
func (s *Scheme) Verify(digest []byte, sig threshsig.Signature) error {
	y := new(big.Int).SetBytes(sig.Data)
	if y.Sign() <= 0 || y.Cmp(s.nMod) >= 0 {
		return threshsig.ErrInvalidSignature
	}
	x := s.digestToQR(digest)
	if new(big.Int).Exp(y, s.e, s.nMod).Cmp(x) != 0 {
		return threshsig.ErrInvalidSignature
	}
	return nil
}

// encodeShare serializes (x_i, c, z) with 4-byte length prefixes.
func encodeShare(vals ...*big.Int) []byte {
	var out []byte
	for _, v := range vals {
		b := v.Bytes()
		var lb [4]byte
		binary.BigEndian.PutUint32(lb[:], uint32(len(b)))
		out = append(out, lb[:]...)
		out = append(out, b...)
	}
	return out
}

func decodeShare(data []byte) (xi, c, z *big.Int, err error) {
	vals := make([]*big.Int, 0, 3)
	for len(data) > 0 {
		if len(data) < 4 {
			return nil, nil, nil, fmt.Errorf("truncated share")
		}
		l := binary.BigEndian.Uint32(data[:4])
		data = data[4:]
		if uint32(len(data)) < l {
			return nil, nil, nil, fmt.Errorf("truncated share value")
		}
		vals = append(vals, new(big.Int).SetBytes(data[:l]))
		data = data[l:]
	}
	if len(vals) != 3 {
		return nil, nil, nil, fmt.Errorf("expected 3 values, got %d", len(vals))
	}
	return vals[0], vals[1], vals[2], nil
}
