// Package threshbls implements threshold BLS signatures over the
// from-scratch BN254 pairing — the scheme the SBFT paper deploys (§III,
// [22][23]): 33-byte-class signatures in G1, public keys in G2, share
// combination by Lagrange interpolation in the exponent with no extra
// rounds, and robustness via pairing verification of a share against its
// signer's public key — which a collector needs only to find the culprit
// after a combined signature failed to verify.
//
// A trusted dealer Shamir-shares the secret key over the scalar field
// (matching SBFT's permissioned PKI setup). Signature shares are
// σ_i = s_i·H(m) ∈ G1; any k of them interpolate to σ = s·H(m), verified
// by e(H(m), PK) == e(σ, g₂).
//
// Five collector-path optimizations keep pairings and full-width scalar
// multiplications off the hot path, or make the ones left cheaper (§III:
// "multiple signature shares ... validated at nearly the same cost of
// validating only one"):
//
//   - H(m) is memoized per digest, so the combination, its check and any
//     share verification for one slot hash to the curve once.
//   - Combine interpolates k unverified shares first and checks the
//     combined signature with one two-pairing product; shares are verified
//     one by one only when that check fails, to name the bad signers.
//   - The two G2 arguments of every signature check, g₂ and the group
//     public key, are fixed per scheme, so their Miller-loop line
//     coefficients are computed once at dealing time; a signer's key's
//     lines once, the first time one of its shares is verified.
//   - bn254 stores those lines divided by their constant coefficient, so
//     each check multiplies every line in with 10 Fq² products instead of
//     15, for one shared inversion of the G1 arguments' y.
//   - Interpolation clears the Lagrange denominators: one multi-scalar pass
//     over scalars a few bits wide, plus one full-width multiplication only
//     when the signer set has a gap (interpolate).
//
// CombineVerified (no check) and BatchVerifyShares (one two-pairing
// product over a random linear combination of the shares) remain for
// callers that hold verified shares or want shares checked without
// combining them.
package threshbls

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync"

	"sbft/internal/crypto/bn254"
	"sbft/internal/crypto/threshsig"
)

// Dealer generates threshold BLS instances.
type Dealer struct {
	// Rand is the entropy source (nil = crypto/rand.Reader).
	Rand io.Reader
}

var _ threshsig.Dealer = Dealer{}

// hashCacheLimit bounds the per-scheme H(m) memo; entries are evicted
// wholesale when it fills. Slots verify and combine shares over a handful
// of live digests, so the cache is effectively hot for all of them.
const hashCacheLimit = 1024

// Scheme is the public side of a (k, n) threshold BLS instance.
type Scheme struct {
	k, n   int
	pk     bn254.G2Point   // group public key s·g₂
	shares []bn254.G2Point // shares[i-1] = s_i·g₂, per-signer keys
	// Miller-loop lines of the two G2 arguments every signature check
	// uses, computed once at dealing time.
	pkLines, g2Lines *bn254.G2Prepared
	// shareLines[i-1] are signer i's key's lines, prepared the first time
	// one of its shares is verified (a failure-free run verifies none).
	shareLines []lazyLines

	mu        sync.Mutex
	hashCache map[string]bn254.G1Point
}

// lazyLines prepares one fixed G2 point's Miller-loop lines on first use.
type lazyLines struct {
	once  sync.Once
	lines *bn254.G2Prepared
}

func (l *lazyLines) get(q bn254.G2Point) *bn254.G2Prepared {
	l.once.Do(func() { l.lines = bn254.PrepareG2(q) })
	return l.lines
}

// Signer holds one Shamir share of the secret key.
type Signer struct {
	id int
	si *big.Int
}

// Deal implements threshsig.Dealer.
func (d Dealer) Deal(k, n int) (threshsig.Scheme, []threshsig.Signer, error) {
	if k < 1 || n < 1 || k > n {
		return nil, nil, fmt.Errorf("threshbls: invalid threshold k=%d n=%d", k, n)
	}
	rng := d.Rand
	if rng == nil {
		rng = rand.Reader
	}
	// Shamir polynomial over the scalar field.
	coeffs := make([]*big.Int, k)
	for i := range coeffs {
		c, err := rand.Int(rng, bn254.R)
		if err != nil {
			return nil, nil, fmt.Errorf("threshbls: sampling coefficient: %w", err)
		}
		coeffs[i] = c
	}
	g2 := bn254.G2Generator()
	sch := &Scheme{
		k:          k,
		n:          n,
		pk:         g2.ScalarMul(coeffs[0]),
		shares:     make([]bn254.G2Point, n),
		shareLines: make([]lazyLines, n),
		hashCache:  make(map[string]bn254.G1Point),
		g2Lines:    bn254.PrepareG2(g2),
	}
	sch.pkLines = bn254.PrepareG2(sch.pk)
	signers := make([]threshsig.Signer, n)
	for i := 1; i <= n; i++ {
		si := evalPoly(coeffs, big.NewInt(int64(i)))
		sch.shares[i-1] = g2.ScalarMul(si)
		signers[i-1] = &Signer{id: i, si: si}
	}
	return sch, signers, nil
}

func evalPoly(coeffs []*big.Int, x *big.Int) *big.Int {
	res := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		res.Mul(res, x)
		res.Add(res, coeffs[i])
		res.Mod(res, bn254.R)
	}
	return res
}

// ID implements threshsig.Signer.
func (s *Signer) ID() int { return s.id }

// Sign implements threshsig.Signer: σ_i = s_i · H(m).
func (s *Signer) Sign(digest []byte) (threshsig.Share, error) {
	h := bn254.HashToG1(digest)
	sig := h.ScalarMul(s.si)
	return threshsig.Share{Signer: s.id, Data: sig.Marshal()}, nil
}

var _ threshsig.Scheme = (*Scheme)(nil)

// Threshold implements threshsig.Scheme.
func (s *Scheme) Threshold() int { return s.k }

// N implements threshsig.Scheme.
func (s *Scheme) N() int { return s.n }

// hashToG1 memoizes bn254.HashToG1 per digest: every share verification
// and combination over one slot's digest shares the hash-to-curve work.
func (s *Scheme) hashToG1(digest []byte) bn254.G1Point {
	key := string(digest)
	s.mu.Lock()
	if p, ok := s.hashCache[key]; ok {
		s.mu.Unlock()
		return p
	}
	s.mu.Unlock()
	p := bn254.HashToG1(digest)
	s.mu.Lock()
	if len(s.hashCache) >= hashCacheLimit {
		clear(s.hashCache)
	}
	s.hashCache[key] = p
	s.mu.Unlock()
	return p
}

// VerifyShare implements threshsig.Scheme: e(H(m), pk_i) == e(σ_i, g₂),
// checked as e(H(m), pk_i)·e(−σ_i, g₂) == 1.
func (s *Scheme) VerifyShare(digest []byte, share threshsig.Share) error {
	if share.Signer < 1 || share.Signer > s.n {
		return fmt.Errorf("%w: signer %d, n=%d", threshsig.ErrBadSignerID, share.Signer, s.n)
	}
	sig, ok := bn254.UnmarshalG1(share.Data)
	if !ok {
		return fmt.Errorf("%w: not a G1 point", threshsig.ErrInvalidShare)
	}
	h := s.hashToG1(digest)
	i := share.Signer - 1
	if !bn254.PairingCheckPrepared(
		[]bn254.G1Point{h, sig.Neg()},
		[]*bn254.G2Prepared{s.shareLines[i].get(s.shares[i]), s.g2Lines},
	) {
		return fmt.Errorf("%w: signer %d", threshsig.ErrInvalidShare, share.Signer)
	}
	return nil
}

// BatchVerifyShares checks every share in one pairing product instead of
// one pairing check per share: with random 128-bit scalars r_i,
//
//	e(H(m), Σ r_i·pk_i) == e(Σ r_i·σ_i, g₂)
//
// holds for honest shares and fails with probability ≥ 1 − 2⁻¹²⁸ if any
// share is invalid. On failure it falls back to per-share verification and
// returns the first offending signer's error.
func (s *Scheme) BatchVerifyShares(digest []byte, shares []threshsig.Share) error {
	for _, sh := range shares {
		if sh.Signer < 1 || sh.Signer > s.n {
			return fmt.Errorf("%w: signer %d, n=%d", threshsig.ErrBadSignerID, sh.Signer, s.n)
		}
	}
	ids, points, err := parsePoints(shares)
	if err != nil {
		return err
	}
	return s.batchVerifyParsed(digest, shares, ids, points)
}

// batchVerifyParsed is BatchVerifyShares over already-parsed points, so
// combination paths unmarshal each share only once. shares is kept for
// the per-share blame fallback.
func (s *Scheme) batchVerifyParsed(digest []byte, shares []threshsig.Share, ids []int, points []bn254.G1Point) error {
	if len(shares) == 0 {
		return nil
	}
	if len(shares) == 1 {
		return s.VerifyShare(digest, shares[0])
	}
	bound := new(big.Int).Lsh(big.NewInt(1), 128)
	rs := make([]*big.Int, len(points))
	pkSum := bn254.G2Infinity()
	for i := range points {
		r, err := rand.Int(rand.Reader, bound)
		if err != nil {
			return fmt.Errorf("threshbls: sampling batch scalar: %w", err)
		}
		rs[i] = r
		pkSum = pkSum.Add(s.shares[ids[i]-1].ScalarMul(r))
	}
	sigSum := bn254.G1MultiScalarMul(points, rs)
	h := s.hashToG1(digest)
	if bn254.PairingCheckPrepared(
		[]bn254.G1Point{h, sigSum.Neg()},
		[]*bn254.G2Prepared{bn254.PrepareG2(pkSum), s.g2Lines},
	) {
		return nil
	}
	// Identify the bad signer (robustness, §III).
	for _, sh := range shares {
		if err := s.VerifyShare(digest, sh); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w: batch verification failed", threshsig.ErrInvalidShare)
}

// parsePoints unmarshals sorted shares into ids and G1 points.
func parsePoints(shares []threshsig.Share) ([]int, []bn254.G1Point, error) {
	ids := make([]int, len(shares))
	points := make([]bn254.G1Point, len(shares))
	for i, sh := range shares {
		p, ok := bn254.UnmarshalG1(sh.Data)
		if !ok {
			return nil, nil, fmt.Errorf("%w: signer %d: not a G1 point", threshsig.ErrInvalidShare, sh.Signer)
		}
		ids[i] = sh.Signer
		points[i] = p
	}
	return ids, points, nil
}

// interpolate combines shares in the exponent: σ = Σ λ_i(0)·σ_i with the
// Lagrange coefficients λ_i(0) = Π_{j≠i} j/(j−i). Reduced mod R a quotient
// is a full-width scalar, but as a fraction n_i/d_i in lowest terms it is a
// few bits over a few bits for the paper's n, so the denominators are
// cleared instead: with L = lcm(d_i),
//
//	σ = L⁻¹ · Σ (n_i·L/d_i)·σ_i
//
// is one multi-scalar pass over short scalars and, unless L = 1, one
// full-width multiplication, whatever k is. (L = 1 whenever the ids are
// consecutive — every n-of-n combination — because the λ_i are then signed
// multinomial coefficients. Past a few dozen signers the scalars reach full
// width and the pass is an ordinary Straus one.)
func interpolate(ids []int, points []bn254.G1Point) threshsig.Signature {
	fracs := make([]big.Int, 2*len(ids)) // n_i at 2i, d_i at 2i+1
	nums := make([]*big.Int, len(ids))
	one, lcm := big.NewInt(1), big.NewInt(1)
	var t, g big.Int
	for i, id := range ids {
		n, d := fracs[2*i].SetInt64(1), fracs[2*i+1].SetInt64(1)
		for _, j := range ids {
			if j != id {
				n.Mul(n, t.SetInt64(int64(j)))
				d.Mul(d, t.SetInt64(int64(j-id)))
			}
		}
		g.GCD(nil, nil, n, t.Abs(d))
		nums[i] = n.Quo(n, &g)
		if t.Abs(d.Quo(d, &g)).Cmp(one) == 0 {
			continue // nothing to clear
		}
		g.GCD(nil, nil, lcm, &t)
		lcm.Mul(lcm, &t).Quo(lcm, &g)
	}
	for i, n := range nums {
		n.Mul(n, t.Quo(lcm, &fracs[2*i+1]))
	}
	sum := bn254.G1MultiScalarMul(points, nums)
	if lcm.Cmp(one) == 0 {
		return threshsig.Signature{Data: sum.Marshal()}
	}
	return threshsig.Signature{Data: sum.ScalarMul(lcm.ModInverse(lcm, bn254.R)).Marshal()}
}

// Combine implements threshsig.Scheme: interpolate the k lowest-id shares
// in the exponent, then check the combined signature — two pairings for
// the whole quorum. Only when that check fails (or a share is not even a
// curve point) are the shares verified one by one, all of them, so the
// error names every bad signer the caller holds (robustness, §III).
func (s *Scheme) Combine(digest []byte, shares []threshsig.Share) (threshsig.Signature, error) {
	sorted, err := threshsig.CheckShares(s.k, s.n, shares)
	if err != nil {
		return threshsig.Signature{}, err
	}
	if sig, err := s.CombineVerified(digest, sorted); err == nil && s.Verify(digest, sig) == nil {
		return sig, nil
	}
	return threshsig.Signature{}, threshsig.Blame(s, digest, sorted)
}

// CombineVerified implements threshsig.Scheme: like Combine but with no
// check at all — zero pairings. The caller attests that every share passes
// VerifyShare for this digest.
func (s *Scheme) CombineVerified(digest []byte, shares []threshsig.Share) (threshsig.Signature, error) {
	sorted, err := threshsig.CheckShares(s.k, s.n, shares)
	if err != nil {
		return threshsig.Signature{}, err
	}
	sorted = sorted[:s.k]
	ids, points, err := parsePoints(sorted)
	if err != nil {
		return threshsig.Signature{}, err
	}
	_ = digest // shares are pre-verified against this digest by contract
	return interpolate(ids, points), nil
}

// Verify implements threshsig.Scheme: e(H(m), PK) == e(σ, g₂).
func (s *Scheme) Verify(digest []byte, sig threshsig.Signature) error {
	p, ok := bn254.UnmarshalG1(sig.Data)
	if !ok {
		return threshsig.ErrInvalidSignature
	}
	h := s.hashToG1(digest)
	if !bn254.PairingCheckPrepared(
		[]bn254.G1Point{h, p.Neg()},
		[]*bn254.G2Prepared{s.pkLines, s.g2Lines},
	) {
		return threshsig.ErrInvalidSignature
	}
	return nil
}
