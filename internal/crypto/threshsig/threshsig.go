// Package threshsig defines the threshold-signature abstraction used by the
// SBFT replication protocol (paper §III).
//
// SBFT uses three independent threshold schemes per deployment: σ with
// threshold 3f+c+1, τ with threshold 2f+c+1 and π with threshold f+1. For a
// threshold k out of n signers, any k valid signature shares on the same
// digest combine into a single constant-size signature verifiable with one
// public key. Schemes must be robust: invalid shares from malicious signers
// are detectable. Combine uses that optimistically — it checks the combined
// signature once and verifies shares one by one only when that check fails,
// naming the culprits in a *BadSharesError.
//
// The production implementation is the sibling package threshbls:
// threshold BLS over a from-scratch BN254 pairing, the scheme the paper
// deploys (64-byte uncompressed signatures here, batch verification).
//
// The Insecure scheme in this package is a hash-based stand-in for protocol
// tests and simulations where cryptographic strength is irrelevant but
// threshold semantics must hold. It must never be used outside tests and
// simulations.
package threshsig

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sort"
	"sync"
)

// Common errors returned by Scheme implementations.
var (
	ErrInvalidShare     = errors.New("threshsig: invalid signature share")
	ErrInvalidSignature = errors.New("threshsig: invalid signature")
	ErrNotEnoughShares  = errors.New("threshsig: not enough shares to combine")
	ErrBadSignerID      = errors.New("threshsig: signer id out of range")
	ErrDuplicateShare   = errors.New("threshsig: duplicate share from same signer")
)

// BadSharesError is the blame verdict of a failed Combine: the combined
// signature did not verify, and Signers lists exactly the signers among
// the shares passed in whose share fails VerifyShare, in ascending order.
// It matches ErrInvalidShare under errors.Is.
type BadSharesError struct {
	Signers []int
}

func (e *BadSharesError) Error() string {
	return fmt.Sprintf("%v from signers %v", ErrInvalidShare, e.Signers)
}

func (e *BadSharesError) Unwrap() error { return ErrInvalidShare }

// Blame is the fallback every Combine runs after its one check of the
// combined signature failed: it verifies shares (sorted by signer, as
// CheckShares returns them) individually and names those that fail.
func Blame(s Scheme, digest []byte, shares []Share) error {
	var bad []int
	for _, sh := range shares {
		if s.VerifyShare(digest, sh) != nil {
			bad = append(bad, sh.Signer)
		}
	}
	if len(bad) == 0 {
		return fmt.Errorf("%w: every share verifies but their combination does not", ErrInvalidSignature)
	}
	return &BadSharesError{Signers: bad}
}

// Share is a signature share produced by one signer over a digest. Signer
// ids are 1-based, matching the replica identifiers in the paper (§V-B).
type Share struct {
	Signer int
	Data   []byte
}

// Signature is a combined threshold signature, verifiable with the scheme's
// single public key.
type Signature struct {
	Data []byte
}

// Signer produces signature shares for a single key-share holder.
type Signer interface {
	// ID reports this signer's 1-based identifier.
	ID() int
	// Sign produces this signer's share over digest.
	Sign(digest []byte) (Share, error)
}

// Scheme is the public side of a (k, n) threshold signature scheme.
type Scheme interface {
	// Threshold reports k, the number of shares needed to combine.
	Threshold() int
	// N reports the total number of signers.
	N() int
	// VerifyShare checks that share is a valid share over digest from the
	// claimed signer. Robustness: a share passing VerifyShare always
	// contributes to a valid combined signature.
	VerifyShare(digest []byte, share Share) error
	// Combine merges at least Threshold() distinct UNVERIFIED shares over
	// the same digest into a single signature. This is the collector path
	// (§III): it combines first, checks the result once with Verify, and
	// only if that fails verifies every share passed in and returns a
	// *BadSharesError naming the bad signers — so a returned signature
	// always verifies, and a failure-free quorum costs one signature
	// check however many shares it holds.
	Combine(digest []byte, shares []Share) (Signature, error)
	// CombineVerified merges at least Threshold() distinct shares with no
	// check at all, for callers that already know every share passes
	// VerifyShare against this digest. Passing unverified shares may
	// yield a signature that fails Verify.
	CombineVerified(digest []byte, shares []Share) (Signature, error)
	// Verify checks a combined signature over digest.
	Verify(digest []byte, sig Signature) error
}

// Dealer generates a full (k, n) scheme instance: the public scheme plus
// one Signer per participant. Centralized dealing matches the permissioned
// setting of the paper (PKI setup, §III).
type Dealer interface {
	Deal(k, n int) (Scheme, []Signer, error)
}

// CheckShares performs the generic validation shared by Combine
// implementations: enough shares, no duplicates, ids in range. It returns
// the shares sorted by signer id.
func CheckShares(k, n int, shares []Share) ([]Share, error) {
	if len(shares) < k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(shares), k)
	}
	sorted := make([]Share, len(shares))
	copy(sorted, shares)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Signer < sorted[j].Signer })
	for i, s := range sorted {
		if s.Signer < 1 || s.Signer > n {
			return nil, fmt.Errorf("%w: signer %d, n=%d", ErrBadSignerID, s.Signer, n)
		}
		if i > 0 && sorted[i-1].Signer == s.Signer {
			return nil, fmt.Errorf("%w: signer %d", ErrDuplicateShare, s.Signer)
		}
	}
	return sorted, nil
}

// InsecureScheme is a deterministic hash-based threshold scheme for tests
// and simulations. A share is HMAC(secret_i, digest); a combined signature
// is the hash of the k lowest-id distinct valid shares' signer set together
// with a MAC under a scheme-wide secret. It has threshold semantics (k
// distinct shares required, duplicate and out-of-range shares rejected) but
// no cryptographic strength against an adversary who reads process memory —
// acceptable in-process, matching the simulation substitution in DESIGN.md.
type InsecureScheme struct {
	k, n   int
	master macKey
	shares []macKey // shares[i-1] keys signer i's MAC
}

// InsecureSigner is the per-participant side of InsecureScheme.
type InsecureSigner struct {
	id  int
	key macKey
}

// InsecureDealer deals InsecureScheme instances keyed by a seed so that
// independent processes in one simulation agree on keys.
type InsecureDealer struct {
	Seed []byte
}

var _ Dealer = InsecureDealer{}

// Deal implements Dealer. Every signer's secret is derived here, once.
func (d InsecureDealer) Deal(k, n int) (Scheme, []Signer, error) {
	if k < 1 || n < 1 || k > n {
		return nil, nil, fmt.Errorf("threshsig: invalid threshold k=%d n=%d", k, n)
	}
	master := newMACKey(d.Seed).sum([]byte(fmt.Sprintf("master/%d/%d", k, n)))
	scheme := &InsecureScheme{k: k, n: n, master: newMACKey(master), shares: make([]macKey, n)}
	signers := make([]Signer, n)
	for i := 1; i <= n; i++ {
		var id [8]byte
		binary.BigEndian.PutUint64(id[:], uint64(i))
		scheme.shares[i-1] = newMACKey(scheme.master.sum(id[:]))
		signers[i-1] = &InsecureSigner{id: i, key: scheme.shares[i-1]}
	}
	return scheme, signers, nil
}

// macKey is an HMAC-SHA256 key with a pool of HMACs keyed by it. After
// its first Reset, crypto/hmac keeps the SHA-256 states after the ipad and
// opad blocks and resumes from them: a MAC costs two compressions for a
// short message instead of four, with no re-keying and no allocation.
type macKey struct {
	pool *sync.Pool
}

// macState is one pooled HMAC and room for its result.
type macState struct {
	h   hash.Hash
	out [sha256.Size]byte
}

func newMACKey(key []byte) macKey {
	key = append([]byte(nil), key...)
	return macKey{&sync.Pool{New: func() any {
		return &macState{h: hmac.New(sha256.New, key)}
	}}}
}

// mac computes HMAC(key, msg...) into the out of a pooled state, which the
// caller puts back.
func (k macKey) mac(msg ...[]byte) *macState {
	st := k.pool.Get().(*macState)
	st.h.Reset()
	for _, m := range msg {
		st.h.Write(m)
	}
	st.h.Sum(st.out[:0])
	return st
}

// sum returns HMAC(key, msg...).
func (k macKey) sum(msg ...[]byte) []byte {
	st := k.mac(msg...)
	out := append([]byte(nil), st.out[:]...)
	k.pool.Put(st)
	return out
}

// equal reports, in constant time, whether mac is HMAC(key, msg...).
func (k macKey) equal(mac []byte, msg ...[]byte) bool {
	st := k.mac(msg...)
	ok := hmac.Equal(st.out[:], mac)
	k.pool.Put(st)
	return ok
}

// ID implements Signer.
func (s *InsecureSigner) ID() int { return s.id }

// Sign implements Signer.
func (s *InsecureSigner) Sign(digest []byte) (Share, error) {
	return Share{Signer: s.id, Data: s.key.sum(digest)}, nil
}

var _ Scheme = (*InsecureScheme)(nil)

// Threshold implements Scheme.
func (s *InsecureScheme) Threshold() int { return s.k }

// N implements Scheme.
func (s *InsecureScheme) N() int { return s.n }

// VerifyShare implements Scheme.
func (s *InsecureScheme) VerifyShare(digest []byte, share Share) error {
	if share.Signer < 1 || share.Signer > s.n {
		return fmt.Errorf("%w: signer %d, n=%d", ErrBadSignerID, share.Signer, s.n)
	}
	if !s.shares[share.Signer-1].equal(share.Data, digest) {
		return fmt.Errorf("%w: signer %d", ErrInvalidShare, share.Signer)
	}
	return nil
}

// Combine implements Scheme. The combined value does not depend on the
// shares, so there is nothing to check optimistically: threshold
// semantics need every share looked at, which costs two HMACs each.
func (s *InsecureScheme) Combine(digest []byte, shares []Share) (Signature, error) {
	sorted, err := CheckShares(s.k, s.n, shares)
	if err != nil {
		return Signature{}, err
	}
	for _, sh := range sorted {
		if s.VerifyShare(digest, sh) != nil {
			return Signature{}, Blame(s, digest, sorted)
		}
	}
	return Signature{Data: s.combined(digest)}, nil
}

// CombineVerified implements Scheme: share validity is attested by the
// caller, so only the threshold bookkeeping runs.
func (s *InsecureScheme) CombineVerified(digest []byte, shares []Share) (Signature, error) {
	if _, err := CheckShares(s.k, s.n, shares); err != nil {
		return Signature{}, err
	}
	return Signature{Data: s.combined(digest)}, nil
}

// combined derives the canonical combined signature for a digest. It does
// not depend on which k shares were supplied, mirroring the uniqueness of
// BLS threshold signatures (any k shares interpolate to the same value).
func (s *InsecureScheme) combined(digest []byte) []byte {
	return s.master.sum(combinedTag, digest)
}

var combinedTag = []byte("combined/")

// Verify implements Scheme.
func (s *InsecureScheme) Verify(digest []byte, sig Signature) error {
	if !s.master.equal(sig.Data, combinedTag, digest) {
		return ErrInvalidSignature
	}
	return nil
}
