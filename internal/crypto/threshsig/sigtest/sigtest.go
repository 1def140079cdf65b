// Package sigtest holds the conformance checks every threshsig.Scheme
// implementation runs from its own tests.
package sigtest

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sbft/internal/crypto/threshsig"
)

// CombineRobust checks the robustness contract of Scheme.Combine (§III)
// over rounds random mixes of valid and corrupted shares: every call
// either returns a signature that Verify accepts, or a *BadSharesError
// naming exactly the corrupted signers among the shares passed in (so it
// succeeds when nothing is corrupted). Success over a corrupted share is
// legitimate: an implementation need not have combined that share, and a
// share with only its proof of correctness damaged still combines.
func CombineRobust(t *testing.T, scheme threshsig.Scheme, signers []threshsig.Signer, rounds int) {
	t.Helper()
	rng := rand.New(rand.NewSource(0x5bf7))
	k, n := scheme.Threshold(), scheme.N()
	digest, other := []byte("sigtest digest"), []byte("sigtest other digest")
	for round := 0; round < rounds; round++ {
		// A random set of k..n signers, each corrupted with probability 1/3
		// in one of three ways.
		ids := rng.Perm(n)[:k+rng.Intn(n-k+1)]
		slices.Sort(ids)
		var shares []threshsig.Share
		var corrupted []int
		for _, i := range ids {
			sh, err := signers[i].Sign(digest)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				corrupted = append(corrupted, sh.Signer)
				switch rng.Intn(3) {
				case 0: // not a share at all
					sh.Data = []byte("garbage")
				case 1: // a valid share over another digest
					wrong, err := signers[i].Sign(other)
					if err != nil {
						t.Fatal(err)
					}
					sh.Data = wrong.Data
				case 2: // one flipped bit
					sh.Data = slices.Clone(sh.Data)
					sh.Data[len(sh.Data)/2] ^= 1
				}
			}
			shares = append(shares, sh)
		}
		rng.Shuffle(len(shares), func(a, b int) { shares[a], shares[b] = shares[b], shares[a] })

		sig, err := scheme.Combine(digest, shares)
		if err == nil {
			if verr := scheme.Verify(digest, sig); verr != nil {
				t.Fatalf("round %d: Combine returned a signature Verify rejects: %v (corrupted %v of %v)", round, verr, corrupted, ids)
			}
			continue
		}
		var blame *threshsig.BadSharesError
		if !errors.As(err, &blame) || !errors.Is(err, threshsig.ErrInvalidShare) {
			t.Fatalf("round %d: Combine failed without a blame verdict: %v (corrupted %v)", round, err, corrupted)
		}
		if !slices.Equal(blame.Signers, corrupted) {
			t.Fatalf("round %d: blamed %v, corrupted %v", round, blame.Signers, corrupted)
		}
	}
}
