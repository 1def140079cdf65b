package cryptopool

import (
	"errors"
	"sync"
	"testing"

	"sbft/internal/core"
	"sbft/internal/crypto/threshbls"
	"sbft/internal/crypto/threshsig"
)

// loopback emulates the replica event loop: a mutex stands in for the
// single-threaded shell, and the race detector checks that completions
// never touch shared state concurrently with the "loop".
type loopback struct {
	mu   sync.Mutex
	done chan func()
}

func newLoopback() *loopback { return &loopback{done: make(chan func(), 256)} }

func (l *loopback) do(fn func()) { l.done <- fn }

// drain runs queued completions on the test's "event loop" until n ran.
func (l *loopback) drain(n int) {
	for i := 0; i < n; i++ {
		fn := <-l.done
		l.mu.Lock()
		fn()
		l.mu.Unlock()
	}
}

func testSuite(t *testing.T) (core.CryptoSuite, []core.ReplicaKeys, core.Config) {
	t.Helper()
	cfg := core.DefaultConfig(1, 0)
	suite, keys, err := core.DealSuite(cfg, threshbls.Dealer{})
	if err != nil {
		t.Fatal(err)
	}
	return suite, keys, cfg
}

func TestPoolCombinesBlamesAndVerifies(t *testing.T) {
	suite, keys, cfg := testSuite(t)
	lb := newLoopback()
	p := New(suite, 4, lb.do)
	defer p.Close()

	digest := []byte("pool-digest")
	var shares []threshsig.Share
	for i := 0; i < cfg.QuorumSlow(); i++ {
		sh, err := keys[i].Tau.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	poisoned := append([]threshsig.Share(nil), shares...)
	poisoned[1] = threshsig.Share{Signer: shares[1].Signer, Data: []byte("junk")}

	// Unverified shares go straight to Combine: a clean quorum comes back
	// as a signature that verifies, a poisoned one as a blame verdict
	// naming the culprit.
	var sig threshsig.Signature
	var cleanErr, poisonedErr error
	p.Combine(core.ShareTau, digest, shares, func(s threshsig.Signature, err error) { sig, cleanErr = s, err })
	p.Combine(core.ShareTau, digest, poisoned, func(_ threshsig.Signature, err error) { poisonedErr = err })
	lb.drain(2)
	if cleanErr != nil {
		t.Fatal(cleanErr)
	}
	if err := suite.Tau.Verify(digest, sig); err != nil {
		t.Fatalf("combined signature does not verify: %v", err)
	}
	var blame *threshsig.BadSharesError
	if !errors.As(poisonedErr, &blame) || len(blame.Signers) != 1 || blame.Signers[0] != shares[1].Signer {
		t.Fatalf("poisoned combine: err=%v, want blame on signer %d", poisonedErr, shares[1].Signer)
	}

	// Share verification (suspects, checkpoint quorums): the clean job
	// passes as one batch, the poisoned one falls back to per-share checks
	// and keeps the valid subset.
	var verified [][]threshsig.Share
	p.VerifyShares([]core.VerifyJob{
		{Kind: core.ShareTau, Digest: digest, Shares: shares},
		{Kind: core.ShareTau, Digest: digest, Shares: poisoned},
	}, func(ok [][]threshsig.Share) { verified = ok })
	lb.drain(1)
	if len(verified) != 2 || len(verified[0]) != len(shares) || len(verified[1]) != len(shares)-1 {
		t.Fatalf("verified = %v jobs, want clean %d and filtered %d", len(verified), len(shares), len(shares)-1)
	}
}

func TestPoolParallelSubmissions(t *testing.T) {
	// Many verify jobs in flight at once across 4 workers — the -race CI
	// run is the point: completions and worker reads must not conflict.
	suite, keys, _ := testSuite(t)
	lb := newLoopback()
	p := New(suite, 4, lb.do)
	defer p.Close()

	const jobs = 32
	digest := []byte("parallel-digest")
	sh, err := keys[0].Tau.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	okCount := 0
	for i := 0; i < jobs; i++ {
		p.VerifyShares([]core.VerifyJob{{Kind: core.ShareTau, Digest: digest, Shares: []threshsig.Share{sh}}},
			func(ok [][]threshsig.Share) {
				if len(ok[0]) == 1 {
					okCount++
				}
			})
	}
	// A burst past the queue depth completes partly inline (the
	// saturation fallback, on this goroutine) and partly via lb.done —
	// drain until every completion has landed.
	for okCount < jobs {
		fn := <-lb.done
		lb.mu.Lock()
		fn()
		lb.mu.Unlock()
	}
}

func TestPoolClosedFallsBackInline(t *testing.T) {
	suite, keys, _ := testSuite(t)
	lb := newLoopback()
	p := New(suite, 2, lb.do)
	p.Close()

	digest := []byte("after-close")
	sh, err := keys[0].Tau.Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	// After Close the call must still complete — synchronously, per the
	// sink contract's inline allowance — not deadlock or drop.
	p.VerifyShares([]core.VerifyJob{{Kind: core.ShareTau, Digest: digest, Shares: []threshsig.Share{sh}}},
		func(ok [][]threshsig.Share) { called = len(ok[0]) == 1 })
	if !called {
		t.Fatal("closed pool did not verify inline")
	}
}
