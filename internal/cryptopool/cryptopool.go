// Package cryptopool provides the deployment-side core.CryptoSink: a
// bounded pool of worker goroutines that combines certificates — the
// scheme's Combine: interpolate, check the combined signature once, blame
// shares only if that fails — and verifies the shares of suspect signers
// and of checkpoint quorums off the replica's event loop. This is the
// real-threads counterpart of the simulated cluster's deterministic
// virtual-time pool — same sink contract, same scheme calls and the same
// core.VerifyJobShares policy, so behavior proven under the seeded chaos
// sweeps carries over to the TCP deployment unchanged.
package cryptopool

import (
	"sync"

	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
)

// Pool is a fixed-width crypto worker pool implementing core.CryptoSink.
// Completions are routed back onto the replica's event loop through the
// do callback (transport.Shell.Do in sbft-node), per the sink contract.
type Pool struct {
	suite core.CryptoSuite
	do    func(func())
	jobs  chan func()
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// New starts a pool of `workers` goroutines. do must serialize its
// argument onto the replica's event-loop thread.
func New(suite core.CryptoSuite, workers int, do func(func())) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{suite: suite, do: do, jobs: make(chan func(), 4*workers)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.loop()
	}
	return p
}

func (p *Pool) loop() {
	defer p.wg.Done()
	for fn := range p.jobs {
		fn()
	}
}

// submit enqueues work without blocking; false means saturated or
// closed.
func (p *Pool) submit(fn func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.jobs <- fn:
		return true
	default:
		return false
	}
}

// VerifyShares implements core.CryptoSink. Unlike a skippable snapshot,
// crypto work is never optional: when the pool is saturated or closed
// the job runs inline on the caller (the event loop), which the sink
// contract explicitly allows — saturation degrades to the synchronous
// baseline instead of dropping quorum progress.
func (p *Pool) VerifyShares(jobs []core.VerifyJob, done func(ok [][]threshsig.Share)) {
	run := func() [][]threshsig.Share {
		ok := make([][]threshsig.Share, len(jobs))
		for i, j := range jobs {
			ok[i] = core.VerifyJobShares(p.suite, j)
		}
		return ok
	}
	if !p.submit(func() {
		ok := run()
		p.do(func() { done(ok) })
	}) {
		done(run())
	}
}

// Combine implements core.CryptoSink, with the same inline fallback. The
// check of the combined signature happens inside the scheme's Combine, on
// the worker.
func (p *Pool) Combine(kind core.ShareKind, digest []byte, shares []threshsig.Share, done func(sig threshsig.Signature, err error)) {
	scheme := core.SchemeFor(p.suite, kind)
	if !p.submit(func() {
		sig, err := scheme.Combine(digest, shares)
		p.do(func() { done(sig, err) })
	}) {
		done(scheme.Combine(digest, shares))
	}
}

// Close drains queued work and stops the workers; further calls fall
// back to inline execution. Close the pool before the shell it routes
// completions through.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}
