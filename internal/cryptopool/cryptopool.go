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

// Queue is a bounded job queue drained by a fixed set of worker
// goroutines. Submit never blocks: a full or closed queue refuses the job
// and the caller applies its own policy — the crypto pool runs the job
// inline, the deployment's snapshot worker (internal/node) skips it.
type Queue struct {
	jobs chan func()
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewQueue starts `workers` goroutines draining a queue of `depth` jobs.
func NewQueue(workers, depth int) *Queue {
	q := &Queue{jobs: make(chan func(), depth)}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.loop()
	}
	return q
}

func (q *Queue) loop() {
	defer q.wg.Done()
	for fn := range q.jobs {
		fn()
	}
}

// Submit enqueues work without blocking; false means saturated or
// closed. The closed guard matters: a send on the closed jobs channel
// would panic, even under select.
func (q *Queue) Submit(fn func()) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	select {
	case q.jobs <- fn:
		return true
	default:
		return false
	}
}

// Close runs the jobs already queued, stops the workers and waits for
// them; Submit refuses from here on. A job that hands its result to an
// event loop blocks until that loop takes it, so close the queue before
// the loop its jobs complete on.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	close(q.jobs)
	q.mu.Unlock()
	q.wg.Wait()
}

// Pool is a fixed-width crypto worker pool implementing core.CryptoSink.
// Completions are routed back onto the replica's event loop through the
// do callback (transport.Shell.Do in sbft-node), per the sink contract.
type Pool struct {
	suite core.CryptoSuite
	do    func(func())
	queue *Queue
}

// New starts a pool of `workers` goroutines. do must serialize its
// argument onto the replica's event-loop thread.
func New(suite core.CryptoSuite, workers int, do func(func())) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{suite: suite, do: do, queue: NewQueue(workers, 4*workers)}
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
	if !p.queue.Submit(func() {
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
	if !p.queue.Submit(func() {
		sig, err := scheme.Combine(digest, shares)
		p.do(func() { done(sig, err) })
	}) {
		done(scheme.Combine(digest, shares))
	}
}

// Close drains queued work and stops the workers; further calls fall
// back to inline execution. Close the pool before the shell it routes
// completions through.
func (p *Pool) Close() { p.queue.Close() }
