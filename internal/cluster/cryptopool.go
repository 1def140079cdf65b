package cluster

import (
	"errors"
	"time"

	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
)

// poolSink is the simulated cluster's core.CryptoSink: a modeled pool of
// crypto workers advancing in VIRTUAL time. Each worker has a busy
// horizon; a job runs on the earliest-free worker, paying the cost-model
// price for its share batch, and its continuation fires on the
// deterministic event loop when that worker finishes. There are no real
// threads — determinism is exactly the point: the seeded chaos sweeps
// must reproduce bit-for-bit with the pool enabled, while the model
// still captures what a real pool buys (combining and checking
// certificates overlaps the event loop).
//
// The sink is scheduled through the replica's env, so a restart (dead
// env) suppresses in-flight completions the same way it suppresses the
// dead process's timers.
type poolSink struct {
	env   *env
	suite core.CryptoSuite
	costs CostModel
	// horizon[i] is the virtual time worker i becomes free.
	horizon []time.Duration
}

// newPoolSink builds a pool of `workers` modeled crypto workers.
func newPoolSink(e *env, suite core.CryptoSuite, costs CostModel, workers int) *poolSink {
	if workers < 1 {
		workers = 1
	}
	return &poolSink{env: e, suite: suite, costs: costs, horizon: make([]time.Duration, workers)}
}

// schedule books cost on the earliest-free worker and runs fn on the
// event loop when that worker finishes.
func (p *poolSink) schedule(cost time.Duration, fn func()) {
	now := p.env.sched.Now()
	w := 0
	for i := 1; i < len(p.horizon); i++ {
		if p.horizon[i] < p.horizon[w] {
			w = i
		}
	}
	start := p.horizon[w]
	if start < now {
		start = now
	}
	end := start + cost
	p.horizon[w] = end
	p.env.After(end-now, fn)
}

// VerifyShares implements core.CryptoSink. A job's shares are checked as
// one batch at about the price of one signature check (§III: "validated
// at nearly the same cost of validating only one"); only a batch that
// fails goes through its shares one by one. Like Combine, the result is
// computed at hand-over so the worker is booked for what it costs.
func (p *poolSink) VerifyShares(jobs []core.VerifyJob, done func(ok [][]threshsig.Share)) {
	var cost time.Duration
	ok := make([][]threshsig.Share, len(jobs))
	for i, j := range jobs {
		ok[i] = core.VerifyJobShares(p.suite, j)
		cost += p.costs.Verify
		if len(j.Shares) > 1 && len(ok[i]) < len(j.Shares) {
			cost += p.costs.ShareVerifyCost(len(j.Shares))
		}
	}
	p.schedule(cost, func() { done(ok) })
}

// Combine implements core.CryptoSink. The worker pays the interpolation
// and the one check of the combined signature, plus a verification of
// every share only when that check fails and shares must be blamed. The
// result is computed at hand-over (inputs are immutable) so its cost is
// known when the worker is booked.
func (p *poolSink) Combine(kind core.ShareKind, digest []byte, shares []threshsig.Share, done func(threshsig.Signature, error)) {
	sig, err := core.SchemeFor(p.suite, kind).Combine(digest, shares)
	cost := p.costs.CombineVerified + p.costs.Verify
	var blamed *threshsig.BadSharesError
	if errors.As(err, &blamed) {
		cost += p.costs.ShareVerifyCost(len(shares))
	}
	p.schedule(cost, func() { done(sig, err) })
}
