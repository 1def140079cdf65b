package shard

import (
	"fmt"
	"time"

	"sbft/internal/core"
	"sbft/internal/kvstore"
)

// CoordMode selects the coordinator's behavior. The protocol is designed
// for UNTRUSTED coordinators: the faulty modes exist to prove the shards
// hold atomicity on their own.
type CoordMode int

// Coordinator behaviors.
const (
	// CoordHonest drives prepare → commit/abort to completion.
	CoordHonest CoordMode = iota
	// CoordCrash vanishes after the prepare phase: every shard is left
	// prepared with locks held until a recovery coordinator finishes the
	// transaction.
	CoordCrash
	// CoordEquivocate commits on the lowest participant shard with real
	// certificates, then tries to ABORT on the others using the first
	// shard's PREPARED certificate as fake refusal evidence. The abort
	// must fail certificate verification on every honest shard.
	CoordEquivocate
	// CoordDropCert loses a prepare certificate and must refetch it via
	// an idempotent re-prepare before committing (the §V-A fast path is
	// not guaranteed to yield a certificate on every completion).
	CoordDropCert
)

// Tx is one cross-shard transaction: encoded kvstore Put/Delete writes
// spanning any subset of shards, committed all-or-nothing.
type Tx struct {
	ID     string
	Writes [][]byte
}

// TxOutcome reports what a coordinator run achieved.
type TxOutcome struct {
	TxID  string
	Parts []int
	// Vals is the last response value observed per participant shard.
	Vals map[int]string
	// Committed: every participant answered COMMITTED.
	Committed bool
	// Aborted: every contacted participant answered ABORTED.
	Aborted bool
	// Pending: the coordinator stopped without driving a decision
	// everywhere (crashed, equivocated, or stuck) — recovery territory.
	Pending bool
	// Recovered: this outcome came from a recovery run.
	Recovered bool
}

// Coordinator drives cross-shard transactions over one lane of a
// sharded cluster.
type Coordinator struct {
	SC   *Cluster
	Lane int
	Mode CoordMode
	// Budget bounds each synchronous run's virtual time (0 = 30s).
	Budget time.Duration
}

// maxRefetches bounds certificate refetch attempts per shard.
const maxRefetches = 4

// txRun is one in-flight coordination attempt.
type txRun struct {
	c         *Coordinator
	tx        Tx
	parts     []int
	prepOps   map[int][]byte // canonical prepare op per shard (refetch resubmits these)
	certs     map[int][]byte
	vals      map[int]string
	refetches map[int]int
	waiting   int
	recovered bool
	done      func(TxOutcome)
}

// Start launches the transaction asynchronously; done fires exactly once
// when this coordinator stops (decision reached, crash point, or stuck).
func (c *Coordinator) Start(tx Tx, done func(TxOutcome)) error {
	split, err := SplitWrites(tx.Writes, c.SC.Opts.Shards)
	if err != nil {
		return err
	}
	if len(split) == 0 {
		return fmt.Errorf("shard: transaction %q has no writes", tx.ID)
	}
	r := &txRun{
		c:         c,
		tx:        tx,
		parts:     Participants(split),
		prepOps:   make(map[int][]byte),
		certs:     make(map[int][]byte),
		vals:      make(map[int]string),
		refetches: make(map[int]int),
		done:      done,
	}
	for _, p := range r.parts {
		r.prepOps[p] = kvstore.TxPrepare(tx.ID, r.parts, split[p]...)
	}
	r.waiting = len(r.parts)
	for _, p := range r.parts {
		p := p
		if err := c.SC.Submit(p, c.Lane, r.prepOps[p], func(res core.Result) { r.onPrepare(p, res) }); err != nil {
			return err
		}
	}
	return nil
}

// RunTx drives the transaction synchronously, advancing the lockstep
// clock until the coordinator stops.
func (c *Coordinator) RunTx(tx Tx) (TxOutcome, error) {
	budget := c.Budget
	if budget <= 0 {
		budget = 30 * time.Second
	}
	var out *TxOutcome
	if err := c.Start(tx, func(o TxOutcome) { out = &o }); err != nil {
		return TxOutcome{}, err
	}
	if !c.SC.Topo.RunUntil(func() bool { return out != nil }, budget) {
		return TxOutcome{}, fmt.Errorf("shard: tx %q did not settle in %v", tx.ID, budget)
	}
	return *out, nil
}

// Recover re-drives an abandoned transaction honestly: idempotent
// re-prepares everywhere refetch the evidence, then the evidence class
// decides commit or abort — the same code path an original coordinator
// takes, which is the point: ANY party holding the transaction can
// finish it. A completed recovery counts as a coordinator failover.
func (c *Coordinator) Recover(tx Tx) (TxOutcome, error) {
	rec := &Coordinator{SC: c.SC, Lane: c.Lane, Mode: CoordHonest, Budget: c.Budget}
	budget := rec.Budget
	if budget <= 0 {
		budget = 30 * time.Second
	}
	var out *TxOutcome
	err := rec.startRecovery(tx, func(o TxOutcome) { out = &o })
	if err != nil {
		return TxOutcome{}, err
	}
	if !c.SC.Topo.RunUntil(func() bool { return out != nil }, budget) {
		return TxOutcome{}, fmt.Errorf("shard: recovery of %q did not settle in %v", tx.ID, budget)
	}
	if out.Committed || out.Aborted {
		c.SC.Failovers++
	}
	return *out, nil
}

func (c *Coordinator) startRecovery(tx Tx, done func(TxOutcome)) error {
	return c.Start(tx, func(o TxOutcome) {
		o.Recovered = true
		done(o)
	})
}

// onPrepare collects one shard's prepare response.
func (r *txRun) onPrepare(p int, res core.Result) {
	r.vals[p] = string(res.Val)
	if res.Cert != nil {
		r.certs[p] = res.Cert.Encode()
	}
	r.waiting--
	if r.waiting == 0 {
		r.classify()
	}
}

// classify routes the collected prepare evidence to phase two.
func (r *txRun) classify() {
	// Any refusal aborts the transaction everywhere.
	for _, p := range r.parts {
		if kvstore.RefusalVal([]byte(r.vals[p])) {
			r.ensureCert(p, func() { r.abortAll(p) })
			return
		}
	}
	// Anything that is neither refusal nor acceptance (ERR responses)
	// means this coordinator cannot assemble evidence: stop, leave
	// recovery to finish the job.
	for _, p := range r.parts {
		if !kvstore.PreparedVal([]byte(r.vals[p])) {
			r.finish(TxOutcome{Pending: true})
			return
		}
	}
	// All prepared: make sure every certificate is in hand, then commit.
	switch r.c.Mode {
	case CoordCrash:
		r.finish(TxOutcome{Pending: true})
	case CoordEquivocate:
		r.ensureAllCerts(r.equivocate)
	case CoordDropCert:
		// Lose the first shard's certificate on purpose; the refetch path
		// must reconstruct it through an idempotent re-prepare.
		delete(r.certs, r.parts[0])
		r.ensureAllCerts(r.commitAll)
	default:
		r.ensureAllCerts(r.commitAll)
	}
}

// ensureCert refetches shard p's certificate (by resubmitting the
// identical prepare under a fresh client timestamp — replicas re-execute
// and the idempotent prepare re-certifies the same answer) until one is
// in hand or attempts run out.
func (r *txRun) ensureCert(p int, then func()) {
	if r.certs[p] != nil {
		then()
		return
	}
	if r.refetches[p] >= maxRefetches {
		r.finish(TxOutcome{Pending: true})
		return
	}
	r.refetches[p]++
	err := r.c.SC.Submit(p, r.c.Lane, r.prepOps[p], func(res core.Result) {
		r.vals[p] = string(res.Val)
		if res.Cert != nil {
			r.certs[p] = res.Cert.Encode()
		}
		r.ensureCert(p, then)
	})
	if err != nil {
		r.finish(TxOutcome{Pending: true})
	}
}

// ensureAllCerts chains ensureCert across every participant.
func (r *txRun) ensureAllCerts(then func()) {
	missing := -1
	for _, p := range r.parts {
		if r.certs[p] == nil {
			missing = p
			break
		}
	}
	if missing < 0 {
		then()
		return
	}
	r.ensureCert(missing, func() { r.ensureAllCerts(then) })
}

// commitAll sends each participant the OTHER participants' certificates.
func (r *txRun) commitAll() {
	r.waiting = len(r.parts)
	for _, p := range r.parts {
		p := p
		certs := make(map[int][]byte, len(r.parts)-1)
		for _, q := range r.parts {
			if q != p {
				certs[q] = r.certs[q]
			}
		}
		op := kvstore.TxCommit(r.tx.ID, certs)
		if err := r.c.SC.Submit(p, r.c.Lane, op, func(res core.Result) { r.onDecide(p, res) }); err != nil {
			r.finish(TxOutcome{Pending: true})
			return
		}
	}
}

// abortAll spreads shard `refuser`'s refusal certificate everywhere else.
func (r *txRun) abortAll(refuser int) {
	targets := make([]int, 0, len(r.parts))
	for _, p := range r.parts {
		if p != refuser {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		r.finish(TxOutcome{Aborted: true})
		return
	}
	r.waiting = len(targets)
	op := kvstore.TxAbort(r.tx.ID, refuser, r.certs[refuser])
	for _, p := range targets {
		p := p
		if err := r.c.SC.Submit(p, r.c.Lane, op, func(res core.Result) { r.onDecide(p, res) }); err != nil {
			r.finish(TxOutcome{Pending: true})
			return
		}
	}
}

// equivocate is the Byzantine-coordinator attack: a real commit on the
// first shard, a forged abort on the rest.
func (r *txRun) equivocate() {
	first, rest := r.parts[0], r.parts[1:]
	r.waiting = len(r.parts)
	certs := make(map[int][]byte, len(rest))
	for _, q := range rest {
		certs[q] = r.certs[q]
	}
	commit := kvstore.TxCommit(r.tx.ID, certs)
	if err := r.c.SC.Submit(first, r.c.Lane, commit, func(res core.Result) { r.onEquivocateReply(first, res) }); err != nil {
		r.finish(TxOutcome{Pending: true})
		return
	}
	// The "refusal" evidence is first's PREPARED certificate — a real,
	// verifiable certificate of the WRONG evidence class. Honest shards
	// must answer ERR:bad-cert and stay prepared.
	forged := kvstore.TxAbort(r.tx.ID, first, r.certs[first])
	for _, p := range rest {
		p := p
		if err := r.c.SC.Submit(p, r.c.Lane, forged, func(res core.Result) { r.onEquivocateReply(p, res) }); err != nil {
			r.finish(TxOutcome{Pending: true})
			return
		}
	}
}

func (r *txRun) onEquivocateReply(p int, res core.Result) {
	r.vals[p] = string(res.Val)
	r.waiting--
	if r.waiting == 0 {
		// The equivocator never reaches a clean decision: at best it
		// committed one shard and left the rest prepared.
		r.finish(TxOutcome{Pending: true})
	}
}

// onDecide collects phase-two responses.
func (r *txRun) onDecide(p int, res core.Result) {
	r.vals[p] = string(res.Val)
	r.waiting--
	if r.waiting > 0 {
		return
	}
	committed, aborted := true, true
	for _, q := range r.parts {
		if r.vals[q] != kvstore.TxCommitted {
			committed = false
		}
		if r.vals[q] != kvstore.TxAborted && !kvstore.RefusalVal([]byte(r.vals[q])) {
			aborted = false
		}
	}
	r.finish(TxOutcome{Committed: committed, Aborted: aborted, Pending: !committed && !aborted})
}

// finish emits the outcome exactly once.
func (r *txRun) finish(out TxOutcome) {
	if r.done == nil {
		return
	}
	out.TxID = r.tx.ID
	out.Parts = r.parts
	out.Vals = r.vals
	done := r.done
	r.done = nil
	done(out)
}
