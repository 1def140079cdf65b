package core

import (
	"errors"

	"sbft/internal/crypto/threshsig"
)

// This file is the collectors' threshold-crypto policy and the sans-io
// sink it runs behind (the same shape as SnapshotSink: the replica hands
// work over with a completion callback and the runtime decides where it
// runs). DESIGN.md "Optimistic certificate assembly" has the reasoning.
//
// Collectors are optimistic, as the scheme's robustness property allows
// (§III): an arriving share is only de-duplicated — one per signer per
// table — and a quorum goes to CryptoSink.Combine, which interpolates and
// checks the COMBINED signature once, however many shares it holds. Only
// a failed combine verifies shares one by one: its error names the bad
// signers, the collector drops their shares, counts Metrics.BadShares,
// marks the signers suspect and combines again once a clean quorum exists.
// For the rest of the view a suspect's shares are verified on arrival, so
// a collector suffers at most f failed combines per view plus any already
// in flight. Suspicion ends with the view because a σ/τ share is checked
// against the collector's own block hash: an equivocating primary makes
// honest shares fail there, and the view change that removes it clears
// their names.
//
// The stable-checkpoint certificate is the exception: every replica
// assembles it, once per checkpoint interval, and verifies its quorum as
// one batched VerifyShares job before combining — about one signature
// check per replica per interval, which keeps the batched share check,
// otherwise reached only under attack, running in every deployment.

// ShareKind names the threshold scheme a verification or combination
// belongs to: σ (3f+c+1), τ (2f+c+1) or π (f+1).
type ShareKind int

const (
	ShareSigma ShareKind = iota
	ShareTau
	SharePi
)

// VerifyJob is a set of shares claimed to sign one digest under one
// scheme.
type VerifyJob struct {
	Kind   ShareKind
	Digest []byte
	Shares []threshsig.Share
}

// CryptoSink runs threshold-crypto work off the replica event loop.
//
// Contract (mirrors SnapshotSink): calls must not block — hand the work
// to workers or run it inline. done MUST be invoked on the replica's
// event-loop thread (the transport shell routes it through Shell.Do; the
// simulated cluster schedules it on the deterministic event loop), and
// may be invoked synchronously from within the call — the inline
// fallback used when no sink is installed does exactly that. Inputs are
// immutable once handed over and safe to read off-loop.
//
// Combine is threshsig.Scheme.Combine over unverified shares: a
// signature that verifies, or an error that is a
// *threshsig.BadSharesError when shares were at fault. VerifyShares checks
// shares without combining them — a suspect's share on arrival, a
// checkpoint quorum — and reports, per job, the subset that verified
// (order-preserving).
type CryptoSink interface {
	VerifyShares(jobs []VerifyJob, done func(ok [][]threshsig.Share))
	Combine(kind ShareKind, digest []byte, shares []threshsig.Share, done func(sig threshsig.Signature, err error))
}

// SetCryptoSink installs the crypto sink; nil restores the inline
// synchronous path.
func (r *Replica) SetCryptoSink(cs CryptoSink) {
	if cs == nil {
		cs = syncSink{r.suite}
	}
	r.csink = cs
}

// SchemeFor selects the scheme a kind refers to.
func SchemeFor(suite CryptoSuite, kind ShareKind) threshsig.Scheme {
	switch kind {
	case ShareSigma:
		return suite.Sigma
	case SharePi:
		return suite.Pi
	default:
		return suite.Tau
	}
}

// VerifyJobShares runs one job synchronously and returns the verified
// subset. Shared by the inline fallback and the worker-pool sinks so the
// policy cannot diverge: a multi-share job goes through the scheme's
// randomized-linear-combination batch check when it offers one, and only a
// failed batch verifies share by share to find the culprits.
func VerifyJobShares(suite CryptoSuite, job VerifyJob) []threshsig.Share {
	scheme := SchemeFor(suite, job.Kind)
	if len(job.Shares) > 1 {
		type rlcBatcher interface {
			BatchVerifyShares(digest []byte, shares []threshsig.Share) error
		}
		if bv, ok := scheme.(rlcBatcher); ok && bv.BatchVerifyShares(job.Digest, job.Shares) == nil {
			return job.Shares
		}
	}
	ok := make([]threshsig.Share, 0, len(job.Shares))
	for _, sh := range job.Shares {
		if scheme.VerifyShare(job.Digest, sh) == nil {
			ok = append(ok, sh)
		}
	}
	return ok
}

// syncSink is the inline fallback installed when no CryptoSink is set:
// everything runs synchronously on the event loop.
type syncSink struct{ suite CryptoSuite }

func (s syncSink) VerifyShares(jobs []VerifyJob, done func([][]threshsig.Share)) {
	ok := make([][]threshsig.Share, len(jobs))
	for i, j := range jobs {
		ok[i] = VerifyJobShares(s.suite, j)
	}
	done(ok)
}

func (s syncSink) Combine(kind ShareKind, digest []byte, shares []threshsig.Share, done func(threshsig.Signature, error)) {
	done(SchemeFor(s.suite, kind).Combine(digest, shares))
}

// signedBy reports whether share names the replica that sent it as its
// signer; filed unverified under another name it would take that signer's
// place in a table.
func (r *Replica) signedBy(sender int, share threshsig.Share) bool {
	return share.Signer == sender && sender >= 1 && sender <= r.cfg.N()
}

// admitShare runs count for an arriving share that may go into a
// collector's table: at once for a signer in good standing (the combine
// will check the share together with the rest of its quorum), after an
// individual check through the sink for a signer blamed before. count may
// run after a sink round-trip and must re-check whatever it relies on.
func (r *Replica) admitShare(signer int, kind ShareKind, digest []byte, share threshsig.Share, count func()) {
	if !r.signedBy(signer, share) {
		return
	}
	if !r.suspect(signer) {
		count()
		return
	}
	job := VerifyJob{Kind: kind, Digest: append([]byte(nil), digest...), Shares: []threshsig.Share{share}}
	r.csink.VerifyShares([]VerifyJob{job}, func(ok [][]threshsig.Share) {
		if len(ok[0]) == 0 {
			r.Metrics.BadShares++
			return
		}
		count()
	})
}

// suspect reports whether signer was blamed in the current view.
func (r *Replica) suspect(signer int) bool {
	view, blamed := r.suspects[signer]
	return blamed && view == r.view
}

// blame applies the verdict of a failed combine to the table its shares
// came from: the named signers' shares are dropped and counted, and the
// signers become suspects for the rest of the view. It reports whether err
// was such a verdict, in which case the caller combines again if a quorum
// is left.
func (r *Replica) blame(table map[int]threshsig.Share, err error) bool {
	var bad *threshsig.BadSharesError
	if !errors.As(err, &bad) {
		return false
	}
	for _, id := range bad.Signers {
		delete(table, id)
		r.suspects[id] = r.view
		r.Metrics.BadShares++
	}
	return true
}
