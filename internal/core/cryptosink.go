package core

import "sbft/internal/crypto/threshsig"

// This file is the sans-io sink threshold-crypto work runs behind (the
// same shape as SnapshotSink: the replica hands work over with a
// completion callback and the runtime decides where it runs). The policy
// the collectors follow is in collector.go.

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
