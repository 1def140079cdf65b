package core

import (
	"bytes"
	"slices"

	"sbft/internal/crypto/threshsig"
)

// This file is the ordering stage: from an accepted pre-prepare to commit,
// on the fast path (§V-C) and on the linear-PBFT path (§V-E). What the
// C-collectors do between the two ends is in collector.go.

// slot holds the per-sequence-number protocol state of one replica: what
// ordering knows of the sequence, and embedded in it what this replica
// holds as one of its collectors.
type slot struct {
	seq uint64

	// Highest accepted pre-prepare (fm source for view changes).
	hasPrePrepare  bool
	prePrepareView uint64
	reqs           []Request
	hash           Digest

	// Highest accepted prepare certificate (lm source).
	hasPrepare  bool
	prepareView uint64
	prepareTau  threshsig.Signature
	prepareReqs []Request
	prepareHash Digest

	// Commit certificates.
	commitProof     *FullCommitProofMsg
	commitProofView uint64
	commitSlow      *FullCommitProofSlowMsg
	commitSlowView  uint64

	committed     bool
	committedReqs []Request

	sentSignShare   bool
	sentTau         bool // τ_i(h) signed, with the sign-share or on request
	sentCommitShare bool

	// pendingFast and pendingSlow buffer commit certificates that raced
	// ahead of the pre-prepare.
	pendingFast *FullCommitProofMsg
	pendingSlow *FullCommitProofSlowMsg

	collectorState // C-collector role (collector.go)
	execState      // execution and the E-collector role (execute.go)
}

// getSlot returns the slot of seq, creating it above the collection point.
// At or below it only the slots recordStable kept exist: a straggler for
// another sequence gets a blank that is not filed, so nothing comes back.
func (r *Replica) getSlot(seq uint64) *slot {
	s, ok := r.slots[seq]
	if !ok {
		s = &slot{seq: seq}
		s.resetCollector(r.view)
		if seq > min(r.lastStable, r.lastExecuted) {
			r.slots[seq] = s
		}
	}
	return s
}

// The commit rule (§V-C, §V-E): the block with hash h is committed by σ(h),
// or by τ(τ(h)) over a τ(h). Whatever carries a commit certificate in from
// outside — a collector's proof, a gap-repair answer, view-change evidence,
// the pair that lets a lone view-changer rejoin — has it checked here.

// fastCommitted reports whether sigma is σ(h).
func (cs CryptoSuite) fastCommitted(h Digest, sigma threshsig.Signature) bool {
	return cs.Sigma.Verify(h[:], sigma) == nil
}

// slowCommitted reports whether tau is τ(h) and tauTau is τ(τ(h)). tauHeld
// says the caller has verified this very τ(h) before.
func (cs CryptoSuite) slowCommitted(h Digest, tau, tauTau threshsig.Signature, tauHeld bool) bool {
	return (tauHeld || cs.Tau.Verify(h[:], tau) == nil) && cs.Tau.Verify(tauTauDigest(tau), tauTau) == nil
}

// ---------------------------------------------------------------------------
// Fast path: pre-prepare → sign-share → full-commit-proof.

func (r *Replica) onPrePrepare(from int, m PrePrepareMsg) {
	if m.View != r.view || r.inViewChange {
		// A future view's primary may propose before our new-view message
		// arrives (its first pre-prepares race the install on jittery
		// links): buffer and replay at installation instead of dropping.
		// Bounded to one primary rotation of future views and one entry
		// per sequence, so neither a Byzantine future-primary nor a
		// duplicating link can exhaust the buffer.
		if m.View >= r.view && m.View <= r.view+uint64(r.cfg.N()) &&
			from == r.cfg.Primary(m.View) {
			r.bufferPP(m)
		}
		// View synchronizer: while escalating alone, keep the recent lower
		// views' pre-prepares too — paired with a certified commit proof
		// they are the evidence that lets the loner rejoin (bounded to one
		// primary rotation below, same anti-exhaustion cap as above).
		if r.inViewChange && m.View < r.view && m.View+uint64(r.cfg.N()) >= r.view &&
			from == r.cfg.Primary(m.View) {
			r.bufferPP(m)
		}
		return
	}
	if from != r.cfg.Primary(r.view) {
		return
	}
	if m.Seq <= r.windowBase || m.Seq > r.windowBase+r.cfg.Win {
		if m.Seq > r.windowBase+r.cfg.Win && m.Seq > r.lastExecuted+r.cfg.Win {
			// Too far behind to catch up through the pipeline (§VIII
			// state transfer trigger).
			r.fetcher.want(r.lastExecuted + 1)
		}
		return
	}
	s := r.getSlot(m.Seq)
	if s.hasPrePrepare && s.prePrepareView == m.View {
		if s.hash != BlockHash(m.Seq, m.View, m.Reqs) {
			// Publicly verifiable equivocation by the primary (§V-G
			// trigger): start a view change immediately.
			r.startViewChange(r.view + 1)
		}
		return
	}
	r.acceptPrePrepare(from, m)
}

// bufferPP stores a racing pre-prepare for replay at view installation,
// capped at Win entries per view with one entry per sequence (duplicated
// deliveries must not evict distinct sequences).
func (r *Replica) bufferPP(m PrePrepareMsg) {
	buf := r.ppBuffer[m.View]
	for _, b := range buf {
		if b.Seq == m.Seq {
			return
		}
	}
	if uint64(len(buf)) < r.cfg.Win {
		r.ppBuffer[m.View] = append(buf, m)
	}
}

func (r *Replica) acceptPrePrepare(_ int, m PrePrepareMsg) {
	s := r.getSlot(m.Seq)
	s.hasPrePrepare = true
	s.prePrepareView = m.View
	s.reqs = m.Reqs
	s.hash = BlockHash(m.Seq, m.View, m.Reqs)
	for i, req := range m.Reqs {
		if req.Direct {
			if r.directReq[m.Seq] == nil {
				r.directReq[m.Seq] = make(map[int]bool)
			}
			r.directReq[m.Seq][i] = true
		}
		if ts := r.seen[req.Client]; ts < req.Timestamp {
			r.seen[req.Client] = req.Timestamp
		}
	}
	if s.committed {
		return
	}
	r.armProgressTimer()
	r.sendSignShare(s)
	// Replay anything that raced ahead of this pre-prepare.
	if len(s.pendingShares) > 0 {
		buffered := s.pendingShares
		s.pendingShares = nil
		for _, sh := range buffered {
			r.onSignShare(sh.Replica, sh)
		}
	}
	if s.pendingFast != nil {
		pf := *s.pendingFast
		s.pendingFast = nil
		r.onFullCommitProof(r.id, pf)
	}
	if s.pendingSlow != nil {
		ps := *s.pendingSlow
		s.pendingSlow = nil
		r.onFullCommitProofSlow(r.id, ps)
	}
}

func (r *Replica) sendSignShare(s *slot) {
	if s.sentSignShare {
		return
	}
	s.sentSignShare = true
	msg := SignShareMsg{Seq: s.seq, View: s.prePrepareView, Replica: r.id}
	// §V-F fast-path gate: only join the fast path near the execution
	// frontier so fast commits can advance ls without a checkpoint quorum.
	fast := r.cfg.FastPath && s.seq <= r.lastExecuted+r.cfg.fastGateWindow()
	if fast {
		sigmaShare, err := r.keys.Sigma.Sign(s.hash[:])
		if err != nil {
			r.Metrics.CaptureFailures++
			return
		}
		msg.SigmaSig = sigmaShare
	}
	// τ_i(h) only insures the slow path. Once the fast path has carried
	// this replica's last activeWindow commits in the view (eagerTau), a
	// collector that needs it asks (onFetchTau): the optimistic path pays
	// nothing for the fallback until it has failed.
	if (!fast || r.eagerTau > 0) && !r.signTau(s, &msg) {
		return
	}
	r.multicast(r.cfg.CCollectors(s.seq, s.prePrepareView), msg)
}

// signTau puts this replica's τ_i(h) for s into msg, once per slot and
// view; false if the key failed to sign.
func (r *Replica) signTau(s *slot, msg *SignShareMsg) bool {
	s.sentTau = true
	share, err := r.keys.Tau.Sign(s.hash[:])
	if err != nil {
		r.Metrics.CaptureFailures++
		return false
	}
	msg.TauSig = share
	return true
}

// onFetchTau answers a C-collector that asks for the τ_i(h) this replica
// held back: once per (seq, view), τ-only, to every C-collector of the
// slot, so a redundant collector finds the share when its turn comes.
func (r *Replica) onFetchTau(from int, m FetchTauMsg) {
	if m.View != r.view || r.inViewChange || !slices.Contains(r.cfg.CCollectors(m.Seq, m.View), from) {
		return
	}
	s, ok := r.slots[m.Seq]
	if !ok || !s.sentSignShare || s.prePrepareView != m.View || s.sentTau || s.committed {
		return
	}
	msg := SignShareMsg{Seq: m.Seq, View: m.View, Replica: r.id}
	if r.signTau(s, &msg) {
		r.multicast(r.cfg.CCollectors(m.Seq, m.View), msg)
	}
}

func (r *Replica) onFullCommitProof(_ int, m FullCommitProofMsg) {
	s := r.getSlot(m.Seq)
	if s.committed {
		return
	}
	if !s.hasPrePrepare || s.prePrepareView != m.View {
		if m.Seq > r.windowBase && m.Seq <= r.windowBase+r.cfg.Win {
			s.pendingFast = &m
			r.tryRejoinView(m.Seq, m.View)
		}
		return
	}
	if r.suite.fastCommitted(s.hash, m.Sigma) {
		r.acceptFastProof(s, m)
	}
}

// acceptFastProof commits s on a σ(h) known to be valid: verified on
// receipt, or combined — and checked inside the combine — by this very
// collector, which therefore does not verify it a second time.
func (r *Replica) acceptFastProof(s *slot, m FullCommitProofMsg) {
	if r.inViewChange && m.View < r.view {
		r.rejoinView(m.View)
	}
	s.commitProof = &m
	s.commitProofView = m.View
	r.Metrics.FastCommits++
	// §V-F: a fast commit advances the window without a checkpoint quorum.
	if m.Seq > r.cfg.fastGateWindow() {
		if nls := m.Seq - r.cfg.fastGateWindow(); nls > r.windowBase {
			r.windowBase = nls
		}
	}
	r.commit(s, s.reqs)
}

// ---------------------------------------------------------------------------
// Linear-PBFT slow path: prepare → commit → full-commit-proof-slow.

func (r *Replica) onPrepare(_ int, m PrepareMsg) {
	if m.View != r.view || r.inViewChange {
		return
	}
	s := r.getSlot(m.Seq)
	if !s.hasPrePrepare || s.prePrepareView != m.View {
		return
	}
	// With an equal-or-higher prepare already held there is nothing to
	// verify; the commit share may still go out once.
	if !(s.hasPrepare && s.prepareView >= m.View) && r.suite.Tau.Verify(s.hash[:], m.Tau) != nil {
		return
	}
	r.acceptPrepare(s, m)
}

// acceptPrepare records a τ(h) known to be valid — verified on receipt, or
// combined and checked by this very collector — and answers it with this
// replica's commit share.
func (r *Replica) acceptPrepare(s *slot, m PrepareMsg) {
	s.holdPrepare(m.View, m.Tau)
	if s.committed || s.sentCommitShare {
		return
	}
	s.sentCommitShare = true
	share, err := r.keys.Tau.Sign(tauTauDigest(s.prepareTau))
	if err != nil {
		return
	}
	r.multicast(r.cfg.CCollectors(m.Seq, m.View), CommitMsg{Seq: m.Seq, View: m.View, Replica: r.id, TauTau: share})
}

// holdPrepare keeps τ(h) of view as the slot's prepare certificate, with
// the block it certifies, unless one from as high a view is held already.
func (s *slot) holdPrepare(view uint64, tau threshsig.Signature) {
	if !s.hasPrepare || s.prepareView < view {
		s.hasPrepare = true
		s.prepareView = view
		s.prepareTau = tau
		s.prepareReqs = s.reqs
		s.prepareHash = s.hash
	}
}

func (r *Replica) onFullCommitProofSlow(_ int, m FullCommitProofSlowMsg) {
	s := r.getSlot(m.Seq)
	if s.committed {
		return
	}
	if !s.hasPrePrepare || s.prePrepareView != m.View {
		if m.Seq > r.windowBase && m.Seq <= r.windowBase+r.cfg.Win {
			s.pendingSlow = &m
			r.tryRejoinView(m.Seq, m.View)
		}
		return
	}
	// τ(h) needs no second check when it is the very prepare certificate
	// onPrepare accepted for this block.
	held := s.hasPrepare && s.prepareView == m.View && s.prepareHash == s.hash &&
		bytes.Equal(s.prepareTau.Data, m.Tau.Data)
	if r.suite.slowCommitted(s.hash, m.Tau, m.TauTau, held) {
		r.acceptSlowProof(s, m)
	}
}

// acceptSlowProof commits s on a τ(τ(h)) chain known to be valid (see
// acceptFastProof).
func (r *Replica) acceptSlowProof(s *slot, m FullCommitProofSlowMsg) {
	if r.inViewChange && m.View < r.view {
		r.rejoinView(m.View)
	}
	s.commitSlow = &m
	s.commitSlowView = m.View
	s.holdPrepare(m.View, m.Tau)
	r.Metrics.SlowCommits++
	r.commit(s, s.reqs)
}

// commit is the one place a block becomes committed, whichever certificate
// or new-view decision brought it: the collectors stand down, execution is
// tried, and the primary's proposal rule hears its clock tick.

func (r *Replica) commit(s *slot, reqs []Request) {
	if s.committed {
		return
	}
	s.committed = true
	s.committedReqs = reqs
	switch {
	case s.commitSlow != nil:
		r.eagerTau = r.activeWindow()
	case s.commitProof != nil && r.eagerTau > 0:
		r.eagerTau--
	}
	s.fastTimer.stop()
	s.staggerTimer.stop()
	r.executeReady()
	r.armProgressTimer()
	r.checkGap()
	// A commit is the clock of the proposal rule: it releases what the
	// primary held behind this slot, or queued behind a full window.
	r.lastCommitted = reqs
	r.proposeIfReady(true)
}
