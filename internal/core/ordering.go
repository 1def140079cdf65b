package core

import (
	"bytes"
	"time"

	"sbft/internal/crypto/threshsig"
)

// This file is the ordering stage: from an accepted pre-prepare to commit,
// on the fast path (§V-C) and on the linear-PBFT path (§V-E). What the
// C-collectors do between the two ends is in collector.go.

// slot holds all per-sequence-number protocol state of one replica.
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
	// execReqs is the exactly-once subset of committedReqs actually fed to
	// the application (requests already executed for their client at an
	// earlier sequence are skipped deterministically).
	execReqs []Request
	executed bool

	sentSignShare   bool
	sentCommitShare bool

	// C-collector state (when this replica collects for this slot). The
	// share tables hold one UNVERIFIED share per signer; the combine checks
	// them together (cryptosink.go).
	sigmaShares  map[int]threshsig.Share
	tauShares    map[int]threshsig.Share
	tautauShares map[int]threshsig.Share
	// tauQuorumAt records when the τ quorum was first reached; the gap to
	// the σ quorum feeds the adaptive fast-path timer (§V-E: "an adaptive
	// protocol based on past network profiling to control this timer").
	tauQuorumAt   time.Duration
	tauQuorumSeen bool
	// pendingShares buffers sign-shares that arrived before this
	// collector's own pre-prepare (they cannot be verified yet); replayed
	// by acceptPrePrepare. Without this, WAN reordering starves the fast
	// path of its 3f+c+1 quorum.
	pendingShares []SignShareMsg
	// pendingProofs buffers commit certificates that raced ahead of the
	// pre-prepare.
	pendingFast   *FullCommitProofMsg
	pendingSlow   *FullCommitProofSlowMsg
	collectorView uint64
	sentFastProof bool
	sentPrepare   bool
	sentSlowProof bool
	fastTimer     func() // cancel
	staggerTimer  func() // cancel

	// collectorEpoch is bumped whenever the collector state resets, so
	// sink completions of a dead collector round are dropped, not applied
	// to the fresh tables.
	collectorEpoch uint64

	// E-collector state. π shares are grouped by the digest they sign: a
	// Byzantine replica may send correctly-signed shares over a garbage
	// digest, and first-write-wins bookkeeping would let one such share
	// block the honest f+1 quorum. Per-digest groups make the garbage
	// digest inert (it can never gather f+1 signers, at least one of
	// which would have to be honest).
	piShares     map[string]map[int]threshsig.Share
	execDigest   []byte
	execPi       threshsig.Signature
	sentExecCert bool
	execAcked    bool
	// ackProofs are the clients' Merkle proofs for this block. The first
	// E-collector takes them when it executes the block (a checkpoint may
	// drop the proof material before its certificate completes), a
	// redundant one when it comes to send acks, which is rare.
	ackProofs [][]byte
	// execProofs holds the full-execute-proofs received for this slot, one
	// place per E-collector, UNVERIFIED until execCertified has to know.
	execProofs   []FullExecuteProofMsg
	execCertSeen bool
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
			r.maybeFetchState(r.lastExecuted + 1)
		}
		return
	}
	s := r.getSlot(m.Seq)
	if s.hasPrePrepare && s.prePrepareView == m.View {
		if s.hash != BlockHash(m.Seq, m.View, m.Reqs) {
			// Publicly verifiable equivocation by the primary (§V-G
			// trigger): start a view change immediately.
			r.tracef("equivocation detected at seq=%d", m.Seq)
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
	tauShare, err := r.keys.Tau.Sign(s.hash[:])
	if err != nil {
		r.tracef("tau sign failed: %v", err)
		return
	}
	msg := SignShareMsg{Seq: s.seq, View: s.prePrepareView, Replica: r.id, TauSig: tauShare}
	// §V-F fast-path gate: only join the fast path near the execution
	// frontier so fast commits can advance ls without a checkpoint quorum.
	if r.cfg.FastPath && s.seq <= r.lastExecuted+r.cfg.fastGateWindow() {
		sigmaShare, err := r.keys.Sigma.Sign(s.hash[:])
		if err != nil {
			r.tracef("sigma sign failed: %v", err)
			return
		}
		msg.SigmaSig = sigmaShare
	}
	r.tracef("sign-share seq=%d sigma=%v", s.seq, len(msg.SigmaSig.Data) > 0)
	targets := r.cfg.CCollectors(s.seq, s.prePrepareView)
	sent := map[int]bool{}
	for _, c := range targets {
		if sent[c] {
			continue
		}
		sent[c] = true
		if c == r.id {
			r.onSignShare(r.id, msg)
		} else {
			r.env.Send(c, msg)
		}
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
	if r.suite.Sigma.Verify(s.hash[:], m.Sigma) != nil {
		return
	}
	r.acceptFastProof(s, m)
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
	if !s.hasPrepare || s.prepareView < m.View {
		s.hasPrepare = true
		s.prepareView = m.View
		s.prepareTau = m.Tau
		s.prepareReqs = s.reqs
		s.prepareHash = s.hash
	}
	if s.committed || s.sentCommitShare {
		return
	}
	s.sentCommitShare = true
	share, err := r.keys.Tau.Sign(tauTauDigest(s.prepareTau))
	if err != nil {
		return
	}
	msg := CommitMsg{Seq: m.Seq, View: m.View, Replica: r.id, TauTau: share}
	sent := map[int]bool{}
	for _, c := range r.cfg.CCollectors(m.Seq, m.View) {
		if sent[c] {
			continue
		}
		sent[c] = true
		if c == r.id {
			r.onCommit(r.id, msg)
		} else {
			r.env.Send(c, msg)
		}
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
	// Verify the chain: τ(h) over our block hash — unless it is the very
	// prepare certificate onPrepare accepted for this block — then τ(τ(h)).
	held := s.hasPrepare && s.prepareView == m.View && s.prepareHash == s.hash &&
		bytes.Equal(s.prepareTau.Data, m.Tau.Data)
	if !held && r.suite.Tau.Verify(s.hash[:], m.Tau) != nil {
		return
	}
	if r.suite.Tau.Verify(tauTauDigest(m.Tau), m.TauTau) != nil {
		return
	}
	r.acceptSlowProof(s, m)
}

// acceptSlowProof commits s on a τ(τ(h)) chain known to be valid (see
// acceptFastProof).
func (r *Replica) acceptSlowProof(s *slot, m FullCommitProofSlowMsg) {
	if r.inViewChange && m.View < r.view {
		r.rejoinView(m.View)
	}
	s.commitSlow = &m
	s.commitSlowView = m.View
	if !s.hasPrepare || s.prepareView < m.View {
		s.hasPrepare = true
		s.prepareView = m.View
		s.prepareTau = m.Tau
		s.prepareReqs = s.reqs
		s.prepareHash = s.hash
	}
	r.Metrics.SlowCommits++
	r.commit(s, s.reqs)
}

// ---------------------------------------------------------------------------
// Commit, execution and acknowledgement.

func (r *Replica) commit(s *slot, reqs []Request) {
	if s.committed {
		return
	}
	s.committed = true
	s.committedReqs = reqs
	if s.fastTimer != nil {
		s.fastTimer()
		s.fastTimer = nil
	}
	if s.staggerTimer != nil {
		s.staggerTimer()
		s.staggerTimer = nil
	}
	r.tracef("commit seq=%d (%d reqs)", s.seq, len(reqs))
	r.executeReady()
	r.armProgressTimer()
	r.checkGap()
	// A commit is the clock of the proposal rule: it releases what the
	// primary held behind this slot, or queued behind a full window.
	r.lastCommitted = reqs
	r.proposeIfReady(true)
}
