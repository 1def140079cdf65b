package core

import (
	"cmp"
	"slices"
	"time"
)

// This file implements SBFT's dual-mode view change (§V-G): the protocol
// that preserves safety when the fast path and the linear-PBFT path run
// concurrently, and liveness through exponential back-off and the f+1 join
// rule (§VII).

// maxBackoffShift caps the exponential view-change back-off.
const maxBackoffShift = 6

// vcKept bounds the view changes kept per replica: its lowest live ones,
// which the join rule picks from.
const vcKept = 4

func (r *Replica) vcTimeout() time.Duration {
	shift := r.vcBackoff
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	return r.cfg.ViewChangeTimeout << shift
}

// hasOutstandingWork reports whether the replica is waiting on progress:
// watched client requests or accepted-but-uncommitted blocks.
func (r *Replica) hasOutstandingWork() bool {
	if len(r.watch) > 0 {
		return true
	}
	for _, s := range r.slots {
		if s.hasPrePrepare && !s.committed {
			return true
		}
	}
	return false
}

// armProgressTimer arms the liveness timer if it is not already running:
// if no execution progress happens before it fires, the replica starts a
// view change (§VII). It deliberately does NOT reset a pending timer —
// duplicate client retries must not postpone the timeout.
func (r *Replica) armProgressTimer() {
	if r.progressTimer.armed() || r.inViewChange || !r.hasOutstandingWork() {
		return
	}
	r.progressTimer.arm(r.env, r.vcTimeout(), func() {
		if !r.inViewChange && r.hasOutstandingWork() {
			// A replica catching up through an ADVANCING state transfer is
			// stalled behind the fetch, not behind a faulty primary: the
			// certified checkpoints feeding the transfer prove the cluster
			// is making progress, so a view change would only tear this
			// replica out of the view everyone else is happily in. A
			// genuinely cluster-wide stall still reaches it through the
			// f+1 view-change join rule (§VII); a DEAD transfer falls
			// through to the normal timeout below.
			if r.fetcher.advancing() {
				r.armProgressTimer()
				return
			}
			r.startViewChange(r.view + 1)
		}
	})
}

// resetProgressTimer restarts the liveness timer after real progress
// (execution frontier advanced or a new view installed).
func (r *Replica) resetProgressTimer() {
	r.progressTimer.stop()
	r.armProgressTimer()
}

// startViewChange moves the replica to the view-change state targeting
// `target` and broadcasts its view-change message.
func (r *Replica) startViewChange(target uint64) {
	if target <= r.view && r.inViewChange {
		return
	}
	if target <= r.view {
		target = r.view + 1
	}
	r.inViewChange = true
	r.view = target
	r.vcResent = false
	r.Metrics.ViewChanges++
	r.progressTimer.stop()
	r.batchTimer.stop()
	vc := r.buildViewChange(target)
	r.broadcast(vc)
	// A rejoin below may have left a view change of ours standing at or
	// above target; the new one supersedes it.
	r.vcs[r.id] = r.vcs[r.id][:0]
	r.onViewChange(r.id, vc)
	// If the new primary fails to install the view, escalate.
	r.vcTimer.stop()
	r.vcBackoff++
	r.vcTimer.arm(r.env, r.vcTimeout(), func() {
		if r.inViewChange {
			r.startViewChange(r.view + 1)
		}
	})
}

// buildViewChange assembles ⟨"view-change", v, ls, x_ls..x_ls+win⟩ from
// local slot state (§V-G view-change phase).
func (r *Replica) buildViewChange(target uint64) ViewChangeMsg {
	vc := ViewChangeMsg{
		NewView:      target,
		Replica:      r.id,
		LastStable:   r.lastStable,
		StableDigest: r.stableDigest,
		StablePi:     r.stablePi,
	}
	seqs := make([]uint64, 0, len(r.slots))
	for seq := range r.slots {
		if seq > r.lastStable && seq <= r.lastStable+r.cfg.Win {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		s := r.slots[seq]
		si := SlotInfo{Seq: seq}
		used := false

		// lm_j: slow-path evidence.
		if s.commitSlow != nil {
			si.HasCommitProofSlow = true
			si.TauTau = s.commitSlow.TauTau
			si.Tau = s.commitSlow.Tau
			si.SlowView = s.commitSlowView
			si.SlowReqs = s.committedReqs
			used = true
		} else if s.hasPrepare {
			si.HasPrepare = true
			si.PrepareTau = s.prepareTau
			si.PrepareView = s.prepareView
			si.PrepareReqs = s.prepareReqs
			used = true
		}

		// fm_j: fast-path evidence.
		if s.commitProof != nil {
			si.HasCommitProof = true
			si.Sigma = s.commitProof.Sigma
			si.FastView = s.commitProofView
			si.FastReqs = s.committedReqs
			used = true
		} else if s.hasPrePrepare {
			hash := BlockHash(seq, s.prePrepareView, s.reqs)
			if share, err := r.keys.Sigma.Sign(hash[:]); err == nil {
				si.HasPrePrepare = true
				si.SigmaShare = share
				si.PrePrepareView = s.prePrepareView
				si.PrePrepareReqs = s.reqs
				used = true
			}
		}
		if used {
			vc.Slots = append(vc.Slots, si)
		}
	}
	return vc
}

// validateViewChange checks the stable-checkpoint proof of a view-change
// message. Slot components are validated individually during safe-value
// computation so a Byzantine replica cannot poison the whole message.
func (r *Replica) validateViewChange(vc *ViewChangeMsg) bool {
	if vc.LastStable == 0 {
		return true
	}
	return r.suite.Pi.Verify(CheckpointSigDigest(vc.LastStable, vc.StableDigest), vc.StablePi) == nil
}

// vcLive reports whether a view change for view v can still matter: v is
// above ours, or is ours while its view change runs.
func (r *Replica) vcLive(v uint64) bool { return v > r.view || v == r.view && r.inViewChange }

// fileViewChange keeps m among its sender's view changes, sorted by view:
// the first per view, for at most vcKept of the lowest live views.
func (r *Replica) fileViewChange(m ViewChangeMsg) bool {
	kept := slices.DeleteFunc(r.vcs[m.Replica], func(vc ViewChangeMsg) bool { return !r.vcLive(vc.NewView) })
	r.vcs[m.Replica] = kept
	i, dup := slices.BinarySearchFunc(kept, m, func(a, b ViewChangeMsg) int { return cmp.Compare(a.NewView, b.NewView) })
	if dup || i == vcKept || !r.validateViewChange(&m) {
		return false
	}
	r.vcs[m.Replica] = slices.Insert(kept, i, m)[:min(len(kept)+1, vcKept)]
	return true
}

func (r *Replica) onViewChange(from int, m ViewChangeMsg) {
	if from != m.Replica {
		return // authenticated channels bind sender identity (§V-B)
	}
	if !r.vcLive(m.NewView) || !r.fileViewChange(m) {
		return
	}

	// A primary that was down while the cohort broadcast its view-change
	// messages rejoins by escalating on its own: it announces the target
	// view holding only its own message, and nobody rebroadcasts (a view
	// change is sent once). Seeing the primary of our view itself demand
	// it is the cue to re-unicast our view-change, so the new-view quorum
	// can assemble at the one replica able to install it. One resend per
	// view change bounds the overhead at a single extra message.
	if m.Replica == r.cfg.Primary(m.NewView) && m.Replica != r.id &&
		m.NewView == r.view && !r.vcResent {
		r.vcResent = true
		r.env.Send(m.Replica, r.buildViewChange(m.NewView))
	}

	// f+1 join rule (§VII): if f+1 replicas demand views above ours, join
	// the smallest view demanded.
	if !r.inViewChange || m.NewView > r.view {
		above, minAbove := 0, uint64(0)
		for _, kept := range r.vcs {
			if i := slices.IndexFunc(kept, func(vc ViewChangeMsg) bool { return vc.NewView > r.view }); i >= 0 {
				above++
				if minAbove == 0 || kept[i].NewView < minAbove {
					minAbove = kept[i].NewView
				}
			}
		}
		if above > r.cfg.F {
			r.startViewChange(minAbove)
		}
	}

	// New-primary phase: gather 2f+2c+1 view-change messages (§V-G).
	r.tryInstallView(m.NewView)
}

func (r *Replica) tryInstallView(target uint64) {
	if r.cfg.Primary(target) != r.id {
		return
	}
	if target < r.view || (target == r.view && !r.inViewChange) {
		return
	}
	// The quorum is the lowest ids with a view change for target.
	q := r.cfg.QuorumViewChange()
	nv := NewViewMsg{View: target}
	for _, kept := range r.vcs {
		for _, vc := range kept {
			if vc.NewView == target && len(nv.ViewChanges) < q {
				nv.ViewChanges = append(nv.ViewChanges, vc)
			}
		}
	}
	if len(nv.ViewChanges) < q {
		return
	}
	r.broadcast(nv)
	r.onNewView(r.id, nv)
}

// slotDecision is the outcome of the safe-value computation for one slot.
type slotDecision struct {
	seq uint64
	// decided: a commit certificate was present; commit reqs directly.
	decided bool
	// reqs is the value to adopt (nil-length = null block) when !decided.
	reqs []Request
}

// computeSafeValues runs the §V-G new-view computation over a validated
// set of view-change messages, returning per-slot decisions for
// (ls, maxUsed]. All replicas run it identically, so they agree without
// trusting the new primary (§VII).
func computeSafeValues(cfg Config, suite CryptoSuite, newView uint64, vcs []ViewChangeMsg) (ls uint64, decisions []slotDecision) {
	// ls := highest correctly-proven stable sequence number.
	for _, vc := range vcs {
		if vc.LastStable > ls {
			ls = vc.LastStable
		}
	}
	maxUsed := ls
	for _, vc := range vcs {
		for _, si := range vc.Slots {
			if si.Seq > maxUsed {
				maxUsed = si.Seq
			}
		}
	}
	for j := ls + 1; j <= maxUsed; j++ {
		decisions = append(decisions, computeSlotDecision(cfg, suite, j, vcs))
	}
	return ls, decisions
}

// computeSlotDecision implements the per-slot safe-value rules of §V-G.
func computeSlotDecision(cfg Config, suite CryptoSuite, j uint64, vcs []ViewChangeMsg) slotDecision {
	dec := slotDecision{seq: j}

	type fastShare struct {
		view uint64
		key  string
		reqs []Request
	}
	var fastShares []fastShare

	// v* and req*: the highest valid prepare certificate (slow path).
	vStar := int64(-1)
	var reqStar []Request

	for _, vc := range vcs {
		for _, si := range vc.Slots {
			if si.Seq != j {
				continue
			}
			// Decided certificates short-circuit.
			if si.HasCommitProofSlow {
				h := BlockHash(j, si.SlowView, si.SlowReqs)
				if suite.slowCommitted(h, si.Tau, si.TauTau, false) {
					dec.decided = true
					dec.reqs = si.SlowReqs
					return dec
				}
			}
			if si.HasCommitProof {
				h := BlockHash(j, si.FastView, si.FastReqs)
				if suite.fastCommitted(h, si.Sigma) {
					dec.decided = true
					dec.reqs = si.FastReqs
					return dec
				}
			}
			if si.HasPrepare {
				h := BlockHash(j, si.PrepareView, si.PrepareReqs)
				if suite.Tau.Verify(h[:], si.PrepareTau) == nil {
					if int64(si.PrepareView) > vStar {
						vStar = int64(si.PrepareView)
						reqStar = si.PrepareReqs
					}
				}
			}
			if si.HasPrePrepare {
				h := BlockHash(j, si.PrePrepareView, si.PrePrepareReqs)
				if si.SigmaShare.Signer == vc.Replica &&
					suite.Sigma.VerifyShare(h[:], si.SigmaShare) == nil {
					key := reqsKey(si.PrePrepareReqs)
					fastShares = append(fastShares, fastShare{
						view: si.PrePrepareView,
						key:  key,
						reqs: si.PrePrepareReqs,
					})
				}
			}
		}
	}

	// v̂ and req̂: the highest view for which a unique value is "fast":
	// f+c+1 shares each with view ≥ v̂ (§V-G rule 2).
	need := cfg.F + cfg.C + 1
	byKey := make(map[string][]fastShare)
	for _, fs := range fastShares {
		byKey[fs.key] = append(byKey[fs.key], fs)
	}
	vHat := int64(-1)
	var reqHat []Request
	unique := true
	for _, group := range byKey {
		if len(group) < need {
			continue
		}
		views := make([]uint64, len(group))
		for i, fs := range group {
			views[i] = fs.view
		}
		slices.SortFunc(views, func(a, b uint64) int { return cmp.Compare(b, a) })
		vMax := int64(views[need-1]) // best v with f+c+1 shares of view ≥ v
		switch {
		case vMax > vHat:
			vHat = vMax
			reqHat = group[0].reqs
			unique = true
		case vMax == vHat && reqsKey(reqHat) != group[0].key:
			unique = false
		}
	}
	if !unique {
		vHat = -1
	}

	// Final selection (§V-G rule 3): prefer the slow-path proof on ties.
	switch {
	case vStar >= vHat && vStar > -1:
		dec.reqs = reqStar
	case vHat > vStar:
		dec.reqs = reqHat
	default:
		dec.reqs = nil // null block
	}
	return dec
}

// reqsKey is a view-independent identity for a request block.
func reqsKey(reqs []Request) string {
	h := BlockHash(0, 0, reqs)
	return string(h[:])
}

func (r *Replica) onNewView(from int, m NewViewMsg) {
	if from != r.cfg.Primary(m.View) {
		return
	}
	if m.View < r.view || (m.View == r.view && !r.inViewChange) {
		return
	}
	// Validate the certificate set: quorum size, distinct replica senders,
	// right target view, valid stable proofs.
	if len(m.ViewChanges) < r.cfg.QuorumViewChange() {
		return
	}
	senders := make(map[int]bool)
	for i := range m.ViewChanges {
		vc := &m.ViewChanges[i]
		if vc.NewView != m.View || vc.Replica < 1 || vc.Replica > r.cfg.N() ||
			senders[vc.Replica] || !r.validateViewChange(vc) {
			return
		}
		senders[vc.Replica] = true
	}

	ls, decisions := computeSafeValues(r.cfg, r.suite, m.View, m.ViewChanges)

	// Enter the view.
	r.view = m.View
	r.inViewChange = false
	r.vcBackoff = 0
	r.eagerTau = r.activeWindow()
	r.vcTimer.stop()

	// Advance the stable point if the quorum proved a higher one.
	if ls > r.lastStable {
		i := slices.IndexFunc(m.ViewChanges, func(vc ViewChangeMsg) bool { return vc.LastStable == ls })
		r.recordStable(ls, m.ViewChanges[i].StableDigest, m.ViewChanges[i].StablePi)
	}

	// Reset volatile per-slot state for the new view, keeping evidence
	// needed by future view changes (prepare certificates persist).
	for _, s := range r.slots {
		if s.committed {
			continue
		}
		// Requests stuck in an uncommitted slot would be lost if the new
		// view does not adopt that slot (the proposer's pending queue
		// already dropped them and client retries are deduplicated by
		// `seen`): requeue them for re-proposal. The pending prune below
		// removes any the new view does carry.
		for _, req := range s.reqs {
			r.requeue(req)
		}
		s.sentSignShare = false
		s.sentTau = false
		s.sentCommitShare = false
		s.hasPrePrepare = false
		s.resetCollector(m.View)
	}

	// Apply decisions. The commits among them must not propose: nextSeq
	// and the queue are settled only below, after the last one.
	r.installing = true
	maxSeq := r.lastStable
	inFlight := make(map[int]uint64) // client → highest ts re-proposed/decided
	for _, dec := range decisions {
		if dec.seq > maxSeq {
			maxSeq = dec.seq
		}
		for _, req := range dec.reqs {
			if ts := inFlight[req.Client]; ts < req.Timestamp {
				inFlight[req.Client] = req.Timestamp
			}
		}
		s := r.getSlot(dec.seq)
		if dec.decided {
			if !s.committed {
				if dec.reqs == nil {
					dec.reqs = []Request{}
				}
				s.reqs = dec.reqs
				s.hash = BlockHash(dec.seq, m.View, dec.reqs)
				r.commit(s, dec.reqs)
			}
			continue
		}
		reqs := dec.reqs
		if reqs == nil {
			reqs = []Request{}
		}
		r.acceptPrePrepare(r.cfg.Primary(m.View), PrePrepareMsg{Seq: dec.seq, View: m.View, Reqs: reqs})
	}

	// Requests the new view already carries (re-proposed or decided above)
	// must not be proposed again from the retained pending queue, or the
	// same request would commit at two sequence numbers and execute twice.
	r.prunePending(inFlight)

	r.installing = false
	if r.isPrimary() {
		r.nextSeq = maxSeq + 1
		r.proposeIfReady(true)
	}
	// Replay pre-prepares that raced ahead of this view installation.
	if buf := r.ppBuffer[m.View]; len(buf) > 0 {
		delete(r.ppBuffer, m.View)
		for _, pp := range buf {
			r.onPrePrepare(r.cfg.Primary(m.View), pp)
		}
	}
	dropThrough(r.ppBuffer, m.View)
	if r.lastExecuted < r.lastStable {
		r.fetcher.want(r.lastStable)
	}
	r.resetProgressTimer()
}

// ---------------------------------------------------------------------------
// View synchronizer (§VII liveness): a replica that escalated into a view
// change alone — its progress timer fired on locally-missing traffic the
// rest of the cluster never lost — would previously keep escalating views
// forever while the cluster committed happily without it (the carried
// lone-view-changer hole: fewer than f+1 peers share its suspicion, so the
// join rule never pulls anyone up, and nothing pulled the loner back
// down). The synchronizer closes the hole: certified commit traffic for a
// view LOWER than the loner's own target is cryptographic proof the
// cluster is live in that view, so the replica stands back down and
// rejoins it. Only σ/τ certificates over a known pre-prepare count —
// uncertified chatter (which a Byzantine peer could replay) cannot trigger
// a rejoin.

// rejoinView stands the replica down from a solo view-change escalation
// into the certified lower view. Callers have already verified a commit
// certificate for that view.
func (r *Replica) rejoinView(view uint64) {
	if !r.inViewChange || view >= r.view {
		return
	}
	r.Metrics.ViewRejoins++
	r.view = view
	r.inViewChange = false
	r.vcBackoff = 0
	r.vcTimer.stop()
	r.resetProgressTimer()
}

// tryRejoinView attempts a rejoin from stashed evidence: a commit proof
// for (seq, view) arrived while this replica sat in a view change above
// `view` without having accepted that view's pre-prepare. If the matching
// pre-prepare is buffered and the stashed certificate verifies against its
// block hash, the pair proves the lower view live; rejoin and replay.
func (r *Replica) tryRejoinView(seq, view uint64) {
	if !r.inViewChange || view >= r.view || seq <= r.lastExecuted {
		return
	}
	i := slices.IndexFunc(r.ppBuffer[view], func(pp PrePrepareMsg) bool { return pp.Seq == seq })
	if i < 0 {
		return
	}
	s := r.getSlot(seq)
	h := BlockHash(seq, view, r.ppBuffer[view][i].Reqs)
	pf, ps := s.pendingFast, s.pendingSlow
	certified := pf != nil && pf.View == view && r.suite.fastCommitted(h, pf.Sigma) ||
		ps != nil && ps.View == view && r.suite.slowCommitted(h, ps.Tau, ps.TauTau, false)
	if !certified {
		return
	}
	r.rejoinView(view)
	// Replay the rejoined view's buffered pre-prepares; accepting them
	// replays the stashed certificates, committing the proven slots.
	buf := r.ppBuffer[view]
	delete(r.ppBuffer, view)
	for _, b := range buf {
		r.onPrePrepare(r.cfg.Primary(view), b)
	}
}
