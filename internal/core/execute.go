package core

import (
	"bytes"
	"errors"
	"slices"
	"time"

	"sbft/internal/crypto/threshsig"
)

// This file is the execution stage (§V-D): gap repair below the execution
// frontier, in-order execution through the exactly-once filter, the
// E-collectors' execution certificate, the single-message acknowledgement
// and its f+1 fallback; and install, where state transfer moves the
// execution frontier instead.

// execState is what a slot holds once its block executes, and what this
// replica holds for it as one of its E-collectors.
type execState struct {
	// execReqs is the exactly-once subset of committedReqs actually fed to
	// the application (requests already executed for their client at an
	// earlier sequence are skipped deterministically).
	execReqs []Request
	executed bool

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

// checkGap detects an execution gap — a committed block above an
// uncommitted one — and arms the repair timer (§II re-transmit layer).
func (r *Replica) checkGap() {
	if r.gapTimer.armed() || r.cfg.GapRepairTimeout <= 0 || !r.hasGap() {
		return
	}
	r.gapTimer.arm(r.env, r.cfg.GapRepairTimeout, func() {
		if !r.hasGap() {
			r.gapAttempt = 0
			return
		}
		missing := r.lastExecuted + 1
		// Rotate through peers across attempts.
		peer := (int(missing)+r.gapAttempt)%r.cfg.N() + 1
		if peer == r.id {
			peer = peer%r.cfg.N() + 1
		}
		r.gapAttempt++
		r.env.Send(peer, FetchCommitMsg{Replica: r.id, Seq: missing})
		r.checkGap()
	})
}

// hasGap reports whether execution is stalled behind a committed block.
func (r *Replica) hasGap() bool {
	next := r.lastExecuted + 1
	if s, ok := r.slots[next]; ok && s.committed {
		return false // executeReady will handle it
	}
	for seq, s := range r.slots {
		if seq > next && s.committed {
			return true
		}
	}
	return r.lastStable > r.lastExecuted
}

func (r *Replica) onFetchCommit(_ int, m FetchCommitMsg) {
	s, ok := r.slots[m.Seq]
	if !ok || !s.committed {
		// Possibly garbage-collected: offer the snapshot instead, if one
		// covers the sequence.
		r.snaps.onFetchState(FetchStateMsg{Replica: m.Replica, Seq: m.Seq})
		return
	}
	info := CommitInfoMsg{Seq: m.Seq, Reqs: s.committedReqs}
	switch {
	case s.commitProof != nil:
		info.HasFast = true
		info.View = s.commitProofView
		info.Sigma = s.commitProof.Sigma
	case s.commitSlow != nil:
		info.View = s.commitSlowView
		info.Tau = s.commitSlow.Tau
		info.TauTau = s.commitSlow.TauTau
	default:
		// Committed through a new-view decision without a retained
		// certificate; the requester will try another peer.
		return
	}
	r.env.Send(m.Replica, info)
}

func (r *Replica) onCommitInfo(_ int, m CommitInfoMsg) {
	if m.Seq <= r.lastExecuted {
		return
	}
	s := r.getSlot(m.Seq)
	if s.committed {
		return
	}
	h := BlockHash(m.Seq, m.View, m.Reqs)
	if m.HasFast {
		if !r.suite.fastCommitted(h, m.Sigma) {
			return
		}
		s.commitProof = &FullCommitProofMsg{Seq: m.Seq, View: m.View, Sigma: m.Sigma}
		s.commitProofView = m.View
	} else {
		if !r.suite.slowCommitted(h, m.Tau, m.TauTau, false) {
			return
		}
		s.commitSlow = &FullCommitProofSlowMsg{Seq: m.Seq, View: m.View, Tau: m.Tau, TauTau: m.TauTau}
		s.commitSlowView = m.View
	}
	if !s.hasPrePrepare {
		s.hasPrePrepare = true
		s.prePrepareView = m.View
	}
	s.reqs = m.Reqs
	s.hash = h
	r.Metrics.GapRepairs++
	r.commit(s, m.Reqs)
}

// executeReady executes committed blocks in sequence order (§V-D execute
// trigger).
func (r *Replica) executeReady() {
	advanced := false
	defer func() {
		if advanced {
			r.resetProgressTimer()
			r.checkGap()
			r.fetcher.dropStale()
		}
	}()
	for {
		next := r.lastExecuted + 1
		s, ok := r.slots[next]
		if !ok || !s.committed || s.executed {
			return
		}
		advanced = true
		// Exactly-once execution: the same request can legitimately commit
		// at two sequence numbers (a retried request re-proposed across a
		// view change, or a Byzantine primary double-proposing); replicas
		// skip the second occurrence deterministically, keyed on the reply
		// cache — the classic PBFT last-reply-timestamp rule.
		s.execReqs = s.committedReqs[:0:0]
		for _, req := range s.committedReqs {
			if ent, ok := r.replyCache[req.Client]; ok && ent.timestamp >= req.Timestamp {
				r.Metrics.DedupSkips++
				continue
			}
			dup := false
			for _, e := range s.execReqs {
				if e.Client == req.Client && e.Timestamp >= req.Timestamp {
					dup = true
					break
				}
			}
			if dup {
				r.Metrics.DedupSkips++
				continue
			}
			s.execReqs = append(s.execReqs, req)
		}
		ops := make([][]byte, len(s.execReqs))
		for i, req := range s.execReqs {
			ops[i] = req.Op
		}
		results := r.app.ExecuteBlock(next, ops)
		s.executed = true
		r.lastExecuted = next
		r.Metrics.Executions++
		if len(s.committedReqs) == 0 {
			r.Metrics.NullBlocks++
		}
		if r.store != nil {
			if err := r.store.Append(next, EncodeBlockPayload(s.execReqs, results)); err != nil {
				r.Metrics.StoreErrors++
			}
		}
		digest := r.app.Digest()

		// Cache replies and serve direct-path replies.
		for i, req := range s.execReqs {
			r.replyCache[req.Client] = replyCacheEntry{
				timestamp: req.Timestamp, seq: next, l: i, val: results[i],
			}
			// The reply cache now covers every timestamp ≤ this one, so the
			// `seen` dedup entry is redundant — drop it. Without this GC,
			// seen grows one entry per client forever (unbounded memory
			// under churning client populations); with it, seen holds only
			// clients with genuinely in-flight requests.
			if ts, ok := r.seen[req.Client]; ok && ts <= req.Timestamp {
				delete(r.seen, req.Client)
			}
			if w, ok := r.watch[req.Client]; ok && w.ts <= req.Timestamp {
				delete(r.watch, req.Client)
			}
			if !r.cfg.ExecCollectors || req.Direct {
				r.env.Send(req.Client, ReplyMsg{
					Seq: next, L: i, Replica: r.id, View: r.view,
					Client: req.Client, Timestamp: req.Timestamp, Val: results[i],
				})
			}
		}
		r.prunePending(nil) // executed requests retained for future primaries

		// Sign-state phase (§V-D) — only useful when exec collectors are
		// enabled.
		if r.cfg.ExecCollectors {
			if r.cfg.ECollectors(next, 0)[0] == r.id {
				s.ackProofs = r.proveBlock(s)
			}
			share, err := r.keys.Pi.Sign(stateSigDigest(next, digest))
			if err == nil {
				r.multicast(r.cfg.ECollectors(next, 0), SignStateMsg{Seq: next, Replica: r.id, Digest: digest, PiSig: share})
			} else {
				r.Metrics.CaptureFailures++
			}
			// If this replica is an E-collector that combined the π
			// certificate before executing locally, release the acks now.
			r.sendExecuteAcks(s)
			// Fallback: if every E-collector of this sequence is crashed,
			// serve clients directly after a timeout so the single
			// correct-collector liveness assumption degrades gracefully.
			if r.cfg.ExecFallbackTimeout > 0 && len(s.execReqs) > 0 {
				r.fallbacks = append(r.fallbacks, fallbackDue{seq: next, at: r.env.Now() + r.cfg.ExecFallbackTimeout})
				r.armFallback()
			}
		}

		// Periodic checkpoint (§V-F), taken NOW: before the next block
		// executes, application state and reply table are exactly at next.
		if next%r.cfg.checkpointEvery() == 0 {
			r.initiateCheckpoint(next, digest)
		}
	}
}

func (r *Replica) onSignState(from int, m SignStateMsg) {
	if from != m.Replica || !slices.Contains(r.cfg.ECollectors(m.Seq, 0), r.id) {
		return
	}
	s := r.getSlot(m.Seq)
	if len(s.execPi.Data) > 0 {
		return
	}
	r.admitShare(m.Replica, SharePi, stateSigDigest(m.Seq, m.Digest), m.PiSig, func() {
		if len(s.execPi.Data) > 0 {
			return
		}
		if s.piShares == nil {
			s.piShares = make(map[string]map[int]threshsig.Share)
		}
		if fileByDigest(s.piShares, m.Digest, m.PiSig) != nil {
			r.tryExecCert(s, m.Digest)
		}
	})
}

// fileByDigest files a π share under the digest it signs and returns that
// digest's table, or nil for a signer already on file. Grouping by digest
// means only a digest f+1 distinct replicas vouch for (at least one
// honest) can be certified, so a Byzantine replica's signed-garbage digest
// can never block or hijack the certificate. One share per replica ACROSS
// the groups bounds them at n entries and keeps duplicate deliveries
// cheap; a Byzantine double-voter merely wastes its place on its first
// digest.
func fileByDigest(groups map[string]map[int]threshsig.Share, digest []byte, share threshsig.Share) map[int]threshsig.Share {
	for _, g := range groups {
		if _, dup := g[share.Signer]; dup {
			return nil
		}
	}
	group := groups[string(digest)]
	if group == nil {
		group = make(map[int]threshsig.Share)
		groups[string(digest)] = group
	}
	group[share.Signer] = share
	return group
}

// tryExecCert combines and broadcasts the f+1 execution certificate π(d)
// for an executed sequence (§V-D), staggered across redundant
// E-collectors. Its completion works on the slot it was started for: a
// checkpoint may collect the slot while the combine is in flight, and the
// clients of that block still get their execute-acks.
func (r *Replica) tryExecCert(s *slot, digest []byte) {
	group := s.piShares[string(digest)]
	if s.sentExecCert || len(group) < r.cfg.QuorumExec() {
		return
	}
	s.sentExecCert = true
	s.execDigest = digest
	fire := func() {
		if r.execCertified(s) {
			return // another E-collector already certified this sequence
		}
		r.csink.Combine(SharePi, stateSigDigest(s.seq, digest), sharesList(group), func(pi threshsig.Signature, err error) {
			if r.blame(group, err) {
				s.sentExecCert = false
				r.tryExecCert(s, digest)
			}
			if err != nil {
				return
			}
			s.execPi = pi
			r.broadcast(FullExecuteProofMsg{Seq: s.seq, Digest: digest, Pi: pi})
			r.sendExecuteAcks(s)
		})
	}
	r.afterStagger(slices.Index(r.cfg.ECollectors(s.seq, 0), r.id), fire)
}

// sendExecuteAcks sends each client of block s its single execute-ack
// with a Merkle proof (§V-D). It requires both the combined π certificate
// and local execution of the block; whichever happens last triggers the
// acks (executeReady re-invokes it after executing).
func (r *Replica) sendExecuteAcks(s *slot) {
	if s.execAcked || len(s.execPi.Data) == 0 || !s.executed {
		return
	}
	s.execAcked = true
	if s.ackProofs == nil {
		s.ackProofs = r.proveBlock(s)
	}
	for i, proof := range s.ackProofs {
		req := s.execReqs[i]
		ent, ok := r.replyCache[req.Client]
		if proof == nil || !ok || ent.seq != s.seq {
			continue
		}
		r.env.Send(req.Client, ExecuteAckMsg{
			Seq: s.seq, L: i, Val: ent.val,
			Client: req.Client, Timestamp: req.Timestamp, View: r.view,
			Digest: s.execDigest, Pi: s.execPi, Proof: proof,
		})
	}
}

// owesAcks reports whether this replica executed s as one of its
// E-collectors and has yet to acknowledge its clients: recordStable keeps
// such a slot, for the π shares still to come must find it.
func (r *Replica) owesAcks(s *slot) bool {
	return s.executed && !s.execAcked && r.cfg.ExecCollectors && slices.Contains(r.cfg.ECollectors(s.seq, 0), r.id)
}

// proveBlock returns the Merkle proof of each client operation in the
// executed block s, nil where there is none to send.
func (r *Replica) proveBlock(s *slot) [][]byte {
	proofs := make([][]byte, len(s.execReqs))
	for i, req := range s.execReqs {
		if req.Direct {
			continue // direct requests already got PBFT-style replies
		}
		proof, err := r.app.ProveOperation(s.seq, i)
		if err != nil {
			r.Metrics.CaptureFailures++
		}
		proofs[i] = proof
	}
	return proofs
}

// fallbackDue is one executed block awaiting its execution certificate:
// at is when execFallback runs for it.
type fallbackDue struct {
	seq uint64
	at  time.Duration
}

// armFallback runs one timer for the head of r.fallbacks. Blocks join the
// queue as they execute, all with the same timeout, so it is in deadline
// order and each block's fallback runs when its own timer would have.
func (r *Replica) armFallback() {
	if r.fallbackTimer.armed() || len(r.fallbacks) == 0 {
		return
	}
	r.fallbackTimer.arm(r.env, max(0, r.fallbacks[0].at-r.env.Now()), func() {
		for len(r.fallbacks) > 0 && r.fallbacks[0].at <= r.env.Now() {
			seq := r.fallbacks[0].seq
			r.fallbacks = r.fallbacks[1:]
			r.execFallback(seq)
		}
		r.armFallback()
	})
}

// execFallback sends direct replies to the clients of block seq when no
// full-execute-proof arrived in time (crashed E-collectors).
func (r *Replica) execFallback(seq uint64) {
	s, ok := r.slots[seq]
	if !ok || !s.executed || r.execCertified(s) {
		return
	}
	r.Metrics.ExecFallbacks++
	for i, req := range s.execReqs {
		ent, ok := r.replyCache[req.Client]
		if !ok || ent.seq != seq || ent.timestamp != req.Timestamp {
			continue
		}
		r.env.Send(req.Client, ReplyMsg{
			Seq: seq, L: i, Replica: r.id, View: r.view,
			Client: req.Client, Timestamp: req.Timestamp, Val: ent.val,
		})
	}
}

// onFullExecuteProof keeps an E-collector's proof for execCertified; it
// is not verified here because in the common case nothing ever asks.
func (r *Replica) onFullExecuteProof(from int, m FullExecuteProofMsg) {
	s, ok := r.slots[m.Seq]
	if !ok || s.execCertSeen {
		return
	}
	ecs := r.cfg.ECollectors(m.Seq, 0)
	if i := slices.Index(ecs, from); i >= 0 {
		if s.execProofs == nil {
			s.execProofs = make([]FullExecuteProofMsg, len(ecs))
		}
		s.execProofs[i] = m
	}
	// Execution certificates cover only the application digest; checkpoint
	// stability now requires the certified execution-state root (which
	// also commits the last-reply table), carried by checkpoint shares —
	// the two certificate families are domain-separated and cannot stand
	// in for each other.
}

// execCertified reports whether a valid π(d) for s is known to exist. The
// proofs received are verified only here, where the answer decides
// something — and not even here once every client of the block has been
// served: with nobody left to answer, a held proof is taken at its word.
func (r *Replica) execCertified(s *slot) bool {
	s.execCertSeen = s.execCertSeen || len(s.execPi.Data) > 0 // this collector's own π(d)
	if s.execCertSeen || len(s.execProofs) == 0 {
		return s.execCertSeen
	}
	waiting := false
	for _, req := range s.execReqs {
		ent, ok := r.replyCache[req.Client]
		waiting = waiting || ok && ent.seq == s.seq && ent.timestamp == req.Timestamp
	}
	if !waiting {
		return true
	}
	for _, m := range s.execProofs {
		if len(m.Pi.Data) > 0 && r.suite.Pi.Verify(stateSigDigest(m.Seq, m.Digest), m.Pi) == nil {
			s.execCertSeen = true
			break
		}
	}
	s.execProofs = nil
	return s.execCertSeen
}

// install implements fetchHost: it moves the execution frontier to a
// fully transferred, chunk-verified snapshot. The application is restored,
// the last-reply table replaced with the CERTIFIED one (the exactly-once
// filter's state is now exactly what the π quorum signed), and execution
// resumes from the restored frontier.
func (r *Replica) install(cs *CertifiedSnapshot) error {
	appBytes, tableBytes, err := AssembleSnapshot(cs.Header, cs.Chunks)
	if err != nil {
		return err // unreachable with verified chunks
	}
	// A malformed certified table is one the honest quorum never signs, so
	// this replica's decoder and the cluster disagree — do not install half
	// a snapshot.
	table, err := decodeReplyTable(tableBytes)
	if err != nil {
		return err
	}
	if err := r.app.Restore(appBytes); err != nil {
		return err
	}
	if !bytes.Equal(r.app.Digest(), cs.Header.AppDigest) {
		// Defense in depth: chunks were leaf-verified, so this indicates
		// local divergence, not a tampering server.
		return errors.New("restored app digest mismatch")
	}
	r.snaps.restored()
	r.replyCache = table
	for client, e := range table {
		if ts := r.seen[client]; ts < e.timestamp {
			r.seen[client] = e.timestamp
		}
		// Requests the certified table proves executed are no longer
		// pending: drop their watch entries, or the liveness timer keeps
		// firing (and spinning view changes) over work that finished
		// below the snapshot and will never execute locally.
		if w, ok := r.watch[client]; ok && w.ts <= e.timestamp {
			delete(r.watch, client)
		}
	}
	r.lastExecuted = cs.Seq
	// Drop protocol state the snapshot supersedes: slots at or below the
	// restored frontier can never execute locally (their effects are IN
	// the snapshot) and an uncommitted one would read as outstanding work
	// forever, spinning progress-timeout view changes. recordStable has
	// typically already run for this checkpoint — that is what triggered
	// the transfer — and stopped its GC at the OLD execution frontier, so
	// it will not run again below.
	dropThrough(r.slots, cs.Seq)
	dropThrough(r.directReq, cs.Seq)
	r.snaps.adopt(cs)
	r.recordStable(cs.Seq, cs.Root(), cs.Pi)
	r.executeReady()
	return nil
}
