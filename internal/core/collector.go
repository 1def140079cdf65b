package core

import (
	"errors"
	"slices"
	"sort"
	"time"

	"sbft/internal/crypto/threshsig"
)

// This file is the C-collector role (§V-C, §V-E): share tables, the
// staggered combines, and the threshold-crypto policy they follow, run
// behind the sink of cryptosink.go. DESIGN.md "Optimistic certificate
// assembly" has the reasoning.
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

// collectorState is what a slot holds while this replica is one of its
// C-collectors. The share tables hold one UNVERIFIED share per signer; the
// combine checks them together.
type collectorState struct {
	sigmaShares  map[int]threshsig.Share
	tauShares    map[int]threshsig.Share
	tautauShares map[int]threshsig.Share
	// quorumAt records when sign-shares from 2f+c+1 replicas were first
	// held; the gap to the σ quorum feeds the adaptive fast-path timer
	// (§V-E: "an adaptive protocol based on past network profiling to
	// control this timer").
	quorumAt   time.Duration
	quorumSeen bool
	// pendingShares buffers sign-shares that arrived before this
	// collector's own pre-prepare (they cannot be verified yet); replayed
	// by acceptPrePrepare. Without this, WAN reordering starves the fast
	// path of its 3f+c+1 quorum.
	pendingShares []SignShareMsg
	collectorView uint64
	sentFastProof bool
	sentPrepare   bool
	sentSlowProof bool
	// fastExpired: the fast timer ran out, so a τ quorum prepares at once.
	fastExpired bool
	// fallback: this replica is the primary and has asked every replica
	// for its shares (fallbackFetch); it now collects as the first
	// collector.
	fallback  bool
	fastTimer timer
	// staggerTimer holds a redundant collector's combine back (staggered),
	// and at the primary, its fallbackFetch.
	staggerTimer timer
	// collectorEpoch is bumped whenever the collector state resets, so
	// sink completions of a dead collector round are dropped, not applied
	// to the fresh tables.
	collectorEpoch uint64
}

func (s *collectorState) resetCollector(view uint64) {
	s.sigmaShares = make(map[int]threshsig.Share)
	s.tauShares = make(map[int]threshsig.Share)
	s.tautauShares = make(map[int]threshsig.Share)
	s.collectorView = view
	s.sentFastProof = false
	s.sentPrepare = false
	s.sentSlowProof = false
	s.fastExpired = false
	s.fallback = false
	s.fastTimer.stop()
	s.staggerTimer.stop()
	s.collectorEpoch++
}

// cCollectors returns Config.CCollectors(seq, view), hashed once per slot
// and view while seq has a slot. Callers must not modify it.
func (r *Replica) cCollectors(seq, view uint64) []int {
	s, ok := r.slots[seq]
	if !ok {
		return r.cfg.CCollectors(seq, view)
	}
	if s.cc == nil || s.ccView != view {
		s.cc, s.ccView = r.cfg.CCollectors(seq, view), view
	}
	return s.cc
}

// eCollectors returns Config.ECollectors(seq, 0), hashed once per slot
// while seq has a slot. Callers must not modify it.
func (r *Replica) eCollectors(seq uint64) []int {
	s, ok := r.slots[seq]
	if !ok {
		return r.cfg.ECollectors(seq, 0)
	}
	if s.ec == nil {
		s.ec = r.cfg.ECollectors(seq, 0)
	}
	return s.ec
}

// multicast sends msg to each replica in ids, which lists none twice;
// this replica's own copy goes straight to Deliver.
func (r *Replica) multicast(ids []int, msg Message) {
	for _, id := range ids {
		if id == r.id {
			r.Deliver(id, msg)
		} else {
			r.env.Send(id, msg)
		}
	}
}

// afterStagger runs fire at once for a slot's first collector and after
// idx*CollectorStagger for its idx-th redundant one (§V "we stagger the
// collectors"); fire itself checks whether it is still wanted.
func (r *Replica) afterStagger(idx int, fire func()) {
	if idx <= 0 || r.cfg.CollectorStagger <= 0 {
		fire()
		return
	}
	r.env.After(time.Duration(idx)*r.cfg.CollectorStagger, fire)
}

// collectorIdx is this replica's place among the staggered C-collectors
// of (seq, view), -1 if it is none of them. The primary, the last, takes
// the first place once it has asked for the shares (fallbackFetch).
func (r *Replica) collectorIdx(seq, view uint64) int {
	if s, ok := r.slots[seq]; ok && s.fallback && s.collectorView == view {
		return 0
	}
	return slices.Index(r.cCollectors(seq, view), r.id)
}

func (r *Replica) onSignShare(from int, m SignShareMsg) {
	if m.View != r.view || r.inViewChange || from != m.Replica {
		return
	}
	idx := r.collectorIdx(m.Seq, m.View)
	if idx < 0 {
		return
	}
	s := r.getSlot(m.Seq)
	if s.collectorView != m.View {
		s.resetCollector(m.View)
	}
	if s.sentFastProof && s.sentSlowProof {
		return
	}
	// Shares arriving before our pre-prepare have no block hash to sign:
	// buffer and replay (bounded by two sign-shares per replica: one
	// unasked, one answering a FetchSharesMsg).
	if !s.hasPrePrepare || s.prePrepareView != m.View {
		if len(s.pendingShares) < 2*r.cfg.N() {
			s.pendingShares = append(s.pendingShares, m)
		}
		return
	}
	epoch := s.collectorEpoch
	file := func(table map[int]threshsig.Share, share threshsig.Share) func() {
		return func() {
			if _, dup := table[m.Replica]; dup || !r.collecting(s, epoch, m.View) {
				return
			}
			table[m.Replica] = share
			r.collectorTryProgress(s, m.View, idx)
		}
	}
	if len(m.TauSig.Data) > 0 {
		r.admitShare(m.Replica, ShareTau, s.hash[:], m.TauSig, file(s.tauShares, m.TauSig))
	}
	if len(m.SigmaSig.Data) > 0 {
		r.admitShare(m.Replica, ShareSigma, s.hash[:], m.SigmaSig, file(s.sigmaShares, m.SigmaSig))
	}
}

// signers counts the replicas whose sign-share s holds, σ or τ.
func (s *slot) signers() int {
	n := len(s.tauShares)
	for id := range s.sigmaShares {
		if _, ok := s.tauShares[id]; !ok {
			n++
		}
	}
	return n
}

// owesTau reports whether s holds signer's σ_i(h) but not its τ_i(h).
func (s *slot) owesTau(signer int) bool {
	_, sigma := s.sigmaShares[signer]
	_, tau := s.tauShares[signer]
	return sigma && !tau
}

// collecting reports whether a collector round of s started at epoch in
// view is still the live one — the guard of every sink completion.
func (r *Replica) collecting(s *slot, epoch, view uint64) bool {
	return r.slots[s.seq] == s && s.collectorEpoch == epoch && r.view == view && !r.inViewChange
}

// collectorCombine combines the C-collector table of s over digest and
// hands the certificate to send, unless the round died or the slot
// committed meanwhile (a dead round's verdict is dropped with it: it was
// reached against that round's digest). After a verdict on the shares,
// retry rolls the caller's in-flight flag back and tries what is left.
func (r *Replica) collectorCombine(s *slot, view uint64, digest []byte, table map[int]threshsig.Share, kind ShareKind, retry func(), send func(threshsig.Signature)) {
	epoch := s.collectorEpoch
	r.csink.Combine(kind, append([]byte(nil), digest...), sharesList(table), func(sig threshsig.Signature, err error) {
		switch {
		case !r.collecting(s, epoch, view) || s.committed:
		case err == nil:
			send(sig)
		case r.blame(table, err):
			retry()
		}
	})
}

// fastTimerDuration is the adaptive wait before abandoning the fast path:
// at least the configured floor, stretched to cover the recently observed
// share-arrival spread, and capped so crashed replicas cannot inflate
// latency unboundedly.
func (r *Replica) fastTimerDuration() time.Duration {
	d := max(r.cfg.FastPathTimeout, 2*r.fastSpread.v)
	return min(d, 6*r.cfg.FastPathTimeout)
}

func (r *Replica) collectorTryProgress(s *slot, view uint64, idx int) {
	signers := s.signers()
	if !s.quorumSeen && signers >= r.cfg.QuorumSlow() {
		s.quorumSeen = true
		s.quorumAt = r.env.Now()
	}
	if s.quorumSeen && len(s.sigmaShares) >= r.cfg.QuorumFast() {
		r.fastSpread.observe(r.env.Now() - s.quorumAt)
	}
	// Fast path: combine σ(h) once 3f+c+1 shares arrive. The flag is set
	// before the (staggered, possibly asynchronous) combination so
	// re-entrant progress calls cannot double-combine; a combine that
	// blames a share rolls it back.
	if r.cfg.FastPath && !s.sentFastProof && len(s.sigmaShares) >= r.cfg.QuorumFast() {
		s.sentFastProof = true
		s.fastTimer.stop()
		r.staggered(s, idx, func() {
			r.collectorCombine(s, view, s.hash[:], s.sigmaShares, ShareSigma, func() {
				s.sentFastProof = false
				r.collectorTryProgress(s, view, idx)
			}, func(sig threshsig.Signature) {
				msg := FullCommitProofMsg{Seq: s.seq, View: view, Sigma: sig}
				r.broadcast(msg)
				r.acceptFastProof(s, msg)
			})
		})
		return
	}
	// Slow-path trigger: sign-shares from 2f+c+1 replicas but no σ quorum
	// → wait for the fast timer (skipped when the fast path is disabled),
	// then prepare, staggered so redundant collectors only act if earlier
	// ones stall (§V-E; the primary activates last).
	if s.sentPrepare || signers < r.cfg.QuorumSlow() {
		return
	}
	if s.fastExpired {
		r.slowPrepare(s, view)
		return
	}
	if s.fastTimer.armed() || s.sentFastProof {
		return
	}
	expire := func() {
		s.fastExpired = true
		r.slowPrepare(s, view)
	}
	delay := time.Duration(idx) * r.cfg.CollectorStagger
	if r.cfg.FastPath {
		delay += r.fastTimerDuration()
	}
	if delay == 0 {
		expire()
		return
	}
	s.fastTimer.arm(r.env, delay, func() {
		if r.cfg.FastPath && !s.committed && !s.sentFastProof {
			r.Metrics.CollectorTimeouts++
		}
		expire()
	})
}

// slowPrepare combines τ(h) and broadcasts the prepare once the fast
// timer has run out, asking for the τ shares it lacks first (fetchTau).
func (r *Replica) slowPrepare(s *slot, view uint64) {
	// A prepare already seen from another collector makes ours redundant —
	// but only a CURRENT-view prepare counts: stale prepare evidence from
	// an earlier view must not stop the slot from re-preparing after a
	// view change, or it deadlocks (the chaos harness found exactly this
	// under lossy links).
	if s.sentPrepare || s.sentFastProof || s.committed || s.hasPrepare && s.prepareView >= view {
		return
	}
	if len(s.tauShares) < r.cfg.QuorumSlow() {
		r.fetchTau(s, view)
		return
	}
	s.sentPrepare = true // rolled back when the combine blames a share
	r.collectorCombine(s, view, s.hash[:], s.tauShares, ShareTau, func() {
		s.sentPrepare = false
		r.slowPrepare(s, view) // the timer has run out already: retry at once
	}, func(sig threshsig.Signature) {
		if r.cfg.FastPath {
			r.Metrics.FastPathDowngrades++
		}
		msg := PrepareMsg{Seq: s.seq, View: view, Tau: sig}
		r.broadcast(msg)
		r.acceptPrepare(s, msg)
	})
}

// fetchTau asks each replica whose sign-share came with σ_i(h) alone for
// its τ_i(h), and asks again each fast-timer period while the τ quorum is
// short: a replica whose σ came late, or that was down when asked, is
// asked in the next round.
func (r *Replica) fetchTau(s *slot, view uint64) {
	if s.fastTimer.armed() {
		return // a request is out
	}
	var ids []int
	for id := 1; id <= r.cfg.N(); id++ {
		if s.owesTau(id) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return
	}
	r.Metrics.TauFetches++
	// Armed first: this replica's own answer re-enters here.
	epoch := s.collectorEpoch
	s.fastTimer.arm(r.env, r.fastTimerDuration(), func() {
		if r.collecting(s, epoch, view) {
			r.slowPrepare(s, view)
		}
	})
	r.multicast(ids, FetchSharesMsg{Seq: s.seq, View: view})
}

// staggered runs act immediately for the first collector and after
// idx*CollectorStagger for redundant collectors, cancelling if the slot
// commits meanwhile (§V: staggered collectors monitor in idle). act is the
// combine itself, not just the send, so a redundant collector whose turn
// never comes does no crypto at all.
func (r *Replica) staggered(s *slot, idx int, act func()) {
	if idx <= 0 || r.cfg.CollectorStagger <= 0 {
		act()
		return
	}
	s.staggerTimer.stop() // the primary's fallbackFetch: it holds the shares
	s.staggerTimer.arm(r.env, time.Duration(idx)*r.cfg.CollectorStagger, func() {
		if !s.committed {
			act()
		}
	})
}

func sharesList(m map[int]threshsig.Share) []threshsig.Share {
	out := make([]threshsig.Share, 0, len(m))
	for _, sh := range m {
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Signer < out[j].Signer })
	return out
}

func (r *Replica) onCommit(from int, m CommitMsg) {
	if m.View != r.view || r.inViewChange || from != m.Replica {
		return
	}
	if !slices.Contains(r.cCollectors(m.Seq, m.View), r.id) {
		return
	}
	s := r.getSlot(m.Seq)
	// Only this view's prepare certificate names the digest commit shares
	// sign; against a stale one every honest share would look bad.
	if s.collectorView != m.View || s.sentSlowProof || !s.hasPrepare || s.prepareView != m.View {
		return
	}
	epoch := s.collectorEpoch
	r.admitShare(m.Replica, ShareTau, tauTauDigest(s.prepareTau), m.TauTau, func() {
		if _, dup := s.tautauShares[m.Replica]; dup || !r.collecting(s, epoch, m.View) {
			return
		}
		s.tautauShares[m.Replica] = m.TauTau
		r.trySlowProof(s, m.View)
	})
}

// trySlowProof combines and broadcasts the slow-path commit certificate
// τ(τ(h)) once 2f+c+1 commit shares are in (§V-E), staggered across the
// redundant collectors.
func (r *Replica) trySlowProof(s *slot, view uint64) {
	if len(s.tautauShares) < r.cfg.QuorumSlow() || s.sentSlowProof {
		return
	}
	s.sentSlowProof = true
	epoch := s.collectorEpoch
	fire := func() {
		if !r.collecting(s, epoch, view) || s.committed || s.commitSlow != nil {
			return // superseded, or another collector's proof already landed
		}
		r.collectorCombine(s, view, tauTauDigest(s.prepareTau), s.tautauShares, ShareTau, func() {
			s.sentSlowProof = false
			r.trySlowProof(s, view)
		}, func(sig threshsig.Signature) {
			if s.commitSlow != nil {
				return
			}
			msg := FullCommitProofSlowMsg{Seq: s.seq, View: view, Tau: s.prepareTau, TauTau: sig}
			r.broadcast(msg)
			r.acceptSlowProof(s, msg)
		})
	}
	r.afterStagger(r.collectorIdx(s.seq, view), fire)
}

// admitShare runs count for an arriving share that may go into a
// collector's table: at once for a signer in good standing (the combine
// will check the share together with the rest of its quorum), after an
// individual check through the sink for a signer blamed before. count may
// run after a sink round-trip and must re-check whatever it relies on. A
// share must name its sender as signer: filed unverified under another
// name it would take that signer's place in a table.
func (r *Replica) admitShare(signer int, kind ShareKind, digest []byte, share threshsig.Share, count func()) {
	if share.Signer != signer {
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
