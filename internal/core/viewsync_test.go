package core

import (
	"slices"
	"testing"

	"sbft/internal/crypto/threshsig"
)

// Deterministic tests for the view synchronizer (§VII liveness): a replica
// that escalated into a view change alone must rejoin the lower view when
// it sees certified commit traffic proving the cluster live there — and
// must NOT rejoin on uncertified or forged evidence.

// syncRig wraps the sans-io rig with certificate forges over all four
// replica keys (f=1, c=0, n=4: slow quorum 3, fast quorum 4).
type syncRig struct {
	*rig
}

func newSyncRig(t *testing.T, id int) *syncRig {
	return &syncRig{rig: newRig(t, id, nil)}
}

func (rg *syncRig) tauCert(t *testing.T, digest []byte) threshsig.Signature {
	t.Helper()
	var shares []threshsig.Share
	for i := 0; i < rg.cfg.QuorumSlow(); i++ {
		sh, err := rg.keys[i].Tau.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	sig, err := rg.suite.Tau.Combine(digest, shares)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func (rg *syncRig) slowProof(t *testing.T, seq, view uint64, reqs []Request) FullCommitProofSlowMsg {
	t.Helper()
	h := BlockHash(seq, view, reqs)
	inner := rg.tauCert(t, h[:])
	outer := rg.tauCert(t, tauTauDigest(inner))
	return FullCommitProofSlowMsg{Seq: seq, View: view, Tau: inner, TauTau: outer}
}

func (rg *syncRig) fastProof(t *testing.T, seq, view uint64, reqs []Request) FullCommitProofMsg {
	t.Helper()
	h := BlockHash(seq, view, reqs)
	var shares []threshsig.Share
	for i := 0; i < rg.cfg.QuorumFast(); i++ {
		sh, err := rg.keys[i].Sigma.Sign(h[:])
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	sig, err := rg.suite.Sigma.Combine(h[:], shares)
	if err != nil {
		t.Fatal(err)
	}
	return FullCommitProofMsg{Seq: seq, View: view, Sigma: sig}
}

func syncReqs(tag string) []Request {
	return []Request{{Client: ClientBase, Timestamp: 1, Op: []byte(tag)}}
}

// TestViewSynchronizerRejoinsOnStashedSlowProof is the main rejoin path:
// the loner escalated BEFORE seeing the lower view's pre-prepare, so both
// the pre-prepare and the commit proof arrive while it sits in the view
// change. Buffered pre-prepare + verified stashed certificate must stand
// it back down and commit the slot.
func TestViewSynchronizerRejoinsOnStashedSlowProof(t *testing.T) {
	rg := newSyncRig(t, 2)
	reqs := syncReqs("A")

	rg.r.startViewChange(1)
	if !rg.r.inViewChange || rg.r.view != 1 {
		t.Fatalf("escalation failed: view=%d inVC=%v", rg.r.view, rg.r.inViewChange)
	}

	// The view-0 primary's pre-prepare arrives late: buffered, not dropped.
	rg.r.Deliver(1, PrePrepareMsg{Seq: 1, View: 0, Reqs: reqs})
	if !rg.r.inViewChange {
		t.Fatal("uncertified pre-prepare alone must not trigger a rejoin")
	}

	// Certified commit traffic for view 0 proves the cluster live there.
	rg.r.Deliver(3, rg.slowProof(t, 1, 0, reqs))

	if rg.r.inViewChange || rg.r.view != 0 {
		t.Fatalf("no rejoin: view=%d inVC=%v", rg.r.view, rg.r.inViewChange)
	}
	if rg.r.Metrics.ViewRejoins != 1 {
		t.Fatalf("ViewRejoins = %d, want 1", rg.r.Metrics.ViewRejoins)
	}
	if rg.r.LastExecuted() != 1 {
		t.Fatalf("rejoined slot not executed: lastExecuted=%d", rg.r.LastExecuted())
	}
}

// TestViewSynchronizerRejoinsOnVerifiedFastProof covers the loner that
// accepted the pre-prepare before escalating: the fast commit proof
// verifies directly against the slot and must both commit it and stand
// the replica down.
func TestViewSynchronizerRejoinsOnVerifiedFastProof(t *testing.T) {
	rg := newSyncRig(t, 2)
	reqs := syncReqs("B")

	rg.r.Deliver(1, PrePrepareMsg{Seq: 1, View: 0, Reqs: reqs})
	rg.r.startViewChange(1)

	rg.r.Deliver(3, rg.fastProof(t, 1, 0, reqs))

	if rg.r.inViewChange || rg.r.view != 0 {
		t.Fatalf("no rejoin: view=%d inVC=%v", rg.r.view, rg.r.inViewChange)
	}
	if rg.r.Metrics.ViewRejoins != 1 {
		t.Fatalf("ViewRejoins = %d, want 1", rg.r.Metrics.ViewRejoins)
	}
	if rg.r.Metrics.FastCommits != 1 {
		t.Fatalf("FastCommits = %d, want 1", rg.r.Metrics.FastCommits)
	}
}

// TestViewSynchronizerIgnoresForgedProof: a Byzantine peer replaying
// garbage "certificates" for a lower view must not pull the replica down.
func TestViewSynchronizerIgnoresForgedProof(t *testing.T) {
	rg := newSyncRig(t, 2)
	reqs := syncReqs("C")

	rg.r.startViewChange(1)
	rg.r.Deliver(1, PrePrepareMsg{Seq: 1, View: 0, Reqs: reqs})

	forged := threshsig.Signature{Data: []byte("not a certificate")}
	rg.r.Deliver(3, FullCommitProofSlowMsg{Seq: 1, View: 0, Tau: forged, TauTau: forged})
	rg.r.Deliver(3, FullCommitProofMsg{Seq: 1, View: 0, Sigma: forged})

	if !rg.r.inViewChange || rg.r.view != 1 {
		t.Fatalf("forged certificate caused a rejoin: view=%d inVC=%v", rg.r.view, rg.r.inViewChange)
	}
	if rg.r.Metrics.ViewRejoins != 0 {
		t.Fatalf("ViewRejoins = %d, want 0", rg.r.Metrics.ViewRejoins)
	}
}

// TestViewSynchronizerCertForDealtViewOnly: a certificate that verifies
// for a DIFFERENT (higher) escalated view must not rejoin the replica into
// a lower one, and future-view traffic keeps the normal buffering path.
func TestViewSynchronizerLeavesGenuineViewChangeAlone(t *testing.T) {
	rg := newSyncRig(t, 2)
	reqs := syncReqs("D")

	rg.r.startViewChange(1)
	// Certified traffic for view 1 itself (the target) is not "a lower
	// view": the synchronizer must not touch the escalation.
	rg.r.Deliver(3, rg.slowProof(t, 1, 1, reqs))
	if !rg.r.inViewChange || rg.r.view != 1 {
		t.Fatalf("synchronizer fired on the escalation target: view=%d inVC=%v",
			rg.r.view, rg.r.inViewChange)
	}
}

// TestRejoinedPrimaryCountsItsOwnViewChange: a rejoin leaves the replica's
// own view-change entry above the view it rejoined, so a later escalation
// to a lower target must replace it, or the primary of that target could
// not count itself toward the new-view quorum.
func TestRejoinedPrimaryCountsItsOwnViewChange(t *testing.T) {
	rg := newSyncRig(t, 2) // the primary of view 1
	reqs := syncReqs("C")

	rg.r.Deliver(1, PrePrepareMsg{Seq: 1, View: 0, Reqs: reqs})
	rg.r.startViewChange(1)
	rg.r.startViewChange(2)
	rg.r.Deliver(3, rg.fastProof(t, 1, 0, reqs))
	if rg.r.inViewChange || rg.r.view != 0 {
		t.Fatalf("no rejoin: view=%d inVC=%v", rg.r.view, rg.r.inViewChange)
	}

	rg.r.Deliver(1, ViewChangeMsg{NewView: 1, Replica: 1})
	rg.r.Deliver(3, ViewChangeMsg{NewView: 1, Replica: 3})
	if rg.r.inViewChange || rg.r.view != 1 {
		t.Fatalf("view 1 not installed at its primary: view=%d inVC=%v", rg.r.view, rg.r.inViewChange)
	}
}

// TestRejoinedPrimarySendsAFreshViewChange: after a rejoin, a new view
// change to the view the replica had escalated to replaces its old one, so
// the new-view quorum carries the slot it committed since.
func TestRejoinedPrimarySendsAFreshViewChange(t *testing.T) {
	rg := newSyncRig(t, 3) // the primary of view 2
	reqs := syncReqs("D")

	rg.r.startViewChange(1)
	rg.r.startViewChange(2)
	rg.r.Deliver(2, PrePrepareMsg{Seq: 1, View: 1, Reqs: reqs})
	rg.r.Deliver(1, rg.fastProof(t, 1, 1, reqs))
	if rg.r.inViewChange || rg.r.view != 1 || rg.r.lastExecuted != 1 {
		t.Fatalf("no rejoin: view=%d inVC=%v executed=%d", rg.r.view, rg.r.inViewChange, rg.r.lastExecuted)
	}

	rg.r.startViewChange(2)
	rg.r.Deliver(1, ViewChangeMsg{NewView: 2, Replica: 1})
	rg.r.Deliver(4, ViewChangeMsg{NewView: 2, Replica: 4})
	nvs := newViewsSent(rg.rig)
	if len(nvs) != 1 || nvs[0].View != 2 || !slices.Equal(vcSenders(nvs[0]), []int{1, 3, 4}) {
		t.Fatalf("new-view messages %+v, want one for view 2 over replicas 1, 3, 4", nvs)
	}
	if own := nvs[0].ViewChanges[1]; len(own.Slots) != 1 || !own.Slots[0].HasCommitProof {
		t.Fatalf("own view change carries slots %+v, want slot 1's commit proof", own.Slots)
	}
}
