package core

import (
	"slices"
	"testing"
	"time"

	"sbft/internal/crypto/threshsig"
)

// Unit tests for the §V-G safe-value computation, built on real threshold
// certificates from the insecure suite. cfg: f=1, c=0, n=4 — fast quorum
// 4, slow quorum 3, f+c+1 = 2.

type vcFixture struct {
	cfg   Config
	suite CryptoSuite
	keys  []ReplicaKeys
}

func newVCFixture(t *testing.T) *vcFixture {
	t.Helper()
	cfg := DefaultConfig(1, 0)
	suite, keys, err := InsecureSuite(cfg, "vc-test")
	if err != nil {
		t.Fatal(err)
	}
	return &vcFixture{cfg: cfg, suite: suite, keys: keys}
}

func (f *vcFixture) reqs(tag string) []Request {
	return []Request{{Client: ClientBase, Timestamp: 1, Op: []byte(tag)}}
}

func (f *vcFixture) prepareCert(t *testing.T, seq, view uint64, reqs []Request) threshsig.Signature {
	t.Helper()
	h := BlockHash(seq, view, reqs)
	var shares []threshsig.Share
	for i := 0; i < f.cfg.QuorumSlow(); i++ {
		sh, err := f.keys[i].Tau.Sign(h[:])
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	sig, err := f.suite.Tau.Combine(h[:], shares)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func (f *vcFixture) slowCert(t *testing.T, inner threshsig.Signature) threshsig.Signature {
	t.Helper()
	d := tauTauDigest(inner)
	var shares []threshsig.Share
	for i := 0; i < f.cfg.QuorumSlow(); i++ {
		sh, err := f.keys[i].Tau.Sign(d)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	sig, err := f.suite.Tau.Combine(d, shares)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func (f *vcFixture) fastCert(t *testing.T, seq, view uint64, reqs []Request) threshsig.Signature {
	t.Helper()
	h := BlockHash(seq, view, reqs)
	var shares []threshsig.Share
	for i := 0; i < f.cfg.QuorumFast(); i++ {
		sh, err := f.keys[i].Sigma.Sign(h[:])
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	sig, err := f.suite.Sigma.Combine(h[:], shares)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func (f *vcFixture) sigmaShare(t *testing.T, replica int, seq, view uint64, reqs []Request) threshsig.Share {
	t.Helper()
	h := BlockHash(seq, view, reqs)
	sh, err := f.keys[replica-1].Sigma.Sign(h[:])
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// vcMsg builds a bare view-change message from replica id with slots.
func vcMsg(id int, slots ...SlotInfo) ViewChangeMsg {
	return ViewChangeMsg{NewView: 1, Replica: id, Slots: slots}
}

func decide(f *vcFixture, vcs ...ViewChangeMsg) []slotDecision {
	_, decisions := computeSafeValues(f.cfg, f.suite, 1, vcs)
	return decisions
}

func TestSafeValueNoEvidence(t *testing.T) {
	f := newVCFixture(t)
	decisions := decide(f, vcMsg(1), vcMsg(2), vcMsg(3))
	if len(decisions) != 0 {
		t.Fatalf("decisions for empty slots: %d", len(decisions))
	}
}

func TestSafeValueDecidedSlow(t *testing.T) {
	f := newVCFixture(t)
	reqs := f.reqs("A")
	inner := f.prepareCert(t, 1, 0, reqs)
	outer := f.slowCert(t, inner)
	d := decide(f, vcMsg(1, SlotInfo{
		Seq: 1, HasCommitProofSlow: true, Tau: inner, TauTau: outer,
		SlowView: 0, SlowReqs: reqs,
	}), vcMsg(2), vcMsg(3))
	if len(d) != 1 || !d[0].decided || string(d[0].reqs[0].Op) != "A" {
		t.Fatalf("decision = %+v", d)
	}
}

func TestSafeValueDecidedFast(t *testing.T) {
	f := newVCFixture(t)
	reqs := f.reqs("B")
	sig := f.fastCert(t, 3, 2, reqs)
	d := decide(f, vcMsg(1, SlotInfo{
		Seq: 3, HasCommitProof: true, Sigma: sig, FastView: 2, FastReqs: reqs,
	}), vcMsg(2), vcMsg(3))
	if len(d) != 3 {
		t.Fatalf("want decisions for slots 1..3, got %d", len(d))
	}
	if !d[2].decided || string(d[2].reqs[0].Op) != "B" {
		t.Fatalf("slot 3 = %+v", d[2])
	}
	// Slots 1 and 2 have no evidence → null blocks.
	if d[0].decided || len(d[0].reqs) != 0 {
		t.Fatalf("slot 1 should be null, got %+v", d[0])
	}
}

func TestSafeValueAdoptsPrepare(t *testing.T) {
	f := newVCFixture(t)
	reqs := f.reqs("C")
	tau := f.prepareCert(t, 1, 0, reqs)
	d := decide(f, vcMsg(1, SlotInfo{
		Seq: 1, HasPrepare: true, PrepareTau: tau, PrepareView: 0, PrepareReqs: reqs,
	}), vcMsg(2), vcMsg(3))
	if len(d) != 1 || d[0].decided {
		t.Fatalf("decision = %+v", d)
	}
	if string(d[0].reqs[0].Op) != "C" {
		t.Fatalf("adopted %q, want C", d[0].reqs[0].Op)
	}
}

func TestSafeValueAdoptsFastValue(t *testing.T) {
	f := newVCFixture(t)
	reqs := f.reqs("D")
	// f+c+1 = 2 σ shares over the same block → fast value.
	d := decide(f,
		vcMsg(1, SlotInfo{Seq: 1, HasPrePrepare: true,
			SigmaShare: f.sigmaShare(t, 1, 1, 0, reqs), PrePrepareView: 0, PrePrepareReqs: reqs}),
		vcMsg(2, SlotInfo{Seq: 1, HasPrePrepare: true,
			SigmaShare: f.sigmaShare(t, 2, 1, 0, reqs), PrePrepareView: 0, PrePrepareReqs: reqs}),
		vcMsg(3),
	)
	if len(d) != 1 || d[0].decided {
		t.Fatalf("decision = %+v", d)
	}
	if len(d[0].reqs) == 0 || string(d[0].reqs[0].Op) != "D" {
		t.Fatalf("adopted %+v, want D", d[0].reqs)
	}
}

func TestSafeValueSingleShareIsNotFast(t *testing.T) {
	f := newVCFixture(t)
	reqs := f.reqs("E")
	d := decide(f,
		vcMsg(1, SlotInfo{Seq: 1, HasPrePrepare: true,
			SigmaShare: f.sigmaShare(t, 1, 1, 0, reqs), PrePrepareView: 0, PrePrepareReqs: reqs}),
		vcMsg(2), vcMsg(3),
	)
	if len(d) != 1 || len(d[0].reqs) != 0 {
		t.Fatalf("one share adopted a fast value: %+v", d)
	}
}

func TestSafeValuePrefersSlowOnTie(t *testing.T) {
	f := newVCFixture(t)
	// Prepare for A at view 1; two σ shares for B also at view 1. The
	// paper's rule: v* ≥ v̂ ⇒ the slow-path value wins (§V-G, §VI proof
	// "prefers the slow path proof over the fast path proof").
	reqsA, reqsB := f.reqs("A"), f.reqs("B")
	tau := f.prepareCert(t, 1, 1, reqsA)
	d := decide(f,
		vcMsg(1, SlotInfo{Seq: 1,
			HasPrepare: true, PrepareTau: tau, PrepareView: 1, PrepareReqs: reqsA,
			HasPrePrepare: true, SigmaShare: f.sigmaShare(t, 1, 1, 1, reqsB),
			PrePrepareView: 1, PrePrepareReqs: reqsB}),
		vcMsg(2, SlotInfo{Seq: 1, HasPrePrepare: true,
			SigmaShare: f.sigmaShare(t, 2, 1, 1, reqsB), PrePrepareView: 1, PrePrepareReqs: reqsB}),
		vcMsg(3),
	)
	if string(d[0].reqs[0].Op) != "A" {
		t.Fatalf("tie broken toward fast value %q; slow must win", d[0].reqs[0].Op)
	}
}

func TestSafeValueFastBeatsLowerPrepare(t *testing.T) {
	f := newVCFixture(t)
	reqsA, reqsB := f.reqs("A"), f.reqs("B")
	// Prepare for A at view 0; fast value B at view 2 ⇒ B wins (v̂ > v*).
	tau := f.prepareCert(t, 1, 0, reqsA)
	d := decide(f,
		vcMsg(1, SlotInfo{Seq: 1,
			HasPrepare: true, PrepareTau: tau, PrepareView: 0, PrepareReqs: reqsA,
			HasPrePrepare: true, SigmaShare: f.sigmaShare(t, 1, 1, 2, reqsB),
			PrePrepareView: 2, PrePrepareReqs: reqsB}),
		vcMsg(2, SlotInfo{Seq: 1, HasPrePrepare: true,
			SigmaShare: f.sigmaShare(t, 2, 1, 2, reqsB), PrePrepareView: 2, PrePrepareReqs: reqsB}),
		vcMsg(3),
	)
	if string(d[0].reqs[0].Op) != "B" {
		t.Fatalf("adopted %q, want the higher-view fast value B", d[0].reqs[0].Op)
	}
}

func TestSafeValueAmbiguousFastIsDropped(t *testing.T) {
	f := newVCFixture(t)
	reqsA, reqsB := f.reqs("A"), f.reqs("B")
	// Two distinct values each with f+c+1 shares at the same view: not a
	// unique fast value ⇒ v̂ = −1 ⇒ null (no prepare present).
	d := decide(f,
		vcMsg(1, SlotInfo{Seq: 1, HasPrePrepare: true,
			SigmaShare: f.sigmaShare(t, 1, 1, 1, reqsA), PrePrepareView: 1, PrePrepareReqs: reqsA}),
		vcMsg(2, SlotInfo{Seq: 1, HasPrePrepare: true,
			SigmaShare: f.sigmaShare(t, 2, 1, 1, reqsA), PrePrepareView: 1, PrePrepareReqs: reqsA}),
		vcMsg(3, SlotInfo{Seq: 1, HasPrePrepare: true,
			SigmaShare: f.sigmaShare(t, 3, 1, 1, reqsB), PrePrepareView: 1, PrePrepareReqs: reqsB}),
		vcMsg(4, SlotInfo{Seq: 1, HasPrePrepare: true,
			SigmaShare: f.sigmaShare(t, 4, 1, 1, reqsB), PrePrepareView: 1, PrePrepareReqs: reqsB}),
	)
	if len(d[0].reqs) != 0 {
		t.Fatalf("ambiguous fast value adopted: %+v", d[0].reqs)
	}
}

func TestSafeValueIgnoresForgedCertificates(t *testing.T) {
	f := newVCFixture(t)
	reqs := f.reqs("EVIL")
	good := f.reqs("GOOD")
	tau := f.prepareCert(t, 1, 0, good)
	forged := threshsig.Signature{Data: []byte("not a real signature")}
	d := decide(f,
		// Byzantine replica claims a slow commit and a fast commit with
		// forged certificates.
		vcMsg(1, SlotInfo{Seq: 1,
			HasCommitProofSlow: true, Tau: forged, TauTau: forged, SlowView: 5, SlowReqs: reqs,
			HasCommitProof: true, Sigma: forged, FastView: 5, FastReqs: reqs}),
		vcMsg(2, SlotInfo{Seq: 1, HasPrepare: true, PrepareTau: tau, PrepareView: 0, PrepareReqs: good}),
		vcMsg(3),
	)
	if d[0].decided {
		t.Fatal("forged certificate decided a slot")
	}
	if string(d[0].reqs[0].Op) != "GOOD" {
		t.Fatalf("adopted %q, want GOOD", d[0].reqs[0].Op)
	}
}

func TestSafeValueIgnoresSpoofedShareOwner(t *testing.T) {
	f := newVCFixture(t)
	reqs := f.reqs("S")
	// Replica 2 replays replica 1's σ share; the share's signer id does
	// not match the sender, so it must not count toward f+c+1.
	share1 := f.sigmaShare(t, 1, 1, 0, reqs)
	d := decide(f,
		vcMsg(1, SlotInfo{Seq: 1, HasPrePrepare: true,
			SigmaShare: share1, PrePrepareView: 0, PrePrepareReqs: reqs}),
		vcMsg(2, SlotInfo{Seq: 1, HasPrePrepare: true,
			SigmaShare: share1, PrePrepareView: 0, PrePrepareReqs: reqs}),
		vcMsg(3),
	)
	if len(d[0].reqs) != 0 {
		t.Fatalf("spoofed share counted toward a fast value: %+v", d[0].reqs)
	}
}

func TestSafeValueHigherPrepareWins(t *testing.T) {
	f := newVCFixture(t)
	reqsA, reqsB := f.reqs("A"), f.reqs("B")
	tauLow := f.prepareCert(t, 1, 0, reqsA)
	tauHigh := f.prepareCert(t, 1, 3, reqsB)
	d := decide(f,
		vcMsg(1, SlotInfo{Seq: 1, HasPrepare: true, PrepareTau: tauLow, PrepareView: 0, PrepareReqs: reqsA}),
		vcMsg(2, SlotInfo{Seq: 1, HasPrepare: true, PrepareTau: tauHigh, PrepareView: 3, PrepareReqs: reqsB}),
		vcMsg(3),
	)
	if string(d[0].reqs[0].Op) != "B" {
		t.Fatalf("adopted %q, want highest-view prepare B", d[0].reqs[0].Op)
	}
}

func TestSafeValueStableBoundsSlots(t *testing.T) {
	f := newVCFixture(t)
	reqs := f.reqs("X")
	tau := f.prepareCert(t, 2, 0, reqs)
	vc1 := vcMsg(1, SlotInfo{Seq: 2, HasPrepare: true, PrepareTau: tau, PrepareView: 0, PrepareReqs: reqs})
	vc1.LastStable = 2 // slot 2 is below the stable point
	vc2 := vcMsg(2)
	vc3 := vcMsg(3)
	ls, d := computeSafeValues(f.cfg, f.suite, 1, []ViewChangeMsg{vc1, vc2, vc3})
	if ls != 2 {
		t.Fatalf("ls = %d, want 2", ls)
	}
	if len(d) != 0 {
		t.Fatalf("decisions below stable point: %+v", d)
	}
}

// The view-change table keeps each replica's view changes for its vcKept
// lowest live views: the f+1 join rule and the new-view quorum scan at most
// n·vcKept entries however many views a sender names.

func isNewView(m Message) bool { _, ok := m.(NewViewMsg); return ok }

// newViewsSent lists the new-view messages the rig's replica broadcast,
// one per view (a broadcast is n-1 sends).
func newViewsSent(rg *rig) []NewViewMsg {
	var out []NewViewMsg
	for _, s := range rg.env.sent {
		if nv, ok := s.msg.(NewViewMsg); ok && (len(out) == 0 || out[len(out)-1].View != nv.View) {
			out = append(out, nv)
		}
	}
	return out
}

func vcSenders(nv NewViewMsg) []int {
	var ids []int
	for _, vc := range nv.ViewChanges {
		ids = append(ids, vc.Replica)
	}
	return ids
}

func TestViewChangeFloodIsLinear(t *testing.T) {
	rg := newRig(t, 1, nil)
	const k = 16000
	start := time.Now()
	for v := uint64(1); v <= k; v++ {
		rg.r.Deliver(3, ViewChangeMsg{NewView: v, Replica: 3})
		if el := time.Since(start); el > time.Second {
			t.Fatalf("%d of %d view-changes from one replica took %v", v, k, el)
		}
	}
	if rg.r.View() != 0 || rg.r.InViewChange() {
		t.Fatalf("one replica's view-changes moved the view to %d", rg.r.View())
	}
	if kept := rg.r.vcs[3]; len(kept) != vcKept || kept[0].NewView != 1 {
		t.Fatalf("kept %d view-changes of replica 3, want its %d lowest", len(kept), vcKept)
	}
}

// TestFuturePrePrepareFloodIsBounded: every replica, as the primary of
// views far ahead, floods pre-prepares at sequences far past the window,
// each twice in a row. ppBuffer keeps views up to view + n only, one entry
// per (view, seq) and at most Win entries per view.
func TestFuturePrePrepareFloodIsBounded(t *testing.T) {
	rg := newRig(t, 2, nil)
	n, win := uint64(rg.cfg.N()), rg.cfg.Win
	for from := 1; from <= int(n); from++ {
		for v := uint64(1); v <= 4*n; v++ {
			for seq := uint64(1); seq <= 2*win; seq++ {
				rg.r.Deliver(from, PrePrepareMsg{Seq: seq, View: v})
				rg.r.Deliver(from, PrePrepareMsg{Seq: seq, View: v})
			}
		}
	}
	if len(rg.r.ppBuffer) == 0 {
		t.Fatal("the flood buffered nothing")
	}
	for v, buf := range rg.r.ppBuffer {
		if v > rg.r.View()+n {
			t.Fatalf("buffered view %d at view %d, beyond view + n", v, rg.r.View())
		}
		if uint64(len(buf)) > win {
			t.Fatalf("view %d buffers %d pre-prepares, want at most Win = %d", v, len(buf), win)
		}
		seqs := make(map[uint64]bool, len(buf))
		for _, pp := range buf {
			if seqs[pp.Seq] {
				t.Fatalf("view %d buffers seq %d twice", v, pp.Seq)
			}
			seqs[pp.Seq] = true
		}
	}
}

func TestHonestEscalationInstallsAtNextPrimary(t *testing.T) {
	rg := newRig(t, 3, func(c *Config) { c.ViewChangeTimeout = 100 * time.Millisecond }) // primary of view 2
	// Replicas 1 and 4 give up on view 0: f+1 demands pull 3 into view 1,
	// whose primary (2) never installs it.
	rg.r.Deliver(1, ViewChangeMsg{NewView: 1, Replica: 1})
	rg.r.Deliver(4, ViewChangeMsg{NewView: 1, Replica: 4})
	if rg.r.View() != 1 || !rg.r.InViewChange() {
		t.Fatalf("view %d after f+1 view-changes to 1, want a view change to 1", rg.r.View())
	}
	rg.env.advance(time.Second)
	if rg.r.View() != 2 || !rg.r.InViewChange() {
		t.Fatalf("view %d after the view-change timer, want a view change to 2", rg.r.View())
	}
	rg.r.Deliver(1, ViewChangeMsg{NewView: 2, Replica: 1})
	if rg.sentOfType(isNewView) != 0 {
		t.Fatal("view 2 installed on two view-changes")
	}
	rg.r.Deliver(4, ViewChangeMsg{NewView: 2, Replica: 4})
	if rg.r.View() != 2 || rg.r.InViewChange() {
		t.Fatalf("view %d (in view change: %v), want view 2 installed", rg.r.View(), rg.r.InViewChange())
	}
	nvs := newViewsSent(rg)
	if len(nvs) != 1 || nvs[0].View != 2 || !slices.Equal(vcSenders(nvs[0]), []int{1, 3, 4}) {
		t.Fatalf("new-view messages %+v, want one for view 2 over replicas 1, 3, 4", nvs)
	}
}

func TestOlderViewChangeDoesNotReplaceNewer(t *testing.T) {
	rg := newRig(t, 3, nil) // primary of view 2
	rg.r.Deliver(1, ViewChangeMsg{NewView: 2, Replica: 1})
	rg.r.Deliver(1, ViewChangeMsg{NewView: 1, Replica: 1}) // reordered: sent before the one above
	rg.r.Deliver(4, ViewChangeMsg{NewView: 1, Replica: 4})
	if rg.r.View() != 1 || !rg.r.InViewChange() {
		t.Fatalf("view %d after f+1 view-changes to 1, want a view change to 1", rg.r.View())
	}
	// Replica 1's view-change to 2 still stands, so 4's makes f+1 above
	// view 1: replica 3 joins view 2 and, its primary, installs it.
	rg.r.Deliver(4, ViewChangeMsg{NewView: 2, Replica: 4})
	if rg.r.View() != 2 || rg.r.InViewChange() {
		t.Fatalf("view %d (in view change: %v), want view 2 installed", rg.r.View(), rg.r.InViewChange())
	}
	nvs := newViewsSent(rg)
	if len(nvs) != 1 || nvs[0].View != 2 || !slices.Equal(vcSenders(nvs[0]), []int{1, 3, 4}) {
		t.Fatalf("new-view messages %+v, want one for view 2 over replicas 1, 3, 4", nvs)
	}
}

// A replica that escalated alone to 1 and then 2, and rejoined view 0,
// still counts toward view 1 once the cluster wants it: its view change to
// 2 must not hide the one to 1.
func TestRejoinedReplicaCountsTowardALowerView(t *testing.T) {
	rg := newRig(t, 2, nil) // primary of view 1
	rg.r.Deliver(3, ViewChangeMsg{NewView: 1, Replica: 3})
	rg.r.Deliver(3, ViewChangeMsg{NewView: 2, Replica: 3})
	rg.r.Deliver(4, ViewChangeMsg{NewView: 1, Replica: 4})
	if rg.r.View() != 1 || rg.r.InViewChange() {
		t.Fatalf("view %d (in view change: %v), want view 1 installed", rg.r.View(), rg.r.InViewChange())
	}
	nvs := newViewsSent(rg)
	if len(nvs) != 1 || nvs[0].View != 1 || !slices.Equal(vcSenders(nvs[0]), []int{2, 3, 4}) {
		t.Fatalf("new-view messages %+v, want one for view 1 over replicas 2, 3, 4", nvs)
	}
}

// Once a view installs, the view changes for it and below no longer count
// against a replica's vcKept, so its later ones are kept.
func TestKeptViewChangesMoveWithTheView(t *testing.T) {
	rg := newRig(t, 2, nil) // primary of view 1
	for v := uint64(1); v <= vcKept; v++ {
		rg.r.Deliver(3, ViewChangeMsg{NewView: v, Replica: 3})
	}
	rg.r.Deliver(4, ViewChangeMsg{NewView: 1, Replica: 4})
	if rg.r.View() != 1 || rg.r.InViewChange() {
		t.Fatalf("view %d (in view change: %v), want view 1 installed", rg.r.View(), rg.r.InViewChange())
	}
	rg.r.Deliver(3, ViewChangeMsg{NewView: vcKept + 1, Replica: 3})
	if kept := rg.r.vcs[3]; len(kept) != vcKept || kept[vcKept-1].NewView != vcKept+1 {
		t.Fatalf("replica 3's view change to %d not kept beside %+v", vcKept+1, kept)
	}
}

func TestNewViewCountsOnlyReplicas(t *testing.T) {
	rg := newRig(t, 3, nil)
	nv := NewViewMsg{View: 1}
	for _, id := range []int{1, ClientBase, ClientBase + 1} {
		nv.ViewChanges = append(nv.ViewChanges, ViewChangeMsg{NewView: 1, Replica: id})
	}
	rg.r.Deliver(2, nv) // from the primary of view 1
	if rg.r.View() != 0 {
		t.Fatalf("installed view %d on view-changes named by clients", rg.r.View())
	}
}

// TestOutstandingWorkMatchesFullScan: hasOutstandingWork, which looks only
// at (lastExecuted, highPP], answers as a scan of every retained slot does
// through commits, a state-transfer install over accepted slots and a
// view change that resets them.
func TestOutstandingWorkMatchesFullScan(t *testing.T) {
	rg := &syncRig{newRig(t, 2, nil)} // primary of view 1
	var answers []bool
	check := func(step string) {
		t.Helper()
		full := len(rg.r.watch) > 0
		for _, s := range rg.r.slots {
			full = full || s.hasPrePrepare && !s.committed
		}
		if got := rg.r.hasOutstandingWork(); got != full {
			t.Fatalf("%s: hasOutstandingWork %v, a scan of every slot %v", step, got, full)
		}
		answers = append(answers, full)
	}
	reqs := func(seq uint64) []Request {
		return []Request{{Client: ClientBase + int(seq), Timestamp: 1, Op: []byte("x")}}
	}
	accept := func(from, to uint64) {
		for seq := from; seq <= to; seq++ {
			rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: reqs(seq)})
		}
	}
	check("fresh")
	accept(1, 3)
	check("three accepted")
	rg.r.Deliver(1, rg.fastProof(t, 2, 0, reqs(2)))
	check("the middle one committed")
	rg.r.Deliver(1, rg.fastProof(t, 1, 0, reqs(1)))
	check("only the highest uncommitted")

	cs := certifiedAt(t, rg.rig, 4, nil)
	rg.r.fetcher.want(4)
	deliverMeta(t, rg.rig, cs, 3)
	deliverAllChunks(t, rg.rig, cs, 3)
	if rg.r.LastExecuted() != 4 {
		t.Fatalf("LastExecuted %d after the install, want 4", rg.r.LastExecuted())
	}
	check("installed over accepted slots")
	accept(5, 6)
	check("accepted above the install")
	rg.r.Deliver(1, rg.fastProof(t, 5, 0, reqs(5)))
	check("only the highest uncommitted above the install")

	rg.r.Deliver(1, ViewChangeMsg{NewView: 1, Replica: 1})
	rg.r.Deliver(4, ViewChangeMsg{NewView: 1, Replica: 4})
	if rg.r.View() != 1 || rg.r.InViewChange() {
		t.Fatalf("view %d (in view change: %v), want view 1 installed", rg.r.View(), rg.r.InViewChange())
	}
	check("view 1 installed")
	if !slices.Contains(answers, true) || !slices.Contains(answers, false) {
		t.Fatalf("answers %v: the run never saw both outcomes", answers)
	}
}
