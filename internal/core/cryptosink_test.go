package core

import (
	"bytes"
	"errors"
	"testing"

	"sbft/internal/crypto/threshbls"
	"sbft/internal/crypto/threshsig"
)

// deferredSink queues every sink call so tests control exactly when the
// off-loop work "completes", exercising the collectors' completion guards.
type deferredSink struct {
	suite    CryptoSuite
	verifies []deferredVerify
	combines []deferredCombine
	// failed counts released combines that came back with a blame verdict.
	failed int
}

type deferredVerify struct {
	jobs []VerifyJob
	done func([][]threshsig.Share)
}

type deferredCombine struct {
	kind   ShareKind
	digest []byte
	shares []threshsig.Share
	done   func(threshsig.Signature, error)
}

func (d *deferredSink) VerifyShares(jobs []VerifyJob, done func([][]threshsig.Share)) {
	d.verifies = append(d.verifies, deferredVerify{jobs, done})
}

func (d *deferredSink) Combine(kind ShareKind, digest []byte, shares []threshsig.Share, done func(threshsig.Signature, error)) {
	d.combines = append(d.combines, deferredCombine{kind, digest, shares, done})
}

// releaseVerify completes the oldest queued verification.
func (d *deferredSink) releaseVerify() {
	v := d.verifies[0]
	d.verifies = d.verifies[1:]
	ok := make([][]threshsig.Share, len(v.jobs))
	for i, j := range v.jobs {
		ok[i] = VerifyJobShares(d.suite, j)
	}
	v.done(ok)
}

// releaseCombine completes the i-th queued combination.
func (d *deferredSink) releaseCombine(i int) {
	c := d.combines[i]
	d.combines = append(d.combines[:i:i], d.combines[i+1:]...)
	sig, err := SchemeFor(d.suite, c.kind).Combine(c.digest, c.shares)
	var bad *threshsig.BadSharesError
	if errors.As(err, &bad) {
		d.failed++
	}
	c.done(sig, err)
}

// releaseCombineOver completes the queued combination over digest.
func (d *deferredSink) releaseCombineOver(t *testing.T, digest []byte) {
	t.Helper()
	for i, c := range d.combines {
		if bytes.Equal(c.digest, digest) {
			d.releaseCombine(i)
			return
		}
	}
	t.Fatalf("no combine over %x in flight", digest)
}

// countingScheme counts the checks a replica makes on its own event loop.
type countingScheme struct {
	threshsig.Scheme
	verifies, shareVerifies *int
}

func (c countingScheme) Verify(digest []byte, sig threshsig.Signature) error {
	*c.verifies++
	return c.Scheme.Verify(digest, sig)
}

func (c countingScheme) VerifyShare(digest []byte, sh threshsig.Share) error {
	*c.shareVerifies++
	return c.Scheme.VerifyShare(digest, sh)
}

// collectorSeqs returns the first k sequences replica collects for in view.
func collectorSeqs(cfg Config, replica int, view uint64, k int) []uint64 {
	var out []uint64
	for s := uint64(1); len(out) < k; s++ {
		if cfg.CCollectors(s, view)[0] == replica {
			out = append(out, s)
		}
	}
	return out
}

func isFastProof(m Message) bool { _, ok := m.(FullCommitProofMsg); return ok }
func isPrepare(m Message) bool   { _, ok := m.(PrepareMsg); return ok }

var oneReq = []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("x")}}

func TestCollectorCombinesUncheckedShares(t *testing.T) {
	seq := collectorSeqs(DefaultConfig(1, 0), 2, 0, 1)[0]
	rg := newRig(t, 2, nil)
	sink := &deferredSink{suite: rg.suite}
	rg.r.SetCryptoSink(sink)
	var verifies, shareVerifies int
	rg.r.suite.Sigma = countingScheme{rg.suite.Sigma, &verifies, &shareVerifies}
	rg.r.suite.Tau = countingScheme{rg.suite.Tau, &verifies, &shareVerifies}

	rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: oneReq})
	for i := 1; i <= rg.cfg.N(); i++ {
		if i != 2 {
			rg.r.Deliver(i, rg.signShare(i, seq, 0, oneReq, true))
		}
	}
	// Arriving shares are filed, not verified: nothing went to the sink's
	// share-verification side, and the σ quorum is one staged combine.
	if len(sink.verifies) != 0 || shareVerifies != 0 {
		t.Fatalf("shares were verified on arrival: %d sink jobs, %d inline checks", len(sink.verifies), shareVerifies)
	}
	if len(sink.combines) != 1 || sink.combines[0].kind != ShareSigma || len(sink.combines[0].shares) != rg.cfg.QuorumFast() {
		t.Fatalf("combines = %+v", sink.combines)
	}
	if rg.sentOfType(isFastProof) != 0 {
		t.Fatal("proof sent before the combine completed")
	}
	sink.releaseCombine(0)
	if rg.sentOfType(isFastProof) == 0 {
		t.Fatal("no full-commit-proof after the async combine")
	}
	// The collector commits on the σ it combined without verifying it a
	// second time: the combine checked it.
	if !rg.r.slots[seq].committed || verifies != 0 {
		t.Fatalf("committed=%v after %d event-loop verifies, want true after 0", rg.r.slots[seq].committed, verifies)
	}
}

func TestBadShareSignerCostsOneCombine(t *testing.T) {
	// A single bad-share signer causes at most one failed combine on a
	// collector, and the slot it spoiled still commits (via τ: σ needs all
	// n shares at c = 0, exactly as when a share is missing).
	seqs := collectorSeqs(DefaultConfig(1, 0), 2, 0, 2)
	rg := newRig(t, 2, nil)
	sink := &deferredSink{suite: rg.suite}
	rg.r.SetCryptoSink(sink)

	garbageSigma := func(seq uint64) SignShareMsg {
		m := rg.signShare(3, seq, 0, oneReq, false)
		m.SigmaSig = threshsig.Share{Signer: 3, Data: []byte("garbage")}
		return m
	}
	seq := seqs[0]
	rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: oneReq})
	rg.r.Deliver(1, rg.signShare(1, seq, 0, oneReq, true))
	rg.r.Deliver(3, garbageSigma(seq))
	rg.r.Deliver(4, rg.signShare(4, seq, 0, oneReq, true))
	if len(sink.combines) != 1 {
		t.Fatalf("%d combines staged, want the σ quorum's one", len(sink.combines))
	}
	sink.releaseCombine(0)
	s := rg.r.slots[seq]
	if sink.failed != 1 || rg.r.Metrics.BadShares != 1 || !rg.r.suspect(3) {
		t.Fatalf("failed combines=%d BadShares=%d suspect=%v, want 1, 1, true", sink.failed, rg.r.Metrics.BadShares, rg.r.suspect(3))
	}
	if _, ok := s.sigmaShares[3]; ok || len(s.tauShares) != 4 || s.committed {
		t.Fatalf("after blame: σ[3] kept=%v τ=%d committed=%v", ok, len(s.tauShares), s.committed)
	}
	// The fast timer runs out: τ(h) → prepare → commit shares → τ(τ(h)).
	rg.env.advance(rg.cfg.FastPathTimeout)
	sink.releaseCombine(0)
	if rg.sentOfType(isPrepare) == 0 || !s.hasPrepare {
		t.Fatal("no prepare after the fast timer")
	}
	for _, i := range []int{1, 3} {
		share, err := rg.keys[i-1].Tau.Sign(tauTauDigest(s.prepareTau))
		if err != nil {
			t.Fatal(err)
		}
		rg.r.Deliver(i, CommitMsg{Seq: seq, View: 0, Replica: i, TauTau: share})
	}
	// Replica 3's τ(τ(h)) share is valid but 3 is a suspect: it is
	// verified on arrival before it counts.
	if len(sink.verifies) != 1 {
		t.Fatalf("%d share verifications staged for the suspect, want 1", len(sink.verifies))
	}
	sink.releaseVerify()
	sink.releaseCombine(0)
	if !s.committed || rg.r.Metrics.SlowCommits != 1 {
		t.Fatalf("slot not committed via τ: committed=%v slow=%d", s.committed, rg.r.Metrics.SlowCommits)
	}

	// Next slot, same view, same bad signer: the garbage is rejected on
	// arrival and never reaches a combine.
	seq = seqs[1]
	rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: oneReq})
	rg.r.Deliver(3, garbageSigma(seq))
	for len(sink.verifies) > 0 {
		sink.releaseVerify()
	}
	s = rg.r.slots[seq]
	if _, ok := s.sigmaShares[3]; ok {
		t.Fatal("suspect's garbage σ share counted")
	}
	if _, ok := s.tauShares[3]; !ok {
		t.Fatal("suspect's valid τ share not counted")
	}
	if sink.failed != 1 || rg.r.Metrics.BadShares != 2 {
		t.Fatalf("failed combines=%d BadShares=%d, want still 1 and 2", sink.failed, rg.r.Metrics.BadShares)
	}
}

func TestEquivocatingPrimaryFramesSignersOnlyForItsView(t *testing.T) {
	// A σ/τ share is checked against the collector's own block hash, so a
	// primary that shows the collector one block and everyone else another
	// makes honest shares fail there. They are dropped — useless to this
	// collector — and their signers verified on arrival for the rest of
	// the view, but the view change that removes the primary clears them.
	cfg := DefaultConfig(1, 0)
	seqs := collectorSeqs(cfg, 2, 0, 2)
	rg := newRig(t, 2, func(c *Config) { c.FastPath = false })
	sink := &deferredSink{suite: rg.suite}
	rg.r.SetCryptoSink(sink)
	otherReq := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("y")}}

	rg.r.Deliver(1, PrePrepareMsg{Seq: seqs[0], View: 0, Reqs: oneReq})
	rg.r.Deliver(1, rg.signShare(1, seqs[0], 0, otherReq, false))
	rg.r.Deliver(3, rg.signShare(3, seqs[0], 0, otherReq, false))
	sink.releaseCombine(0)
	if sink.failed != 1 || rg.r.Metrics.BadShares != 2 || !rg.r.suspect(1) || !rg.r.suspect(3) {
		t.Fatalf("failed combines=%d BadShares=%d suspects 1:%v 3:%v, want 1, 2, true, true",
			sink.failed, rg.r.Metrics.BadShares, rg.r.suspect(1), rg.r.suspect(3))
	}
	// Same view, next slot, no equivocation: the framed signers' shares
	// are checked one by one before they count — the price per share this
	// collector paid for everyone before — and no second combine fails.
	rg.r.Deliver(1, PrePrepareMsg{Seq: seqs[1], View: 0, Reqs: oneReq})
	rg.r.Deliver(1, rg.signShare(1, seqs[1], 0, oneReq, false))
	rg.r.Deliver(3, rg.signShare(3, seqs[1], 0, oneReq, false))
	if len(sink.verifies) != 2 || len(sink.combines) != 0 {
		t.Fatalf("%d share checks and %d combines staged, want 2 and 0", len(sink.verifies), len(sink.combines))
	}
	sink.releaseVerify()
	sink.releaseVerify()
	sink.releaseCombine(0)
	if sink.failed != 1 || rg.sentOfType(isPrepare) == 0 {
		t.Fatalf("failed combines=%d prepares=%d after the clean slot", sink.failed, rg.sentOfType(isPrepare))
	}

	// The view changes: nobody is a suspect any more, and shares are filed
	// unchecked again.
	rg.r.startViewChange(2) // primary 3; view 1 would make replica 2 the primary
	rg.r.inViewChange = false
	if rg.r.suspect(1) || rg.r.suspect(3) {
		t.Fatal("suspicion outlived the view it arose in")
	}
	seq := collectorSeqs(cfg, 2, 2, 1)[0]
	rg.r.Deliver(cfg.Primary(2), PrePrepareMsg{Seq: seq, View: 2, Reqs: oneReq})
	for _, i := range []int{1, 3} {
		rg.r.Deliver(i, rg.signShare(i, seq, 2, oneReq, false))
	}
	if len(sink.verifies) != 0 || len(sink.combines) != 1 {
		t.Fatalf("view 2: %d share checks and %d combines staged, want 0 and 1", len(sink.verifies), len(sink.combines))
	}
}

func TestDeadRoundsVerdictMarksNobody(t *testing.T) {
	// A verdict is reached against the digest of the round that asked for
	// it. Arriving after that round died — a new view, a reset collector —
	// it must not make suspects in the round that replaced it.
	seq := collectorSeqs(DefaultConfig(1, 0), 2, 0, 1)[0]
	rg := newRig(t, 2, func(c *Config) { c.FastPath = false })
	sink := &deferredSink{suite: rg.suite}
	rg.r.SetCryptoSink(sink)
	otherReq := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("y")}}

	rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: oneReq})
	rg.r.Deliver(1, rg.signShare(1, seq, 0, otherReq, false))
	rg.r.Deliver(3, rg.signShare(3, seq, 0, otherReq, false))
	rg.r.slots[seq].resetCollector(0)
	sink.releaseCombine(0)
	if sink.failed != 1 || rg.r.Metrics.BadShares != 0 || rg.r.suspect(1) || rg.r.suspect(3) {
		t.Fatalf("failed combines=%d BadShares=%d suspects 1:%v 3:%v after a dead round's verdict, want 1, 0, false, false",
			sink.failed, rg.r.Metrics.BadShares, rg.r.suspect(1), rg.r.suspect(3))
	}
}

func TestCommitSharesNeedThisViewsPrepare(t *testing.T) {
	// Commit shares sign τ(h) of the current view's prepare. Against a
	// prepare certificate left over from an earlier view every honest
	// share would fail and frame its signer, so the collector does not
	// take them until it holds this view's certificate.
	seq := collectorSeqs(DefaultConfig(1, 0), 2, 2, 1)[0]
	rg := newRig(t, 2, func(c *Config) { c.FastPath = false })
	rg.r.view = 2
	s := rg.r.getSlot(seq)
	s.hasPrepare, s.prepareView = true, 0
	s.prepareTau = threshsig.Signature{Data: []byte("view-0 certificate")}
	s.resetCollector(2)
	share, err := rg.keys[0].Tau.Sign(tauTauDigest(threshsig.Signature{Data: []byte("view-2 certificate")}))
	if err != nil {
		t.Fatal(err)
	}
	rg.r.Deliver(1, CommitMsg{Seq: seq, View: 2, Replica: 1, TauTau: share})
	if len(s.tautauShares) != 0 {
		t.Fatal("commit share filed against a stale prepare certificate")
	}
}

func TestCheckpointQuorumVerifiedAsOneJob(t *testing.T) {
	// The stable-checkpoint certificate is the one place shares are
	// checked before they are combined: a quorum goes to the sink as one
	// verify job, a bad share in it is dropped and counted, and the rest
	// is tried again as soon as it is a quorum.
	const ckpt = 2
	rg := newRig(t, 1, func(c *Config) { c.CheckpointInterval = ckpt; c.Win = 8 })
	sink := &deferredSink{suite: rg.suite}
	rg.r.SetCryptoSink(sink)
	root := []byte("root")
	share := func(from int) CheckpointShareMsg {
		sh, err := rg.keys[from-1].Pi.Sign(CheckpointSigDigest(ckpt, root))
		if err != nil {
			t.Fatal(err)
		}
		return CheckpointShareMsg{Seq: ckpt, Replica: from, Digest: root, PiSig: sh}
	}
	bad := share(2)
	bad.PiSig.Data = []byte("garbage")
	rg.r.Deliver(2, bad)
	rg.r.Deliver(3, share(3))
	if len(sink.verifies) != 1 || len(sink.verifies[0].jobs[0].Shares) != rg.cfg.QuorumExec() || len(sink.combines) != 0 {
		t.Fatalf("quorum not staged as one verify job: %d jobs, %d combines", len(sink.verifies), len(sink.combines))
	}
	// A third share arrives while the check is in flight: no second job.
	rg.r.Deliver(4, share(4))
	if len(sink.verifies) != 1 {
		t.Fatalf("%d verify jobs in flight, want 1", len(sink.verifies))
	}
	sink.releaseVerify()
	if rg.r.Metrics.BadShares != 1 || len(sink.verifies) != 1 || len(sink.verifies[0].jobs[0].Shares) != 2 {
		t.Fatalf("BadShares=%d, retry jobs=%d", rg.r.Metrics.BadShares, len(sink.verifies))
	}
	sink.releaseVerify()
	sink.releaseCombine(0)
	if rg.r.LastStable() != ckpt {
		t.Fatalf("checkpoint not stable: ls=%d", rg.r.LastStable())
	}
}

func TestGarbageTauShareDroppedRestCombines(t *testing.T) {
	seq := collectorSeqs(DefaultConfig(1, 0), 2, 0, 1)[0]
	rg := newRig(t, 2, func(c *Config) { c.FastPath = false })
	sink := &deferredSink{suite: rg.suite}
	rg.r.SetCryptoSink(sink)

	rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: oneReq})
	bad := rg.signShare(3, seq, 0, oneReq, false)
	bad.TauSig.Data = []byte("garbage")
	rg.r.Deliver(3, bad)
	rg.r.Deliver(1, rg.signShare(1, seq, 0, oneReq, false))
	// τ quorum of 3 (own share included), one of them garbage. The fourth
	// share arrives while the combine is in flight.
	if len(sink.combines) != 1 {
		t.Fatalf("%d combines staged, want 1", len(sink.combines))
	}
	rg.r.Deliver(4, rg.signShare(4, seq, 0, oneReq, false))
	sink.releaseCombine(0)
	if rg.r.Metrics.BadShares != 1 || rg.sentOfType(isPrepare) != 0 {
		t.Fatalf("BadShares=%d prepares=%d after the failed combine", rg.r.Metrics.BadShares, rg.sentOfType(isPrepare))
	}
	// The three clean shares are a quorum: combined again at once.
	if len(sink.combines) != 1 || len(sink.combines[0].shares) != 3 {
		t.Fatalf("retry = %+v", sink.combines)
	}
	sink.releaseCombine(0)
	if rg.sentOfType(isPrepare) == 0 {
		t.Fatal("no prepare from the remaining three shares")
	}
}

func TestExecCertRecombinesWithoutBadShare(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	const seq = 1
	id := cfg.ECollectors(seq, 0)[0]
	rg := newRig(t, id, nil)
	others := make([]int, 0, 3)
	for i := 1; i <= cfg.N(); i++ {
		if i != id {
			others = append(others, i)
		}
	}
	digest := []byte{1}
	signState := func(from int) SignStateMsg {
		sh, err := rg.keys[from-1].Pi.Sign(stateSigDigest(seq, digest))
		if err != nil {
			t.Fatal(err)
		}
		return SignStateMsg{Seq: seq, Replica: from, Digest: digest, PiSig: sh}
	}
	isExecProof := func(m Message) bool { _, ok := m.(FullExecuteProofMsg); return ok }

	bad := signState(others[0])
	bad.PiSig.Data = []byte("garbage")
	rg.r.Deliver(others[0], bad)
	rg.r.Deliver(others[1], signState(others[1]))
	// f+1 = 2 shares, one garbage: the combine fails and blames it.
	if rg.r.Metrics.BadShares != 1 || rg.sentOfType(isExecProof) != 0 {
		t.Fatalf("BadShares=%d proofs=%d", rg.r.Metrics.BadShares, rg.sentOfType(isExecProof))
	}
	rg.r.Deliver(others[2], signState(others[2]))
	if rg.sentOfType(isExecProof) == 0 {
		t.Fatal("π(d) not combined from the two clean shares")
	}
}

func TestCryptoSinkEpochInvalidation(t *testing.T) {
	seq := collectorSeqs(DefaultConfig(1, 0), 2, 0, 1)[0]
	rg := newRig(t, 2, nil)
	sink := &deferredSink{suite: rg.suite}
	rg.r.SetCryptoSink(sink)

	deliverShares := func() {
		for _, i := range []int{1, 3, 4} {
			rg.r.Deliver(i, rg.signShare(i, seq, 0, oneReq, true))
		}
	}
	rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: oneReq})
	deliverShares()
	if len(sink.combines) != 1 {
		t.Fatalf("%d combines in flight, want 1", len(sink.combines))
	}
	// The collector state resets (as a new view would) while the combine
	// is in flight: the completion must be dropped, not acted on.
	s := rg.r.slots[seq]
	s.resetCollector(0)
	sink.releaseCombine(0)
	if rg.sentOfType(isFastProof) != 0 || s.committed || s.sentFastProof {
		t.Fatalf("stale combine applied after reset: proofs=%d committed=%v", rg.sentOfType(isFastProof), s.committed)
	}
	if rg.r.Metrics.BadShares != 0 || rg.r.suspect(3) {
		t.Fatal("clean stale combine blamed somebody")
	}
	// The collector must not be wedged: a fresh round still certifies.
	s.sentSignShare = false
	rg.r.sendSignShare(s)
	deliverShares()
	if len(sink.combines) != 1 {
		t.Fatal("collector wedged after epoch bump")
	}
	sink.releaseCombine(0)
	if !s.committed {
		t.Fatal("fresh round did not commit after reset")
	}
}

// gcApp drops proof material below the stable point, as kvstore does.
type gcApp struct {
	fakeApp
	keepFrom uint64
}

func (a *gcApp) GarbageCollect(keepFrom uint64) { a.keepFrom = keepFrom }

func (a *gcApp) ProveOperation(seq uint64, l int) ([]byte, error) {
	if seq < a.keepFrom {
		return nil, errors.New("block not retained")
	}
	return a.fakeApp.ProveOperation(seq, l)
}

func TestExecAcksSurviveCheckpointGC(t *testing.T) {
	// A checkpoint can stabilize — collecting the slots and the
	// application's proof material below it — before an E-collector has
	// acked one of those blocks: its π(d) combine is still in flight on the
	// sink (benchmark finding 1), or the second π share has yet to arrive
	// (a lone client on a WAN). The collector keeps such a slot for one
	// stable point, its clients get their execute-acks all the same, and no
	// straggler brings a collected slot back.
	for _, tc := range []struct {
		name       string
		shareFirst bool
	}{
		{"combine in flight", true},
		{"share after the checkpoint", false},
	} {
		t.Run(tc.name, func(t *testing.T) { execAcksSurviveCheckpointGC(t, tc.shareFirst) })
	}
}

func execAcksSurviveCheckpointGC(t *testing.T, shareFirst bool) {
	cfg := DefaultConfig(1, 0)
	const seq, ckpt = 1, 4 // replica 2 collects for 1, 2 and 4; slot 3 is collected
	id := cfg.ECollectors(seq, 0)[0]
	rg := newRig(t, id, func(c *Config) { c.CheckpointInterval = ckpt; c.Win = 8 })
	app := &gcApp{}
	rg.r.app = app
	sink := &deferredSink{suite: rg.suite}
	rg.r.SetCryptoSink(sink)
	peer := id%cfg.N() + 1

	commitBlock := func(n uint64, reqs []Request) {
		rg.r.Deliver(1, PrePrepareMsg{Seq: n, View: 0, Reqs: reqs})
		rg.r.Deliver(1, (&syncRig{rg}).fastProof(t, n, 0, reqs))
	}
	// stabilize completes the f+1 checkpoint quorum at n with one peer's
	// share: checked as one job, then combined.
	stabilize := func(n uint64) {
		var root []byte
		for _, s := range rg.env.sent {
			if m, ok := s.msg.(CheckpointShareMsg); ok && m.Seq == n {
				root = m.Digest
			}
		}
		digest := CheckpointSigDigest(n, root)
		ck, err := rg.keys[peer-1].Pi.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		rg.r.Deliver(peer, CheckpointShareMsg{Seq: n, Replica: peer, Digest: root, PiSig: ck})
		if len(sink.verifies) != 1 || len(sink.verifies[0].jobs[0].Shares) != cfg.QuorumExec() {
			t.Fatalf("checkpoint quorum not staged as one verify job: %+v", sink.verifies)
		}
		sink.releaseVerify()
		sink.releaseCombineOver(t, digest)
		if rg.r.LastStable() != n || app.keepFrom != n {
			t.Fatalf("checkpoint not stable: ls=%d keepFrom=%d", rg.r.LastStable(), app.keepFrom)
		}
	}

	blocks := [][]Request{
		{{Client: ClientBase, Timestamp: 1, Op: []byte("x")}, {Client: ClientBase + 1, Timestamp: 1, Op: []byte("y")}},
		{{Client: ClientBase + 2, Timestamp: 1, Op: []byte("z")}},
		{{Client: ClientBase + 3, Timestamp: 1, Op: []byte("z")}},
		{{Client: ClientBase + 4, Timestamp: 1, Op: []byte("z")}},
	}
	for i, reqs := range blocks {
		commitBlock(uint64(i+1), reqs)
	}
	if rg.r.LastExecuted() != ckpt {
		t.Fatalf("blocks not executed: le=%d", rg.r.LastExecuted())
	}

	// One peer's sign-state share completes the f+1 π quorum of seq, before
	// the checkpoint or after it.
	piDigest := stateSigDigest(seq, []byte{1})
	pi, err := rg.keys[peer-1].Pi.Sign(piDigest)
	if err != nil {
		t.Fatal(err)
	}
	signState := SignStateMsg{Seq: seq, Replica: peer, Digest: []byte{1}, PiSig: pi}
	if shareFirst {
		rg.r.Deliver(peer, signState)
	}
	stabilize(ckpt)
	if s := rg.r.slots[seq]; s == nil || !s.executed || s.execAcked {
		t.Fatalf("the unacked slot did not survive the checkpoint as executed: %+v", s)
	}
	if !shareFirst {
		rg.r.Deliver(peer, signState)
	}
	sink.releaseCombineOver(t, piDigest)
	acked := map[int]bool{}
	for _, s := range rg.env.sent {
		if m, ok := s.msg.(ExecuteAckMsg); ok && m.Seq == seq && len(m.Proof) > 0 {
			acked[m.Client] = true
		}
	}
	if len(acked) != len(blocks[0]) {
		t.Fatalf("execute-acks reached %d of %d clients after the checkpoint", len(acked), len(blocks[0]))
	}

	// Stragglers for the collected sequences find what was kept or nothing:
	// none of them files a slot at or below the stable point.
	kept := len(rg.r.slots)
	if kept >= ckpt {
		t.Fatalf("%d of %d slots kept: no collected sequence to aim a straggler at", kept, ckpt)
	}
	for n := uint64(1); n <= ckpt; n++ {
		for _, m := range []Message{
			rg.signShare(peer, n, 0, blocks[n-1], true),
			FullCommitProofMsg{Seq: n}, PrepareMsg{Seq: n}, CommitMsg{Seq: n, Replica: peer},
			FullCommitProofSlowMsg{Seq: n}, SignStateMsg{Seq: n, Replica: peer, Digest: []byte{9}},
		} {
			rg.r.Deliver(peer, m)
		}
	}
	if len(rg.r.slots) != kept {
		t.Fatalf("stragglers filed %d slots at or below the stable point", len(rg.r.slots)-kept)
	}

	// The next stable point collects the kept slot.
	for n := uint64(ckpt + 1); n <= 2*ckpt; n++ {
		commitBlock(n, []Request{{Client: ClientBase + 4 + int(n), Timestamp: 1, Op: []byte("w")}})
	}
	stabilize(2 * ckpt)
	if oldest := rg.r.OldestSlot(); oldest != 0 && oldest <= ckpt {
		t.Fatalf("a slot at %d outlived the second stable point %d", oldest, 2*ckpt)
	}
}

func TestCombineBlameOverBLS(t *testing.T) {
	// Against the real BLS scheme through the shared sink policy: a clean
	// quorum combines with zero share verifications; a poisoned one fails
	// once and blames exactly the culprit.
	cfg := DefaultConfig(1, 0)
	suite, keys, err := DealSuite(cfg, threshbls.Dealer{})
	if err != nil {
		t.Fatal(err)
	}
	var verifies, shareVerifies int
	suite.Tau = countingScheme{suite.Tau, &verifies, &shareVerifies}
	digest := []byte("combine-digest")
	var shares []threshsig.Share
	for i := 0; i < 3; i++ {
		sh, err := keys[i].Tau.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	sink := syncSink{suite}
	sink.Combine(ShareTau, digest, shares, func(sig threshsig.Signature, err error) {
		if err != nil || suite.Tau.Verify(digest, sig) != nil {
			t.Fatalf("clean quorum: err=%v", err)
		}
	})
	if shareVerifies != 0 {
		t.Fatalf("clean combine verified %d shares through the suite", shareVerifies)
	}

	poisoned := append([]threshsig.Share(nil), shares...)
	bad, err := keys[1].Tau.Sign([]byte("some-other-digest"))
	if err != nil {
		t.Fatal(err)
	}
	poisoned[1] = bad
	sink.Combine(ShareTau, digest, poisoned, func(_ threshsig.Signature, err error) {
		var blame *threshsig.BadSharesError
		if !errors.As(err, &blame) || len(blame.Signers) != 1 || blame.Signers[0] != bad.Signer {
			t.Fatalf("poisoned quorum: err=%v, want blame on signer %d", err, bad.Signer)
		}
	})
	ok := VerifyJobShares(suite, VerifyJob{Kind: ShareTau, Digest: digest, Shares: poisoned})
	if len(ok) != 2 || ok[0].Signer == bad.Signer || ok[1].Signer == bad.Signer {
		t.Fatalf("suspect-path verification kept %v", ok)
	}
}
