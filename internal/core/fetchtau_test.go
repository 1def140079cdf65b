package core

import (
	"slices"
	"testing"
	"time"

	"sbft/internal/crypto/threshsig"
)

// countingSigner counts the shares a key signs.
type countingSigner struct {
	threshsig.Signer
	n *int
}

func (c countingSigner) Sign(digest []byte) (threshsig.Share, error) {
	*c.n++
	return c.Signer.Sign(digest)
}

// signShareTo returns the sign-share rg's replica last sent for seq.
func (rg *rig) signShareTo(seq uint64) SignShareMsg {
	rg.t.Helper()
	for i := len(rg.env.sent) - 1; i >= 0; i-- {
		if ss, ok := rg.env.sent[i].msg.(SignShareMsg); ok && ss.Seq == seq {
			return ss
		}
	}
	rg.t.Fatalf("no sign-share sent for %d", seq)
	return SignShareMsg{}
}

func carries(ss SignShareMsg) (sigma, tau bool) {
	return len(ss.SigmaSig.Data) > 0, len(ss.TauSig.Data) > 0
}

// TestSignShareTauFollowsThePath: a view starts out signing τ(h) beside
// σ(h); activeWindow (3) fast commits later a sign-share carries σ alone,
// and a slow-path commit brings τ back.
func TestSignShareTauFollowsThePath(t *testing.T) {
	rg := &syncRig{newRig(t, 2, nil)}
	reqs := func(seq uint64) []Request {
		return []Request{{Client: ClientBase + int(seq), Timestamp: 1, Op: []byte("x")}}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: reqs(seq)})
		if sigma, tau := carries(rg.signShareTo(seq)); !sigma || !tau {
			t.Fatalf("block %d, a view's first activeWindow: σ %v τ %v, want both", seq, sigma, tau)
		}
		rg.r.Deliver(1, rg.fastProof(t, seq, 0, reqs(seq)))
	}
	rg.r.Deliver(1, PrePrepareMsg{Seq: 4, View: 0, Reqs: reqs(4)})
	if sigma, tau := carries(rg.signShareTo(4)); !sigma || tau {
		t.Fatalf("block 4, after 3 fast commits: σ %v τ %v, want σ alone", sigma, tau)
	}
	rg.r.Deliver(1, rg.slowProof(t, 4, 0, reqs(4)))
	rg.r.Deliver(1, PrePrepareMsg{Seq: 5, View: 0, Reqs: reqs(5)})
	if sigma, tau := carries(rg.signShareTo(5)); !sigma || !tau {
		t.Fatalf("block 5, after a slow commit: σ %v τ %v, want both", sigma, tau)
	}
}

// TestFetchTauAnsweredOnce: a collector flooding requests for one slot
// gets one τ(h) signature from the replica, sent τ-only to every
// C-collector; requests from a non-collector, for another view or for a
// slot without a pre-prepare get nothing.
func TestFetchTauAnsweredOnce(t *testing.T) {
	rg := newRig(t, 2, nil)
	rg.r.eagerTau = 0 // past the view's first activeWindow fast commits
	tauSigns := 0
	rg.r.keys.Tau = countingSigner{rg.r.keys.Tau, &tauSigns}
	const seq = 1
	rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: oneReq})
	if _, tau := carries(rg.signShareTo(seq)); tau || tauSigns != 0 {
		t.Fatalf("τ signed %d times before anyone asked", tauSigns)
	}
	collectors := rg.cfg.CCollectors(seq, 0)
	outsider := 0
	for id := 1; id <= rg.cfg.N(); id++ {
		if !slices.Contains(collectors, id) {
			outsider = id
		}
	}
	rg.r.Deliver(outsider, FetchTauMsg{Seq: seq, View: 0})
	rg.r.Deliver(collectors[0], FetchTauMsg{Seq: seq, View: 1})
	rg.r.Deliver(collectors[0], FetchTauMsg{Seq: seq + 1, View: 0})
	if tauSigns != 0 {
		t.Fatalf("τ signed %d times for requests that are not a collector's for this slot", tauSigns)
	}
	sent := len(rg.env.sent)
	for i := 0; i < 10; i++ {
		for _, c := range collectors {
			rg.r.Deliver(c, FetchTauMsg{Seq: seq, View: 0})
		}
	}
	if tauSigns != 1 {
		t.Fatalf("τ signed %d times for a flood of requests, want once", tauSigns)
	}
	var to []int
	for _, s := range rg.env.sent[sent:] {
		ss, ok := s.msg.(SignShareMsg)
		if !ok {
			continue
		}
		if sigma, tau := carries(ss); sigma || !tau {
			t.Fatalf("answer carries σ %v τ %v, want τ alone", sigma, tau)
		}
		to = append(to, s.to)
	}
	want := slices.DeleteFunc(slices.Clone(collectors), func(c int) bool { return c == rg.r.id })
	if !slices.Equal(to, want) {
		t.Fatalf("τ-only answers went to %v, want every other C-collector %v", to, want)
	}
}

// TestCollectorAsksForMissingTau: a collector whose fast timer runs out
// with 2f+c+1 σ-only sign-shares asks their signers for τ(h), asks again
// each fast-timer period whoever has not answered, and prepares once the
// τ-only answers make the quorum.
func TestCollectorAsksForMissingTau(t *testing.T) {
	seq := collectorSeqs(DefaultConfig(1, 0), 2, 0, 1)[0]
	rg := newRig(t, 2, nil)
	rg.r.eagerTau = 0
	rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: oneReq})
	peers := []int{1, 3} // with the collector's own: 2f+c+1 = 3, one short of σ's 4
	for _, p := range peers {
		m := rg.signShare(p, seq, 0, oneReq, true)
		m.TauSig = threshsig.Share{}
		rg.r.Deliver(p, m)
	}
	asked := func() (to []int) {
		for _, sm := range rg.env.sent {
			if _, ok := sm.msg.(FetchTauMsg); ok {
				to = append(to, sm.to)
			}
		}
		rg.env.sent = nil
		return to
	}
	if to := asked(); len(to) != 0 {
		t.Fatalf("asked %v for τ before the fast timer ran out", to)
	}
	rg.env.advance(rg.r.fastTimerDuration())
	if to := asked(); !slices.Equal(to, peers) {
		t.Fatalf("asked %v for τ, want %v", to, peers)
	}
	if _, own := rg.r.slots[seq].tauShares[2]; !own {
		t.Fatal("the collector did not answer its own request")
	}
	answer := func(p int) {
		h := BlockHash(seq, 0, oneReq)
		tau, err := rg.keys[p-1].Tau.Sign(h[:])
		if err != nil {
			t.Fatal(err)
		}
		rg.r.Deliver(p, SignShareMsg{Seq: seq, View: 0, Replica: p, TauSig: tau})
	}
	answer(1) // 3's answer is lost
	rg.env.advance(rg.r.fastTimerDuration())
	if to := asked(); !slices.Equal(to, []int{3}) || rg.r.Metrics.TauFetches != 2 {
		t.Fatalf("second round asked %v (TauFetches %d), want [3] (2)", to, rg.r.Metrics.TauFetches)
	}
	answer(3)
	if rg.sentOfType(isPrepare) == 0 {
		t.Fatal("no prepare once the τ answers made the quorum")
	}
}

// ring wires n replicas to each other in memory and delivers in FIFO
// order with no loss and no timers: a fault-free run. Messages to clients
// are dropped.
type ring struct {
	reps  []*Replica // 1-based
	queue []ringMsg
}

type ringMsg struct {
	from, to int
	msg      Message
}

type ringEnv struct {
	rg *ring
	id int
}

func (e ringEnv) Send(to int, m Message)                      { e.rg.queue = append(e.rg.queue, ringMsg{e.id, to, m}) }
func (e ringEnv) Now() time.Duration                          { return 0 }
func (e ringEnv) After(time.Duration, func()) (cancel func()) { return func() {} }

func (rg *ring) drain() {
	for len(rg.queue) > 0 {
		m := rg.queue[0]
		rg.queue = rg.queue[1:]
		if !IsClient(m.to) {
			rg.reps[m.to].Deliver(m.from, m.msg)
		}
	}
}

// TestFaultFreeBlockSignsNoTau: once the fast path has carried a view's
// first activeWindow commits, a fault-free block costs every replica one σ
// share and one π share, 2n signatures, and nobody signs τ(h) — the
// fallback's share is asked for only when a collector's fast timer runs
// out. Signing τ beside σ on every block cost 3n.
func TestFaultFreeBlockSignsNoTau(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	cfg.BatchTimeout = 0
	suite, keys, err := InsecureSuite(cfg, "ring")
	if err != nil {
		t.Fatal(err)
	}
	var sigma, tau, pi int
	rg := &ring{reps: make([]*Replica, cfg.N()+1)}
	for id := 1; id <= cfg.N(); id++ {
		k := ReplicaKeys{
			Sigma: countingSigner{keys[id-1].Sigma, &sigma},
			Tau:   countingSigner{keys[id-1].Tau, &tau},
			Pi:    countingSigner{keys[id-1].Pi, &pi},
		}
		if rg.reps[id], err = NewReplica(id, cfg, suite, k, &fakeApp{}, ringEnv{rg, id}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// One request per block: the primary proposes at once when nothing is
	// in flight, and drain runs each block to its execution everywhere.
	block := func(i int) {
		c := ClientBase + i
		rg.reps[1].Deliver(c, RequestMsg{Req: Request{Client: c, Timestamp: 1, Op: []byte("op")}})
		rg.drain()
	}
	aw := int(rg.reps[1].activeWindow())
	for i := 0; i < aw; i++ {
		block(i)
	}
	if tau != cfg.N()*aw {
		t.Fatalf("a view's first %d blocks signed τ %d times, want %d", aw, tau, cfg.N()*aw)
	}
	sigma, tau, pi = 0, 0, 0
	const blocks = 20
	for i := aw; i < aw+blocks; i++ {
		block(i)
	}
	for _, r := range rg.reps[1:] {
		if r.LastExecuted() != uint64(aw+blocks) || r.Metrics.SlowCommits != 0 {
			t.Fatalf("replica %d executed %d blocks, %d slow; want %d, all fast", r.ID(), r.LastExecuted(), r.Metrics.SlowCommits, aw+blocks)
		}
	}
	n := cfg.N()
	if sigma != n*blocks || tau != 0 || pi != n*blocks {
		t.Fatalf("%d blocks signed σ %d, τ %d, π %d times; want %d, 0, %d (2n per block)", blocks, sigma, tau, pi, n*blocks, n*blocks)
	}
}
