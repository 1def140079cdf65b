package core

import (
	"slices"
	"testing"
	"time"
)

// Sans-io unit tests driving a single replica through protocol phases with
// a fake environment, independent of the simulator.

type fakeApp struct {
	blocks  int
	ops     int
	digests [][]byte
}

func (a *fakeApp) ExecuteBlock(seq uint64, ops [][]byte) [][]byte {
	a.blocks++
	a.ops += len(ops)
	out := make([][]byte, len(ops))
	for i := range out {
		out[i] = []byte("ok")
	}
	return out
}
func (a *fakeApp) Digest() []byte {
	d := []byte{byte(a.blocks)}
	a.digests = append(a.digests, d)
	return d
}
func (a *fakeApp) ProveOperation(uint64, int) ([]byte, error) { return []byte("proof"), nil }
func (a *fakeApp) SnapshotChunks() ([][]byte, bool, error) {
	return [][]byte{[]byte("snap")}, true, nil
}
func (a *fakeApp) Restore([]byte) error  { return nil }
func (a *fakeApp) GarbageCollect(uint64) {}

// rig holds a replica under test plus all peer signing keys so the test
// can forge valid protocol messages from other replicas.
type rig struct {
	t     *testing.T
	cfg   Config
	suite CryptoSuite
	keys  []ReplicaKeys
	env   *fakeEnv
	app   *fakeApp
	r     *Replica
}

func newRig(t *testing.T, id int, tune func(*Config)) *rig {
	t.Helper()
	cfg := DefaultConfig(1, 0)
	cfg.BatchTimeout = 0
	cfg.CollectorStagger = 0
	if tune != nil {
		tune(&cfg)
	}
	suite, keys, err := InsecureSuite(cfg, "replica-test")
	if err != nil {
		t.Fatal(err)
	}
	env := &fakeEnv{}
	app := &fakeApp{}
	r, err := NewReplica(id, cfg, suite, keys[id-1], app, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, cfg: cfg, suite: suite, keys: keys, env: env, app: app, r: r}
}

func (rg *rig) signShare(from int, seq, view uint64, reqs []Request, fast bool) SignShareMsg {
	rg.t.Helper()
	h := BlockHash(seq, view, reqs)
	tau, err := rg.keys[from-1].Tau.Sign(h[:])
	if err != nil {
		rg.t.Fatal(err)
	}
	m := SignShareMsg{Seq: seq, View: view, Replica: from, TauSig: tau}
	if fast {
		sig, err := rg.keys[from-1].Sigma.Sign(h[:])
		if err != nil {
			rg.t.Fatal(err)
		}
		m.SigmaSig = sig
	}
	return m
}

func (rg *rig) sentOfType(match func(Message) bool) int {
	n := 0
	for _, s := range rg.env.sent {
		if match(s.msg) {
			n++
		}
	}
	return n
}

func TestNewReplicaValidation(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	suite, keys, _ := InsecureSuite(cfg, "x")
	if _, err := NewReplica(0, cfg, suite, keys[0], &fakeApp{}, &fakeEnv{}, nil); err == nil {
		t.Fatal("id 0 accepted")
	}
	if _, err := NewReplica(9, cfg, suite, keys[0], &fakeApp{}, &fakeEnv{}, nil); err == nil {
		t.Fatal("id beyond n accepted")
	}
	bad := cfg
	bad.Batch = 0
	if _, err := NewReplica(1, bad, suite, keys[0], &fakeApp{}, &fakeEnv{}, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestBackupSendsSignSharesToCollectors: a backup's sign-share goes to
// each C-collector but itself, once. While it carries τ (a view's first
// activeWindow blocks) the primary, the fallback collector, is among them;
// once it carries σ alone the primary is not, and asks for it only if its
// turn comes.
func TestBackupSendsSignSharesToCollectors(t *testing.T) {
	rg := &syncRig{newRig(t, 2, nil)}
	sentTo := func(seq uint64) (to []int) {
		for _, sm := range rg.env.sent {
			if ss, ok := sm.msg.(SignShareMsg); ok && ss.Seq == seq {
				// The fast-path σ share must be present (within the gate).
				if len(ss.SigmaSig.Data) == 0 {
					t.Fatalf("σ share missing on the fast path: %+v", ss)
				}
				to = append(to, sm.to)
			}
		}
		return to
	}
	others := func(seq uint64, primary bool) []int {
		return slices.DeleteFunc(rg.cfg.CCollectors(seq, 0), func(c int) bool {
			return c == 2 || !primary && c == rg.cfg.Primary(0)
		})
	}
	reqs := func(seq uint64) []Request {
		return []Request{{Client: ClientBase + int(seq), Timestamp: 1, Op: []byte("x")}}
	}
	aw := rg.r.activeWindow()
	for seq := uint64(1); seq <= aw+1; seq++ {
		rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: reqs(seq)})
		eager := seq <= aw
		if to, want := sentTo(seq), others(seq, eager); !slices.Equal(to, want) {
			t.Fatalf("block %d (τ signed: %v): sign-shares went to %v, want %v (collectors %v)",
				seq, eager, to, want, rg.cfg.CCollectors(seq, 0))
		}
		if _, tau := carries(rg.signed(seq)); tau != eager {
			t.Fatalf("block %d: τ signed %v, want %v", seq, tau, eager)
		}
		rg.r.Deliver(1, rg.fastProof(t, seq, 0, reqs(seq)))
	}
}

func TestReplicaRejectsPrePrepareFromNonPrimary(t *testing.T) {
	rg := newRig(t, 2, nil)
	reqs := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("x")}}
	rg.r.Deliver(3, PrePrepareMsg{Seq: 1, View: 0, Reqs: reqs}) // 3 is not primary of view 0
	if got := rg.sentOfType(func(m Message) bool { _, ok := m.(SignShareMsg); return ok }); got != 0 {
		t.Fatal("replica signed a pre-prepare from a non-primary")
	}
}

func TestEquivocationTriggersViewChange(t *testing.T) {
	rg := newRig(t, 2, nil)
	reqsA := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("A")}}
	reqsB := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("B")}}
	rg.r.Deliver(1, PrePrepareMsg{Seq: 1, View: 0, Reqs: reqsA})
	rg.r.Deliver(1, PrePrepareMsg{Seq: 1, View: 0, Reqs: reqsB})
	if !rg.r.InViewChange() {
		t.Fatal("equivocation did not trigger a view change")
	}
	if rg.sentOfType(func(m Message) bool { _, ok := m.(ViewChangeMsg); return ok }) == 0 {
		t.Fatal("no view-change message broadcast")
	}
}

func TestFullCommitProofCommitsAndExecutes(t *testing.T) {
	rg := newRig(t, 2, nil)
	reqs := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("x")}}
	rg.r.Deliver(1, PrePrepareMsg{Seq: 1, View: 0, Reqs: reqs})

	h := BlockHash(1, 0, reqs)
	var shares []threshShare
	for i := 1; i <= rg.cfg.QuorumFast(); i++ {
		sh, err := rg.keys[i-1].Sigma.Sign(h[:])
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	sigma, err := rg.suite.Sigma.Combine(h[:], shares)
	if err != nil {
		t.Fatal(err)
	}
	rg.r.Deliver(3, FullCommitProofMsg{Seq: 1, View: 0, Sigma: sigma})
	if rg.app.blocks != 1 || rg.app.ops != 1 {
		t.Fatalf("executed blocks=%d ops=%d", rg.app.blocks, rg.app.ops)
	}
	if rg.r.LastExecuted() != 1 {
		t.Fatalf("LastExecuted = %d", rg.r.LastExecuted())
	}
	if rg.r.Metrics.FastCommits != 1 {
		t.Fatalf("FastCommits = %d", rg.r.Metrics.FastCommits)
	}
	// A forged proof for seq 2 must not commit.
	rg.r.Deliver(1, PrePrepareMsg{Seq: 2, View: 0, Reqs: reqs})
	rg.r.Deliver(3, FullCommitProofMsg{Seq: 2, View: 0, Sigma: threshSignature{Data: []byte("junk")}})
	if rg.r.LastExecuted() != 1 {
		t.Fatal("forged commit proof executed a block")
	}
}

func TestCollectorCombinesFastQuorum(t *testing.T) {
	// Make replica 2 a C-collector for some sequence and feed it 3f+c+1
	// sign-shares: it must broadcast a full-commit-proof.
	cfg := DefaultConfig(1, 0)
	var seq uint64
	for s := uint64(1); s < 64; s++ {
		for _, c := range cfg.CCollectors(s, 0) {
			if c == 2 {
				seq = s
				break
			}
		}
		if seq != 0 {
			break
		}
	}
	if seq == 0 {
		t.Skip("replica 2 not a collector in the first 64 slots")
	}
	rg := newRig(t, 2, nil)
	reqs := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("x")}}
	rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: reqs})
	for i := 1; i <= rg.cfg.QuorumFast(); i++ {
		if i == 2 {
			continue // own share was produced by sendSignShare
		}
		rg.r.Deliver(i, rg.signShare(i, seq, 0, reqs, true))
	}
	if rg.sentOfType(func(m Message) bool { _, ok := m.(FullCommitProofMsg); return ok }) == 0 {
		t.Fatal("collector did not broadcast a full-commit-proof at quorum")
	}
}

func TestSharesBufferedBeforePrePrepare(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	var seq uint64
	for s := uint64(1); s < 64; s++ {
		for _, c := range cfg.CCollectors(s, 0) {
			if c == 2 {
				seq = s
			}
		}
		if seq != 0 {
			break
		}
	}
	if seq == 0 {
		t.Skip("replica 2 not a collector early")
	}
	rg := newRig(t, 2, nil)
	reqs := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("x")}}
	// Shares arrive BEFORE the pre-prepare (WAN reordering).
	for i := 1; i <= rg.cfg.QuorumFast(); i++ {
		if i == 2 {
			continue
		}
		rg.r.Deliver(i, rg.signShare(i, seq, 0, reqs, true))
	}
	if rg.sentOfType(func(m Message) bool { _, ok := m.(FullCommitProofMsg); return ok }) != 0 {
		t.Fatal("proof sent before the pre-prepare arrived")
	}
	rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: reqs})
	if rg.sentOfType(func(m Message) bool { _, ok := m.(FullCommitProofMsg); return ok }) == 0 {
		t.Fatal("buffered shares were not replayed after the pre-prepare")
	}
}

func TestFastGateExcludesSigmaShareFarAhead(t *testing.T) {
	rg := newRig(t, 2, func(c *Config) { c.Win = 64 }) // gate = win/4 = 16
	reqs := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("x")}}
	// Sequence 20 is beyond le(0) + 16: τ share only (§V-F restriction).
	rg.r.Deliver(1, PrePrepareMsg{Seq: 20, View: 0, Reqs: reqs})
	found := false
	for _, s := range rg.env.sent {
		if ss, ok := s.msg.(SignShareMsg); ok && ss.Seq == 20 {
			found = true
			if len(ss.SigmaSig.Data) != 0 {
				t.Fatal("σ share sent beyond the fast-path gate")
			}
			if len(ss.TauSig.Data) == 0 {
				t.Fatal("τ share missing")
			}
		}
	}
	if !found {
		t.Fatal("no sign-share sent")
	}
}

func TestProgressTimeoutStartsViewChange(t *testing.T) {
	rg := newRig(t, 2, func(c *Config) { c.ViewChangeTimeout = 100 * time.Millisecond })
	rg.r.Deliver(ClientBase, RequestMsg{Req: Request{Client: ClientBase, Timestamp: 1, Op: []byte("x")}})
	rg.env.advance(250 * time.Millisecond)
	if !rg.r.InViewChange() {
		t.Fatal("no view change after progress timeout")
	}
	if rg.r.View() != 1 {
		t.Fatalf("view = %d, want 1", rg.r.View())
	}
	// Duplicate client retries must not postpone the timeout (regression:
	// the timer is armed, not reset, on request arrival).
	rg2 := newRig(t, 3, func(c *Config) { c.ViewChangeTimeout = 100 * time.Millisecond })
	for i := 0; i < 5; i++ {
		rg2.r.Deliver(ClientBase, RequestMsg{Req: Request{Client: ClientBase, Timestamp: 1, Op: []byte("x")}})
		rg2.env.advance(30 * time.Millisecond)
	}
	if !rg2.r.InViewChange() {
		t.Fatal("client retries postponed the view-change timer")
	}
}

func TestPrimaryProposesAdaptively(t *testing.T) {
	// The adaptive batch heuristic (§V-C, §VIII) sizes blocks by pending
	// load: at low load a single request proposes immediately rather than
	// waiting to fill cfg.Batch.
	rg := newRig(t, 1, func(c *Config) {
		c.Batch = 8
		c.BatchTimeout = 50 * time.Millisecond
	})
	rg.r.Deliver(ClientBase, RequestMsg{Req: Request{Client: ClientBase, Timestamp: 1, Op: []byte("x")}})
	var proposed *PrePrepareMsg
	for _, s := range rg.env.sent {
		if pp, ok := s.msg.(PrePrepareMsg); ok {
			proposed = &pp
			break
		}
	}
	if proposed == nil {
		t.Fatal("low-load request not proposed")
	}
	if len(proposed.Reqs) != 1 || proposed.Seq != 1 {
		t.Fatalf("proposal = %+v", proposed)
	}
}

func TestReplyFromCache(t *testing.T) {
	rg := newRig(t, 2, nil)
	reqs := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("x")}}
	rg.r.Deliver(1, PrePrepareMsg{Seq: 1, View: 0, Reqs: reqs})
	h := BlockHash(1, 0, reqs)
	var shares []threshShare
	for i := 1; i <= rg.cfg.QuorumFast(); i++ {
		sh, _ := rg.keys[i-1].Sigma.Sign(h[:])
		shares = append(shares, sh)
	}
	sigma, _ := rg.suite.Sigma.Combine(h[:], shares)
	rg.r.Deliver(3, FullCommitProofMsg{Seq: 1, View: 0, Sigma: sigma})

	before := len(rg.env.sent)
	rg.r.Deliver(ClientBase, RequestMsg{Req: reqs[0]})
	var cached bool
	for _, s := range rg.env.sent[before:] {
		if rep, ok := s.msg.(ReplyMsg); ok && rep.Timestamp == 1 && s.to == ClientBase {
			cached = true
		}
	}
	if !cached {
		t.Fatal("retried executed request not served from the reply cache")
	}
}

type threshSignature = threshSig

func TestCheckpointShareQuorumAdvancesStable(t *testing.T) {
	rg := newRig(t, 2, func(c *Config) { c.CheckpointInterval = 1; c.Win = 8 })
	d := []byte("ckpt-digest")
	sd := CheckpointSigDigest(4, d)
	for i := 1; i <= rg.cfg.QuorumExec(); i++ {
		sh, err := rg.keys[i-1].Pi.Sign(sd)
		if err != nil {
			t.Fatal(err)
		}
		rg.r.Deliver(i, CheckpointShareMsg{Seq: 4, Replica: i, Digest: d, PiSig: sh})
	}
	if rg.r.LastStable() != 4 {
		t.Fatalf("LastStable = %d, want 4", rg.r.LastStable())
	}
}

func TestAdaptiveFastTimer(t *testing.T) {
	rg := newRig(t, 2, func(c *Config) { c.FastPathTimeout = 100 * time.Millisecond })
	r := rg.r

	// No observations: the configured floor applies.
	if got := r.fastTimerDuration(); got != 100*time.Millisecond {
		t.Fatalf("floor = %v, want 100ms", got)
	}

	// A large observed spread stretches the timer (2× the EWMA).
	r.fastSpread.observe(200 * time.Millisecond)
	if got := r.fastTimerDuration(); got != 400*time.Millisecond {
		t.Fatalf("adaptive = %v, want 400ms", got)
	}

	// EWMA converges toward repeated small observations.
	for i := 0; i < 40; i++ {
		r.fastSpread.observe(20 * time.Millisecond)
	}
	if got := r.fastTimerDuration(); got != 100*time.Millisecond {
		t.Fatalf("after small spreads = %v, want the 100ms floor", got)
	}

	// The cap bounds pathological observations (crashed replicas must not
	// inflate commit latency unboundedly).
	for i := 0; i < 40; i++ {
		r.fastSpread.observe(10 * time.Second)
	}
	if got := r.fastTimerDuration(); got != 600*time.Millisecond {
		t.Fatalf("capped = %v, want 6×floor = 600ms", got)
	}
}
