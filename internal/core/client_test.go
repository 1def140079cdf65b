package core

import (
	"errors"
	"testing"
	"time"

	"sbft/internal/crypto/threshsig"
)

type threshShare = threshsig.Share

// ErrInvalidProof is a sentinel for verifier-rejection tests.
var ErrInvalidProof = errors.New("test: invalid proof")

// fakeEnv drives sans-io nodes deterministically.
type fakeEnv struct {
	now    time.Duration
	sent   []fakeSent
	timers []*fakeTimer
}

type fakeSent struct {
	to  int
	msg Message
}

type fakeTimer struct {
	at        time.Duration
	fn        func()
	cancelled bool
}

func (e *fakeEnv) Send(to int, msg Message) { e.sent = append(e.sent, fakeSent{to, msg}) }
func (e *fakeEnv) Now() time.Duration       { return e.now }
func (e *fakeEnv) After(d time.Duration, fn func()) func() {
	t := &fakeTimer{at: e.now + d, fn: fn}
	e.timers = append(e.timers, t)
	return func() { t.cancelled = true }
}

func (e *fakeEnv) advance(d time.Duration) {
	e.now += d
	for _, t := range e.timers {
		if !t.cancelled && t.fn != nil && t.at <= e.now {
			fn := t.fn
			t.fn = nil
			fn()
		}
	}
}

func newTestClient(t *testing.T) (*Client, *fakeEnv, CryptoSuite, []ReplicaKeys) {
	t.Helper()
	cfg := DefaultConfig(1, 0)
	suite, keys, err := InsecureSuite(cfg, "client-test")
	if err != nil {
		t.Fatal(err)
	}
	env := &fakeEnv{}
	c, err := NewClient(ClientBase, cfg, suite, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, env, suite, keys
}

func TestNewClientValidation(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	suite, _, _ := InsecureSuite(cfg, "x")
	if _, err := NewClient(5, cfg, suite, &fakeEnv{}, nil); err == nil {
		t.Fatal("replica-range id accepted as client")
	}
}

func TestClientSubmitSendsToPrimary(t *testing.T) {
	c, env, _, _ := newTestClient(t)
	if c.Busy() {
		t.Fatal("fresh client busy")
	}
	if err := c.Submit([]byte("op")); err != nil {
		t.Fatal(err)
	}
	if !c.Busy() {
		t.Fatal("client not busy after submit")
	}
	if err := c.Submit([]byte("op2")); err == nil {
		t.Fatal("second concurrent submit accepted")
	}
	if len(env.sent) != 1 || env.sent[0].to != 1 {
		t.Fatalf("request not sent to the view-0 primary: %+v", env.sent)
	}
	req := env.sent[0].msg.(RequestMsg)
	if req.Req.Timestamp != 1 || string(req.Req.Op) != "op" || req.Req.Direct {
		t.Fatalf("bad request %+v", req)
	}
}

// buildExecAck assembles a valid execute-ack for op with the suite's π
// scheme.
func buildExecAck(t *testing.T, suite CryptoSuite, keys []ReplicaKeys, client int, ts uint64, val []byte) ExecuteAckMsg {
	t.Helper()
	digest := []byte("state-digest")
	sd := stateSigDigest(7, digest)
	sh1, err := keys[0].Pi.Sign(sd)
	if err != nil {
		t.Fatal(err)
	}
	sh2, err := keys[1].Pi.Sign(sd)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := suite.Pi.Combine(sd, []threshsigShare{sh1, sh2})
	if err != nil {
		t.Fatal(err)
	}
	return ExecuteAckMsg{
		Seq: 7, L: 0, Val: val,
		Client: client, Timestamp: ts,
		Digest: digest, Pi: pi,
	}
}

func TestClientAcceptsSingleExecuteAck(t *testing.T) {
	c, env, suite, keys := newTestClient(t)
	var got *Result
	c.SetOnResult(func(r Result) { got = &r })
	if err := c.Submit([]byte("op")); err != nil {
		t.Fatal(err)
	}
	env.advance(30 * time.Millisecond)
	c.Deliver(2, buildExecAck(t, suite, keys, c.ID(), 1, []byte("result")))
	if got == nil {
		t.Fatal("no result after valid execute-ack")
	}
	if string(got.Val) != "result" || !got.FastAck || got.Seq != 7 {
		t.Fatalf("result = %+v", got)
	}
	if got.Latency != 30*time.Millisecond {
		t.Fatalf("latency = %v", got.Latency)
	}
	if c.Busy() {
		t.Fatal("client still busy after completion")
	}
}

func TestClientRejectsForgedAck(t *testing.T) {
	c, env, suite, keys := newTestClient(t)
	var got *Result
	c.SetOnResult(func(r Result) { got = &r })
	c.Submit([]byte("op"))
	_ = env

	t.Run("bad signature", func(t *testing.T) {
		m := buildExecAck(t, suite, keys, c.ID(), 1, []byte("v"))
		m.Pi.Data = []byte("forged")
		c.Deliver(2, m)
		if got != nil {
			t.Fatal("forged π accepted")
		}
	})
	t.Run("wrong timestamp", func(t *testing.T) {
		m := buildExecAck(t, suite, keys, c.ID(), 99, []byte("v"))
		c.Deliver(2, m)
		if got != nil {
			t.Fatal("mismatched timestamp accepted")
		}
	})
	t.Run("wrong client", func(t *testing.T) {
		m := buildExecAck(t, suite, keys, c.ID()+1, 1, []byte("v"))
		c.Deliver(2, m)
		if got != nil {
			t.Fatal("another client's ack accepted")
		}
	})
}

func TestClientVerifierRejection(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	suite, keys, _ := InsecureSuite(cfg, "client-test")
	env := &fakeEnv{}
	rejectAll := func([]byte, []byte, []byte, uint64, int, []byte) error {
		return ErrInvalidProof
	}
	c, err := NewClient(ClientBase, cfg, suite, env, rejectAll)
	if err != nil {
		t.Fatal(err)
	}
	var got *Result
	c.SetOnResult(func(r Result) { got = &r })
	c.Submit([]byte("op"))
	c.Deliver(2, buildExecAck(t, suite, keys, c.ID(), 1, []byte("v")))
	if got != nil {
		t.Fatal("ack accepted despite proof verifier rejection")
	}
}

func TestClientFPlusOneReplyPath(t *testing.T) {
	c, _, _, _ := newTestClient(t)
	var got *Result
	c.SetOnResult(func(r Result) { got = &r })
	c.Submit([]byte("op"))

	reply := func(from int, val string) {
		c.Deliver(from, ReplyMsg{
			Seq: 3, L: 0, Replica: from,
			Client: c.ID(), Timestamp: 1, Val: []byte(val),
		})
	}
	reply(1, "A")
	if got != nil {
		t.Fatal("single reply accepted (need f+1 = 2)")
	}
	reply(2, "B") // mismatched value: no quorum yet
	if got != nil {
		t.Fatal("mismatched replies accepted")
	}
	reply(3, "A") // second matching reply → f+1
	if got == nil {
		t.Fatal("f+1 matching replies not accepted")
	}
	if string(got.Val) != "A" || got.FastAck {
		t.Fatalf("result = %+v", got)
	}
}

func TestClientDuplicateReplySameReplica(t *testing.T) {
	c, _, _, _ := newTestClient(t)
	var got *Result
	c.SetOnResult(func(r Result) { got = &r })
	c.Submit([]byte("op"))
	for i := 0; i < 3; i++ {
		c.Deliver(2, ReplyMsg{Seq: 3, Replica: 2, Client: c.ID(), Timestamp: 1, Val: []byte("A")})
	}
	if got != nil {
		t.Fatal("duplicate replies from one replica counted toward f+1")
	}
}

func TestClientRetryBroadcastsDirect(t *testing.T) {
	c, env, _, _ := newTestClient(t)
	c.RequestTimeout = 100 * time.Millisecond
	c.SetOnResult(func(Result) {})
	c.Submit([]byte("op"))
	env.advance(150 * time.Millisecond)

	// After the timeout the client rebroadcasts with Direct=true (§V-A).
	direct := 0
	for _, m := range env.sent[1:] {
		if r, ok := m.msg.(RequestMsg); ok && r.Req.Direct {
			direct++
		}
	}
	if direct != c.cfg.N() {
		t.Fatalf("retry broadcast reached %d replicas, want %d", direct, c.cfg.N())
	}
	if c.Retries != 1 {
		t.Fatalf("Retries = %d", c.Retries)
	}
}

func TestClientIgnoresRepliesFromNonReplicas(t *testing.T) {
	c, _, _, _ := newTestClient(t)
	var got *Result
	c.SetOnResult(func(r Result) { got = &r })
	c.Submit([]byte("op"))
	// Sender ids outside 1..n must not count.
	c.Deliver(99, ReplyMsg{Seq: 1, Replica: 99, Client: c.ID(), Timestamp: 1, Val: []byte("A")})
	c.Deliver(100, ReplyMsg{Seq: 1, Replica: 100, Client: c.ID(), Timestamp: 1, Val: []byte("A")})
	if got != nil {
		t.Fatal("replies from non-replica ids accepted")
	}
}

// threshsigShare aliases the share type for test brevity.
type threshsigShare = threshShare

// threshSig aliases the signature type for replica tests.
type threshSig = threshsig.Signature

// TestClientLearnsViewFromReplies pins the post-view-change routing
// optimization: the client adopts the view hint carried by the f+1
// matching repliers (or by a verified execute-ack) and addresses the new
// view's primary directly on the next operation.
func TestClientLearnsViewFromReplies(t *testing.T) {
	c, env, _, _ := newTestClient(t)
	c.SetOnResult(func(Result) {})
	c.Submit([]byte("op1"))
	if env.sent[0].to != c.cfg.Primary(0) {
		t.Fatalf("first request sent to %d, want view-0 primary %d", env.sent[0].to, c.cfg.Primary(0))
	}

	// Two matching replies claiming view 3 (one honest is among any f+1).
	for _, from := range []int{2, 3} {
		c.Deliver(from, ReplyMsg{
			Seq: 3, Replica: from, Client: c.ID(), Timestamp: 1, View: 3, Val: []byte("A"),
		})
	}
	if c.View() != 3 {
		t.Fatalf("client view = %d after f+1 replies claiming view 3", c.View())
	}

	before := len(env.sent)
	c.Submit([]byte("op2"))
	if to := env.sent[before].to; to != c.cfg.Primary(3) {
		t.Fatalf("post-view-change request sent to %d, want view-3 primary %d", to, c.cfg.Primary(3))
	}
}

// TestClientViewHintFromExecuteAck: the single-message path updates the
// view too, and stale hints never move the view backwards (absent retry
// evidence that the stored view misroutes).
func TestClientViewHintFromExecuteAck(t *testing.T) {
	c, _, suite, keys := newTestClient(t)
	c.SetOnResult(func(Result) {})
	c.Submit([]byte("op"))
	ack := buildExecAck(t, suite, keys, c.ID(), 1, []byte("r"))
	ack.View = 3
	c.Deliver(2, ack)
	if c.View() != 3 {
		t.Fatalf("client view = %d after execute-ack claiming view 3", c.View())
	}

	// A later completion with a stale view hint must not regress.
	c.Submit([]byte("op2"))
	ack2 := buildExecAck(t, suite, keys, c.ID(), 2, []byte("r2"))
	ack2.View = 1
	c.Deliver(3, ack2)
	if c.View() != 3 {
		t.Fatalf("client view regressed to %d on stale hint", c.View())
	}
}

// TestClientViewHintBoundedAndResetOnRetry pins the anti-poisoning rules:
// a wildly inflated hint (a lying replica steering the client at a view
// where it would be primary forever) is rejected by the one-rotation
// drift cap, and an operation that needed the retry broadcast — proof
// the stored view misroutes — replaces the stored view with the
// completing quorum's hint, even downward.
func TestClientViewHintBoundedAndResetOnRetry(t *testing.T) {
	c, env, suite, keys := newTestClient(t)
	c.SetOnResult(func(Result) {})
	c.RequestTimeout = time.Second

	// Inflated single-ack hint: rejected (drift cap is one rotation, n=4).
	c.Submit([]byte("op"))
	ack := buildExecAck(t, suite, keys, c.ID(), 1, []byte("r"))
	ack.View = 1000
	c.Deliver(2, ack)
	if c.View() != 0 {
		t.Fatalf("client adopted inflated view %d", c.View())
	}

	// Legitimately reach view 3, then a retried op completes with a
	// quorum claiming view 1: the reset rule adopts it (downward).
	c.Submit([]byte("op2"))
	ack2 := buildExecAck(t, suite, keys, c.ID(), 2, []byte("r2"))
	ack2.View = 3
	c.Deliver(2, ack2)
	if c.View() != 3 {
		t.Fatalf("client view = %d, want 3", c.View())
	}
	c.Submit([]byte("op3"))
	env.advance(2 * time.Second) // force the §V-A retry broadcast
	for _, from := range []int{1, 4} {
		c.Deliver(from, ReplyMsg{
			Seq: 9, Replica: from, Client: c.ID(), Timestamp: 3, View: 1, Val: []byte("v"),
		})
	}
	if c.View() != 1 {
		t.Fatalf("client view = %d after retried completion hinting view 1, want reset", c.View())
	}
}

// TestClientMismatchedRepliesDoNotMoveView: view hints from replies that
// never formed the f+1 quorum are not adopted.
func TestClientMismatchedRepliesDoNotMoveView(t *testing.T) {
	c, _, _, _ := newTestClient(t)
	c.SetOnResult(func(Result) {})
	c.Submit([]byte("op"))
	c.Deliver(2, ReplyMsg{Seq: 3, Replica: 2, Client: c.ID(), Timestamp: 1, View: 9, Val: []byte("X")})
	if c.View() != 0 {
		t.Fatalf("client adopted view %d from a single unconfirmed reply", c.View())
	}
}

// TestClientRetriedFastAckHintStillCapped: the downward-reset rule for
// retried operations must not open an unbounded upward channel — a single
// unauthenticated execute-ack after a retry cannot teleport the view.
func TestClientRetriedFastAckHintStillCapped(t *testing.T) {
	c, env, suite, keys := newTestClient(t)
	c.SetOnResult(func(Result) {})
	c.RequestTimeout = time.Second
	c.Submit([]byte("op"))
	env.advance(2 * time.Second) // retried
	ack := buildExecAck(t, suite, keys, c.ID(), 1, []byte("r"))
	ack.View = 1 << 40
	c.Deliver(2, ack)
	if c.View() != 0 {
		t.Fatalf("retried completion adopted inflated view %d", c.View())
	}
}

// TestFastAckCompletionAllocs pins what one verified execute-ack costs the
// client on its way to a Result beyond the π check itself: one object, the
// Result's copy of the value. The ack carries a proof, so a copy of it, or
// of the op, digest or value for anything but the Result, shows up here.
func TestFastAckCompletionAllocs(t *testing.T) {
	const runs, want = 50, 1
	c, _, suite, keys := newTestClient(t)
	var got Result
	c.SetOnResult(func(r Result) { got = r })
	op := []byte("op")
	acks := make([]ExecuteAckMsg, runs+1) // AllocsPerRun adds a warm-up run
	pending := make([]*pendingOp, runs+1)
	for i := range acks {
		ts := uint64(i + 1)
		acks[i] = buildExecAck(t, suite, keys, c.ID(), ts, []byte("result"))
		acks[i].Proof = make([]byte, 146)
		pending[i] = &pendingOp{op: op, ts: ts}
	}
	check := testing.AllocsPerRun(runs, func() {
		suite.Pi.Verify(stateSigDigest(acks[0].Seq, acks[0].Digest), acks[0].Pi)
	})
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c.cur = pending[i]
		c.onExecuteAck(2, acks[i])
		i++
	})
	if c.Completed != uint64(runs+1) || !got.FastAck || string(got.Val) != "result" {
		t.Fatalf("%d of %d acks completed, last result %+v", c.Completed, i, got)
	}
	if allocs-check != want {
		t.Fatalf("a fast-ack completion allocates %.0f objects beyond the %.0f of its π check, want %d", allocs-check, check, want)
	}
}
