package core

import (
	"slices"
	"testing"
	"time"
)

// Tests for the proposal rule (propose.go) and the §V-C satellites around
// it: batch-timer re-arming, the requeue client index, seen GC, and
// admission control.

// fillPending stuffs the queue directly through notePending (one request
// per distinct client), without triggering proposals.
func fillPending(rg *rig, n int) {
	for i := 0; i < n; i++ {
		rg.r.notePending(Request{Client: ClientBase + i, Timestamp: 1, Op: []byte("op")})
	}
}

// request delivers operation ts of client i, from that client.
func (rg *rig) request(i int, ts uint64) {
	c := ClientBase + i
	rg.r.Deliver(c, RequestMsg{Req: Request{Client: c, Timestamp: ts, Op: []byte("op")}})
}

// requests delivers operation 1 of clients from..to.
func (rg *rig) requests(from, to int) {
	for i := from; i <= to; i++ {
		rg.request(i, 1)
	}
}

// proposed returns the first pre-prepare sent for each sequence, in
// proposal order.
func proposed(rg *rig) []PrePrepareMsg {
	seen := map[uint64]bool{}
	var pps []PrePrepareMsg
	for _, s := range rg.env.sent {
		if pp, ok := s.msg.(PrePrepareMsg); ok && !seen[pp.Seq] {
			seen[pp.Seq] = true
			pps = append(pps, pp)
		}
	}
	return pps
}

// proposedSizes returns the block size of each distinct proposed
// sequence, in proposal order.
func proposedSizes(rg *rig) []int {
	var sizes []int
	for _, pp := range proposed(rg) {
		sizes = append(sizes, len(pp.Reqs))
	}
	return sizes
}

// commitSeq delivers the σ certificate of the block proposed at seq.
func (rg *rig) commitSeq(seq uint64) {
	rg.t.Helper()
	for _, pp := range proposed(rg) {
		if pp.Seq == seq {
			rg.r.Deliver(2, (&syncRig{rg}).fastProof(rg.t, seq, pp.View, pp.Reqs))
			return
		}
	}
	rg.t.Fatalf("sequence %d was never proposed", seq)
}

func TestProposalRule(t *testing.T) {
	// n=4, c=0: activeWindow = 3. The rig has no batch timer unless a case
	// sets BatchTimeout, so whatever a case releases, a commit released.
	timeout := func(c *Config) { c.BatchTimeout = 20 * time.Millisecond }
	cases := []struct {
		name   string
		tune   func(*Config)
		run    func(rg *rig)
		blocks []int  // size of every block proposed, in order
		queued int    // requests left in the queue
		holds  uint64 // Metrics.Holds
		timer  uint64 // Metrics.TimerProposals
	}{
		{"idle: an immediate singleton", nil,
			func(rg *rig) { rg.request(0, 1) }, []int{1}, 0, 0, 0},
		{"behind a slot in flight, from the third client on: held", nil,
			func(rg *rig) { rg.requests(0, 4) }, []int{1, 1}, 3, 3, 0},
		{"the slot's commit releases them as one block, no timer fire", timeout,
			func(rg *rig) { rg.requests(0, 4); rg.commitSeq(1) }, []int{1, 1, 3}, 0, 3, 0},
		{"two clients: never held", nil,
			func(rg *rig) {
				rg.requests(0, 1)
				rg.commitSeq(1)
				rg.request(0, 2)
				rg.commitSeq(2)
				rg.request(1, 2)
			}, []int{1, 1, 1, 1}, 0, 0, 0},
		{"the third client may be the one that committed last", nil,
			func(rg *rig) {
				rg.request(2, 1)
				rg.commitSeq(1)
				rg.request(0, 1) // idle again: at once
				rg.request(1, 1) // behind client 0, and client 2 is due back
			}, []int{1, 1}, 1, 1, 0},
		{"a queue reaching Batch opens another slot, up to activeWindow", // n=7: 6
			func(c *Config) { c.F = 2; c.Batch = 2 },
			func(rg *rig) { rg.requests(0, 11) }, []int{1, 1, 2, 2, 2, 2}, 2, 4, 0},
		{"the admission bound is a full batch when it is lower",
			func(c *Config) { c.MaxPending = 2 },
			func(rg *rig) { rg.requests(0, 3) }, []int{1, 1, 2}, 0, 1, 0},
		{"BatchTimeout releases a held batch into a window with room", timeout,
			func(rg *rig) { rg.requests(0, 3); rg.env.advance(20 * time.Millisecond) }, []int{1, 1, 2}, 0, 2, 1},
		{"a commit restarts the timer: a later hold gets its full wait", timeout,
			func(rg *rig) {
				rg.requests(0, 4)
				rg.env.advance(15 * time.Millisecond)
				rg.commitSeq(1) // releases clients 2–4; their timer is void
				rg.requests(5, 7)
				rg.env.advance(15 * time.Millisecond) // 30 ms after the first arming
			}, []int{1, 1, 3}, 3, 6, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rg := newRig(t, 1, tc.tune)
			tc.run(rg)
			got := proposedSizes(rg)
			if !slices.Equal(got, tc.blocks) {
				t.Fatalf("proposed %v, want %v", got, tc.blocks)
			}
			ops := 0
			for _, n := range got {
				ops += n
			}
			m := rg.r.Metrics
			if m.Proposals != uint64(len(got)) || m.ProposedOps != uint64(ops) {
				t.Errorf("Proposals/ProposedOps = %d/%d, want %d/%d", m.Proposals, m.ProposedOps, len(got), ops)
			}
			if len(rg.r.pending) != tc.queued || m.Holds != tc.holds || m.TimerProposals != tc.timer {
				t.Errorf("queued/Holds/TimerProposals = %d/%d/%d, want %d/%d/%d",
					len(rg.r.pending), m.Holds, m.TimerProposals, tc.queued, tc.holds, tc.timer)
			}
			if (rg.r.batchTimer.armed()) != (tc.queued > 0 && rg.cfg.BatchTimeout > 0) {
				t.Errorf("batch timer armed = %v with %d queued", rg.r.batchTimer.armed(), tc.queued)
			}
		})
	}
}

func TestViewInstallationReleasesHeld(t *testing.T) {
	// Replica 2 is the primary of view 1. In view 0 it holds the primary's
	// slot 1 uncommitted and retains three clients' requests; installing
	// view 1 adopts slot 1 (in flight again) and must send out everything
	// queued — the retained three and slot 1's own request — as one block,
	// not hold it behind the adopted slot.
	rg := newRig(t, 2, nil)
	rg.r.Deliver(1, PrePrepareMsg{Seq: 1, View: 0, Reqs: []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("op")}}})
	rg.requests(1, 3)
	for _, id := range []int{3, 4} {
		rg.r.Deliver(id, vcMsg(id))
	}
	if rg.r.View() != 1 || rg.r.InViewChange() {
		t.Fatalf("view 1 not installed: view=%d inViewChange=%v", rg.r.View(), rg.r.InViewChange())
	}
	var got []PrePrepareMsg
	for _, pp := range proposed(rg) {
		if pp.View == 1 {
			got = append(got, pp)
		}
	}
	if len(got) != 1 || got[0].Seq != 2 || len(got[0].Reqs) != 4 || len(rg.r.pending) != 0 {
		t.Fatalf("installation proposed %+v with %d still queued, want one block of 4 at sequence 2", got, len(rg.r.pending))
	}
}

func TestBatchTimerReArmsWhenWindowFull(t *testing.T) {
	rg := newRig(t, 1, func(c *Config) { c.BatchTimeout = 20 * time.Millisecond; c.Batch = 2 })
	// n=4, c=0: activeWindow = 3. Clients 0 and 1 go at once, a full batch
	// of two fills the window.
	rg.requests(0, 3)
	if got := proposedSizes(rg); !slices.Equal(got, []int{1, 1, 2}) {
		t.Fatalf("window fill proposed %v, want [1 1 2]", got)
	}
	// More arrivals queue up behind the full window — a full batch and
	// more; the batch timer must be armed so they cannot starve.
	rg.requests(4, 6)
	if got := len(proposedSizes(rg)); got != 3 {
		t.Fatalf("proposed %d blocks through a full window", got)
	}
	if !rg.r.batchTimer.armed() {
		t.Fatal("no batch timer with pending requests behind a full window")
	}
	// The timer firing into a still-full window must consume the fire and
	// re-arm — every early return of proposeIfReady re-arms (starvation
	// pin).
	rg.env.advance(20 * time.Millisecond)
	if got := len(proposedSizes(rg)); got != 3 {
		t.Fatalf("timer proposed %d blocks through a full window", got)
	}
	if !rg.r.batchTimer.armed() {
		t.Fatal("batch timer not re-armed after firing into a full window")
	}
	// A commit drains the queue itself: the full batch goes into the slot
	// it frees, and the request left over into the next one freed. Neither
	// waits for the next arrival or the timer.
	rg.commitSeq(1)
	if got := proposedSizes(rg); !slices.Equal(got, []int{1, 1, 2, 2}) || len(rg.r.pending) != 1 {
		t.Fatalf("first commit: proposed %v with %d queued, want a fourth block of 2 and 1 queued", got, len(rg.r.pending))
	}
	rg.commitSeq(2)
	if got := proposedSizes(rg); !slices.Equal(got, []int{1, 1, 2, 2, 1}) || len(rg.r.pending) != 0 {
		t.Fatalf("second commit: proposed %v with %d queued", got, len(rg.r.pending))
	}
	if rg.r.Metrics.TimerProposals != 0 || rg.r.batchTimer.armed() {
		t.Fatalf("TimerProposals = %d, timer armed = %v after commits drained the queue",
			rg.r.Metrics.TimerProposals, rg.r.batchTimer.armed())
	}
}

func TestRequeueSupersession(t *testing.T) {
	rg := newRig(t, 2, nil) // backup: the queue is not drained by proposals
	x, y, z := ClientBase, ClientBase+1, ClientBase+2
	rg.r.notePending(Request{Client: x, Timestamp: 5, Op: []byte("a")})

	// Exact duplicate: skipped.
	rg.r.requeue(Request{Client: x, Timestamp: 5, Op: []byte("a")})
	if len(rg.r.pending) != 1 {
		t.Fatalf("duplicate requeued: %d pending", len(rg.r.pending))
	}
	// Superseded by a queued LATER op of the same client (clients are
	// sequential; the queued ts=5 proves ts=3 completed): skipped.
	rg.r.requeue(Request{Client: x, Timestamp: 3, Op: []byte("old")})
	if len(rg.r.pending) != 1 {
		t.Fatalf("superseded op requeued: %d pending", len(rg.r.pending))
	}
	// A later op of the same client: added.
	rg.r.requeue(Request{Client: x, Timestamp: 7, Op: []byte("b")})
	if len(rg.r.pending) != 2 {
		t.Fatalf("later op not requeued: %d pending", len(rg.r.pending))
	}
	// A DIFFERENT client's queued high timestamp must never count as
	// supersession for this client's op.
	rg.r.requeue(Request{Client: y, Timestamp: 1, Op: []byte("c")})
	if len(rg.r.pending) != 3 {
		t.Fatalf("other client's timestamp blocked a requeue: %d pending", len(rg.r.pending))
	}
	// Already executed (reply cache covers it): skipped.
	rg.r.replyCache[z] = replyCacheEntry{timestamp: 4, seq: 1, l: 0, val: []byte("ok")}
	rg.r.requeue(Request{Client: z, Timestamp: 4, Op: []byte("d")})
	if len(rg.r.pending) != 3 {
		t.Fatalf("executed op requeued: %d pending", len(rg.r.pending))
	}
	rg.r.requeue(Request{Client: z, Timestamp: 5, Op: []byte("e")})
	if len(rg.r.pending) != 4 {
		t.Fatalf("fresh op of executed client not requeued: %d pending", len(rg.r.pending))
	}
}

func TestRequeueDeepQueue(t *testing.T) {
	// Regression: requeue used to scan all of pending per re-added request
	// — O(n²) at view installation. 10k queued + 10k requeued (plus a
	// duplicate pass) finishes instantly with the client index and took
	// whole seconds with the scan.
	rg := newRig(t, 2, nil)
	const depth = 10_000
	fillPending(rg, depth)
	start := time.Now()
	for i := 0; i < depth; i++ {
		rg.r.requeue(Request{Client: ClientBase + depth + i, Timestamp: 1, Op: []byte("op")})
	}
	for i := 0; i < depth; i++ { // duplicates: all index hits, no growth
		rg.r.requeue(Request{Client: ClientBase + depth + i, Timestamp: 1, Op: []byte("op")})
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("requeue of %d requests into a %d-deep queue took %v", depth, depth, elapsed)
	}
	if len(rg.r.pending) != 2*depth {
		t.Fatalf("pending = %d, want %d", len(rg.r.pending), 2*depth)
	}
	if len(rg.r.pendingIdx) != 2*depth {
		t.Fatalf("pendingIdx tracks %d clients, want %d", len(rg.r.pendingIdx), 2*depth)
	}
}

func TestSeenGCAfterExecution(t *testing.T) {
	// `seen` must only hold in-flight clients: once a request executes its
	// reply-cache entry takes over dedup, and the seen entry is dropped —
	// otherwise churning client populations grow the map forever.
	rg := newRig(t, 2, nil)
	req := Request{Client: ClientBase, Timestamp: 1, Op: []byte("x")}
	rg.r.Deliver(ClientBase, RequestMsg{Req: req})
	if _, ok := rg.r.seen[ClientBase]; !ok {
		t.Fatal("in-flight request not tracked in seen")
	}
	reqs := []Request{req}
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
	if rg.r.LastExecuted() != 1 {
		t.Fatalf("LastExecuted = %d", rg.r.LastExecuted())
	}
	if _, ok := rg.r.seen[ClientBase]; ok {
		t.Fatal("seen entry survived execution (unbounded growth under client churn)")
	}
	if _, ok := rg.r.replyCache[ClientBase]; !ok {
		t.Fatal("reply cache does not cover the executed request")
	}
	if len(rg.r.pending) != 0 || len(rg.r.pendingIdx) != 0 {
		t.Fatalf("executed request still queued: pending=%d idx=%d", len(rg.r.pending), len(rg.r.pendingIdx))
	}
}

func TestAdmissionRejectAtPrimary(t *testing.T) {
	rg := newRig(t, 1, func(c *Config) { c.MaxPending = 2 })
	// A queue at its bound counts as a full batch and is proposed while the
	// window has room (activeWindow = 3 at n=4), so nothing is rejected on
	// the way to a full window: clients 0 and 1 go at once, 2 and 3 as the
	// block that fills it.
	rg.requests(0, 3)
	if got := proposedSizes(rg); !slices.Equal(got, []int{1, 1, 2}) || rg.r.Metrics.AdmissionRejects != 0 {
		t.Fatalf("proposed %v with %d rejects while the window had room", got, rg.r.Metrics.AdmissionRejects)
	}
	// Two more are admitted into the bounded queue behind the full window.
	rg.requests(4, 5)
	if len(rg.r.pending) != 2 {
		t.Fatalf("pending = %d, want 2", len(rg.r.pending))
	}
	// The seventh client hits the bound with the window full: BusyMsg with a
	// positive retry hint, and no replica state retained for the rejected
	// request.
	rejected := ClientBase + 6
	rg.r.Deliver(rejected, RequestMsg{Req: Request{Client: rejected, Timestamp: 1, Op: []byte("op")}})
	var busy *BusyMsg
	for _, s := range rg.env.sent {
		if b, ok := s.msg.(BusyMsg); ok && s.to == rejected {
			busy = &b
		}
	}
	if busy == nil {
		t.Fatal("no BusyMsg sent for a rejected request")
	}
	if busy.Client != rejected || busy.Timestamp != 1 || busy.RetryAfter <= 0 {
		t.Fatalf("bad BusyMsg %+v", busy)
	}
	if rg.r.Metrics.AdmissionRejects != 1 {
		t.Fatalf("AdmissionRejects = %d", rg.r.Metrics.AdmissionRejects)
	}
	if _, ok := rg.r.seen[rejected]; ok {
		t.Fatal("rejected request leaked into seen")
	}
	// The watch map arms progress timers: a leaked entry for a rejected
	// (dropped) request would fire spurious view changes.
	if _, ok := rg.r.watch[rejected]; ok {
		t.Fatal("rejected request leaked a watch entry")
	}
	if len(rg.r.pending) != 2 {
		t.Fatalf("rejected request queued: pending = %d", len(rg.r.pending))
	}
	// A retry of an ALREADY-ADMITTED request passes the gate and hits the
	// normal dedup paths — no spurious reject.
	rg.request(5, 1)
	if rg.r.Metrics.AdmissionRejects != 1 {
		t.Fatalf("admitted request's retry rejected: AdmissionRejects = %d", rg.r.Metrics.AdmissionRejects)
	}
}

func TestAdmissionFullBackupForwards(t *testing.T) {
	// A full backup declines to retain the request but forwards it: the
	// primary runs its own admission and may have room. No BusyMsg — only
	// the primary's queue state should drive client backoff.
	rg := newRig(t, 2, func(c *Config) { c.MaxPending = 1 })
	rg.r.Deliver(ClientBase, RequestMsg{Req: Request{Client: ClientBase, Timestamp: 1, Op: []byte("a")}})
	before := len(rg.env.sent)
	over := ClientBase + 1
	rg.r.Deliver(over, RequestMsg{Req: Request{Client: over, Timestamp: 1, Op: []byte("b")}})
	forwarded := false
	for _, s := range rg.env.sent[before:] {
		if _, ok := s.msg.(BusyMsg); ok {
			t.Fatal("backup sent a BusyMsg")
		}
		if rm, ok := s.msg.(RequestMsg); ok && s.to == 1 && rm.Req.Client == over {
			forwarded = true
		}
	}
	if !forwarded {
		t.Fatal("full backup did not forward the request to the primary")
	}
	if rg.r.Metrics.AdmissionRejects != 1 {
		t.Fatalf("AdmissionRejects = %d", rg.r.Metrics.AdmissionRejects)
	}
	if len(rg.r.pending) != 1 {
		t.Fatalf("full backup retained the request: pending = %d", len(rg.r.pending))
	}
}

func TestClientBusyBackoff(t *testing.T) {
	c, env, _, _ := newTestClient(t)
	c.RequestTimeout = 100 * time.Millisecond
	if err := c.Submit([]byte("op")); err != nil {
		t.Fatal(err)
	}
	if len(env.sent) != 1 {
		t.Fatalf("sent %d messages", len(env.sent))
	}
	// A stale BusyMsg (wrong timestamp) is ignored.
	c.Deliver(1, BusyMsg{Client: c.ID(), Timestamp: 99, RetryAfter: 30 * time.Millisecond})
	if c.Backpressure != 0 {
		t.Fatal("stale BusyMsg counted")
	}
	c.Deliver(1, BusyMsg{Client: c.ID(), Timestamp: 1, RetryAfter: 30 * time.Millisecond})
	if c.Backpressure != 1 {
		t.Fatalf("Backpressure = %d", c.Backpressure)
	}
	// After the hint elapses: one resubmission to the primary alone — the
	// request was dropped, not lost, so no broadcast.
	env.advance(30 * time.Millisecond)
	if len(env.sent) != 2 {
		t.Fatalf("sent %d messages after backoff, want 2", len(env.sent))
	}
	if env.sent[1].to != 1 {
		t.Fatalf("backoff resubmission went to %d, want primary 1", env.sent[1].to)
	}
	rm := env.sent[1].msg.(RequestMsg)
	if rm.Req.Timestamp != 1 || rm.Req.Direct {
		t.Fatalf("bad resubmission %+v", rm)
	}
	// The normal §V-A retry ladder resumes after the resubmission.
	env.advance(100 * time.Millisecond)
	if c.Retries != 1 {
		t.Fatalf("Retries = %d after backoff + timeout", c.Retries)
	}
	if len(env.sent) != 2+4 { // broadcast to all n=4 replicas
		t.Fatalf("sent %d messages after retry", len(env.sent))
	}
}

func TestClientBusyHintClamped(t *testing.T) {
	// A lying primary cannot park a client beyond its request timeout.
	c, env, _, _ := newTestClient(t)
	c.RequestTimeout = 50 * time.Millisecond
	if err := c.Submit([]byte("op")); err != nil {
		t.Fatal(err)
	}
	c.Deliver(1, BusyMsg{Client: c.ID(), Timestamp: 1, RetryAfter: time.Hour})
	env.advance(50 * time.Millisecond)
	if len(env.sent) < 2 {
		t.Fatal("hour-long busy hint parked the client past its request timeout")
	}
}
