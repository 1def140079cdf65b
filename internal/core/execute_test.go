package core

import (
	"testing"
	"time"
)

// TestOwnExecCertificateIsNoFallback: an E-collector that combined π(d)
// for a block itself, and acknowledged its clients, has nothing to fall
// back from when the block's fallback timer fires — the slot is still in
// the table (no checkpoint has collected it) and no OTHER collector's
// proof ever arrived, which is all execCertified used to look at. It
// counted Metrics.ExecFallbacks on failure-free slots (347 for 463 blocks
// of bls4_write) and sent the client a second, signed-for-nothing reply.
func TestOwnExecCertificateIsNoFallback(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	const seq = 1
	id := cfg.ECollectors(seq, 0)[0]
	rg := &syncRig{newRig(t, id, nil)}
	peer := id%cfg.N() + 1
	reqs := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("x")}}

	rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: reqs})
	rg.r.Deliver(1, rg.fastProof(t, seq, 0, reqs))
	if rg.r.LastExecuted() != seq {
		t.Fatalf("block not executed: le=%d", rg.r.LastExecuted())
	}
	// One peer's share completes the f+1 π quorum: certificate, then acks.
	digest := []byte{1}
	share, err := rg.keys[peer-1].Pi.Sign(stateSigDigest(seq, digest))
	if err != nil {
		t.Fatal(err)
	}
	rg.r.Deliver(peer, SignStateMsg{Seq: seq, Replica: peer, Digest: digest, PiSig: share})
	acks := rg.sentOfType(func(m Message) bool { _, ok := m.(ExecuteAckMsg); return ok })
	if s := rg.r.slots[seq]; s == nil || !s.execAcked || acks != 1 {
		t.Fatalf("the collector did not certify and acknowledge its own slot (%d acks, slot %+v)", acks, s)
	}

	rg.env.advance(rg.cfg.ExecFallbackTimeout + 1)
	if rg.r.Metrics.ExecFallbacks != 0 {
		t.Fatalf("ExecFallbacks = %d on a slot this collector certified itself", rg.r.Metrics.ExecFallbacks)
	}
	if n := rg.sentOfType(func(m Message) bool { _, ok := m.(ReplyMsg); return ok }); n != 0 {
		t.Fatalf("%d direct replies sent to a client that holds its execute-ack", n)
	}
}

// TestExecFallbacksShareOneTimer: blocks executed at different times wait
// out their fallback timeouts on one timer, armed for the oldest block, and
// each block still falls back at its own deadline.
func TestExecFallbacksShareOneTimer(t *testing.T) {
	rg := &syncRig{newRig(t, 2, nil)}
	const step = 100 * time.Millisecond
	for seq := uint64(1); seq <= 3; seq++ {
		reqs := []Request{{Client: ClientBase + int(seq), Timestamp: 1, Op: []byte("x")}}
		rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: reqs})
		rg.r.Deliver(1, rg.fastProof(t, seq, 0, reqs))
		if seq < 3 {
			rg.env.advance(step)
		}
	}
	if rg.r.LastExecuted() != 3 {
		t.Fatalf("le = %d, want 3", rg.r.LastExecuted())
	}
	timeout := rg.cfg.ExecFallbackTimeout
	armed := 0
	for _, tm := range rg.env.timers {
		if tm.fn != nil && !tm.cancelled && tm.at >= timeout && tm.at <= timeout+2*step {
			armed++
		}
	}
	if armed != 1 {
		t.Fatalf("%d fallback timers armed for 3 executed blocks, want 1", armed)
	}
	for want := uint64(1); want <= 3; want++ {
		rg.env.advance(timeout + time.Duration(want-1)*step - rg.env.now - 1)
		if got := rg.r.Metrics.ExecFallbacks; got != want-1 {
			t.Fatalf("ExecFallbacks = %d just before block %d's deadline, want %d", got, want, want-1)
		}
		rg.env.advance(1)
		if got := rg.r.Metrics.ExecFallbacks; got != want {
			t.Fatalf("ExecFallbacks = %d at block %d's deadline, want %d", got, want, want)
		}
	}
}
