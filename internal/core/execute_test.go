package core

import "testing"

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
