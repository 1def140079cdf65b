package core

import "testing"

// Deliver's sender rule: requests and reads come from anyone, every other
// message only from a replica, and a fetch is answered to whoever asked.

func TestClientCannotForceViewChange(t *testing.T) {
	rg := newRig(t, 2, nil) // the primary of view 1
	for _, c := range []int{ClientBase, ClientBase + 1} {
		rg.r.Deliver(c, ViewChangeMsg{NewView: 1, Replica: c})
	}
	if rg.r.View() != 0 || rg.r.InViewChange() {
		t.Fatalf("view %d (in view change: %v) after two clients' view changes, want 0",
			rg.r.View(), rg.r.InViewChange())
	}
	if n := rg.sentOfType(isNewView); n != 0 {
		t.Fatalf("%d new-view messages sent", n)
	}
}

func TestClientCannotCreateSlots(t *testing.T) {
	rg := newRig(t, 2, nil)
	for seq := uint64(1); seq <= 1000; seq++ {
		c := ClientBase + int(seq)
		rg.r.Deliver(c, SignShareMsg{Seq: seq, View: 0, Replica: c, TauSig: threshShare{Signer: c}})
		rg.r.Deliver(c, SignStateMsg{Seq: seq, Replica: c, Digest: []byte{1}, PiSig: threshShare{Signer: c}})
	}
	if n := len(rg.r.slots); n != 0 {
		t.Fatalf("clients' shares created %d slots", n)
	}
}

func TestFetchAnswersGoToTheAsker(t *testing.T) {
	rg := newRig(t, 1, nil)
	cs := certifiedAt(t, rg, 2, nil)
	rg.r.snaps.adopt(cs)
	fetches := []func(asker int) Message{
		func(asker int) Message { return FetchStateMsg{Replica: asker, Seq: cs.Seq} },
		func(asker int) Message { return FetchSnapshotChunkMsg{Replica: asker, Seq: cs.Seq, Index: 1} },
		func(asker int) Message { return FetchCommitMsg{Replica: asker, Seq: 1} },
	}
	for _, fetch := range fetches {
		// Replica 4 names replica 3 as the asker: nothing may go to 3.
		before := len(rg.env.sent)
		rg.r.Deliver(4, fetch(3))
		if sent := rg.env.sent[before:]; len(sent) != 0 {
			t.Errorf("%T naming replica 3, sent by 4: sent %T to %d", fetch(3), sent[0].msg, sent[0].to)
			continue
		}
		// Asked by replica 3 itself, it is answered to 3.
		rg.r.Deliver(3, fetch(3))
		if sent := rg.env.sent[before:]; len(sent) != 1 || sent[0].to != 3 {
			t.Errorf("%T from replica 3: %d answers, want one to 3", fetch(3), len(sent))
		}
	}
}
