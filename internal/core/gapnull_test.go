package core

import (
	"testing"
	"time"
)

// TestGapRepairFetchesMissedDecision: a replica that committed seq 2 but
// never saw seq 1's decision (lost pre-prepare and commit proof) arms the
// gap-repair timer, fetches the missing decision from a peer, and adopts
// the certified CommitInfo answer — counted as a GapRepair.
func TestGapRepairFetchesMissedDecision(t *testing.T) {
	rg := newSyncRig(t, 2) // replica 2; view-0 primary is replica 1

	reqs1 := syncReqs("missed")
	reqs2 := []Request{{Client: ClientBase + 1, Timestamp: 1, Op: []byte("seen")}}

	// Seq 2 arrives and commits; seq 1's traffic was lost entirely.
	rg.r.Deliver(1, PrePrepareMsg{Seq: 2, View: 0, Reqs: reqs2})
	rg.r.Deliver(3, rg.fastProof(t, 2, 0, reqs2))
	if rg.r.LastExecuted() != 0 {
		t.Fatalf("executed through a gap: le=%d", rg.r.LastExecuted())
	}

	// The repair timer fires and asks a peer for the missing decision.
	rg.env.advance(gapRepairTimeout + 10*time.Millisecond)
	fetches := rg.sentOfType(func(m Message) bool {
		fm, ok := m.(FetchCommitMsg)
		return ok && fm.Seq == 1
	})
	if fetches == 0 {
		t.Fatal("no FetchCommit for the missing decision")
	}

	// A peer answers with the certified decision; both blocks execute.
	fp := rg.fastProof(t, 1, 0, reqs1)
	rg.r.Deliver(3, CommitInfoMsg{Seq: 1, View: 0, Reqs: reqs1, HasFast: true, Sigma: fp.Sigma})
	if rg.r.LastExecuted() != 2 {
		t.Fatalf("gap not repaired: le=%d, want 2", rg.r.LastExecuted())
	}
	if rg.r.Metrics.GapRepairs != 1 {
		t.Fatalf("GapRepairs = %d, want 1", rg.r.Metrics.GapRepairs)
	}
	if rg.r.Metrics.Executions != 2 {
		t.Fatalf("Executions = %d, want 2", rg.r.Metrics.Executions)
	}
}

// TestNullBlockExecutionCounted: a committed block carrying no requests
// (a view change's no-evidence gap filler) executes as a null block and
// is counted as such.
func TestNullBlockExecutionCounted(t *testing.T) {
	rg := newSyncRig(t, 2)
	rg.r.Deliver(1, PrePrepareMsg{Seq: 1, View: 0, Reqs: nil})
	rg.r.Deliver(3, rg.fastProof(t, 1, 0, nil))
	if rg.r.LastExecuted() != 1 {
		t.Fatalf("null block did not execute: le=%d", rg.r.LastExecuted())
	}
	if rg.r.Metrics.NullBlocks != 1 {
		t.Fatalf("NullBlocks = %d, want 1", rg.r.Metrics.NullBlocks)
	}
	if rg.r.Metrics.Executions != 1 {
		t.Fatalf("Executions = %d, want 1", rg.r.Metrics.Executions)
	}
}

// TestGapRepairBelowStableAnswersWithCertificate: a peer asked for a
// decision it collected below its stable checkpoint answers with the
// checkpoint's certificate, and the replica behind it starts a state
// transfer to that checkpoint. A snapshot meta in its place is dropped by
// a replica with no transfer in flight, which then waits forever.
func TestGapRepairBelowStableAnswersWithCertificate(t *testing.T) {
	server := newRig(t, 1, nil)
	cs := certifiedAt(t, server, 4, nil)
	server.r.snaps.adopt(cs)
	server.r.recordStable(cs.Seq, cs.Root(), cs.Pi)
	before := len(server.env.sent)
	server.r.Deliver(2, FetchCommitMsg{Replica: 2, Seq: 1})
	sent := server.env.sent[before:]
	cert, ok := CheckpointCertMsg{}, len(sent) == 1 && sent[0].to == 2
	if ok {
		cert, ok = sent[0].msg.(CheckpointCertMsg)
	}
	if !ok || cert.Seq != 4 {
		t.Fatalf("a fetch below the stable checkpoint was answered with %+v, want its certificate", sent)
	}

	behind := newRig(t, 2, nil)
	behind.r.Deliver(1, cert)
	if behind.r.LastStable() != 4 || behind.sentOfType(func(m Message) bool { _, ok := m.(FetchStateMsg); return ok }) == 0 {
		t.Fatalf("stable %d after the certificate, no state fetch: want stable 4 and a transfer", behind.r.LastStable())
	}
}

// TestStalledReplicaProbesTheTail: a replica whose execution stops, with
// no gap it can see, asks a peer for the decision after its frontier at
// gapRepairTimeout, then at doubling intervals, seven times in all; a gap
// cuts a back-off short, and progress starts over. A stable checkpoint
// certificate in answer starts a transfer, and so does a repeated one once
// a transfer toward it has ended short.
func TestStalledReplicaProbesTheTail(t *testing.T) {
	rg := newSyncRig(t, 2)
	commit := func(seq uint64) {
		reqs := []Request{{Client: ClientBase + int(seq), Timestamp: 1, Op: []byte("tail")}}
		rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: reqs})
		rg.r.Deliver(3, rg.fastProof(t, seq, 0, reqs))
	}
	probes := func(seq uint64) int {
		return rg.sentOfType(func(m Message) bool { fm, ok := m.(FetchCommitMsg); return ok && fm.Seq == seq })
	}
	stall := func(seq uint64, shifts int) {
		t.Helper()
		for i := 0; i < shifts; i++ {
			wait := gapRepairTimeout << i
			rg.env.advance(wait - time.Millisecond)
			if probes(seq) != i {
				t.Fatalf("%d probes for %d before interval %d ran out, want %d", probes(seq), seq, i+1, i)
			}
			rg.env.advance(time.Millisecond)
			if probes(seq) != i+1 {
				t.Fatalf("%d probes for %d after %d intervals, want %d", probes(seq), seq, i+1, i+1)
			}
		}
	}
	commit(1)
	stall(2, maxBackoffShift+1)
	rg.env.advance(time.Hour)
	if probes(2) != maxBackoffShift+1 {
		t.Fatalf("%d probes in a stall, want %d", probes(2), maxBackoffShift+1)
	}
	commit(2) // progress starts a new stall
	stall(3, 4)

	// A gap (block 4 commits above the missing 3) cuts the back-off short.
	commit(4)
	rg.env.advance(gapRepairTimeout)
	if probes(3) != 5 {
		t.Fatalf("%d probes one gapRepairTimeout after a gap opened, want 5", probes(3))
	}

	cs := certifiedAt(t, rg.rig, 8, nil)
	fetches := func() int {
		return rg.sentOfType(func(m Message) bool { _, ok := m.(FetchStateMsg); return ok })
	}
	cert := CheckpointCertMsg{Seq: cs.Seq, Digest: cs.Root(), Pi: cs.Pi}
	rg.r.Deliver(3, cert)
	if rg.r.LastStable() != 8 || fetches() == 0 {
		t.Fatalf("stable %d, %d state fetches after the certificate; want 8 and a transfer", rg.r.LastStable(), fetches())
	}
	rg.r.fetcher.fetch = nil // the transfer ended short of the checkpoint
	before := fetches()
	rg.r.Deliver(1, cert)
	if fetches() == before {
		t.Fatal("a certificate for the stable checkpoint the replica is behind started no transfer")
	}
}
