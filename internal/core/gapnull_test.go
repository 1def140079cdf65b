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
