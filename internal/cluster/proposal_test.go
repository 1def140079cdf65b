package cluster

import (
	"testing"
	"time"

	"sbft/internal/core"
	"sbft/internal/sim"
)

// TestLoneClientAckedAcrossCheckpoints: with one client on a WAN the stable
// checkpoint at a sequence can form at its E-collector before the second π
// share of that very sequence arrives. The collector must keep the slot it
// still owes acks for: a share arriving afterwards used to bring back a
// blank slot that could never ack, and the client sat out its retry timer.
func TestLoneClientAckedAcrossCheckpoints(t *testing.T) {
	net := sim.ContinentProfile(13)
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, Clients: 1, Seed: 13, NetCfg: &net,
		Tune: func(c *core.Config) { c.CheckpointInterval = 8 },
	})
	op := 0
	cl.OnResult = func(_ int, res core.Result) {
		op++
		if res.Retried || res.Latency > 200*time.Millisecond {
			t.Errorf("operation %d: latency %v, retried=%v, fastAck=%v", op, res.Latency, res.Retried, res.FastAck)
		}
	}
	if res := cl.RunClosedLoop(40, kvGen, 5*time.Minute); res.Completed != 40 {
		t.Fatalf("completed %d of 40", res.Completed)
	}
	cl.Run(time.Second) // let the last checkpoint's stragglers land
	for id := 1; id <= cl.N; id++ {
		r := cl.Replicas[id]
		if r.LastStable() != 40 {
			t.Fatalf("replica %d: stable at %d, want 40", id, r.LastStable())
		}
		if oldest := r.OldestSlot(); oldest != 0 && oldest <= 32 {
			t.Errorf("replica %d holds a slot at %d, below the previous stable point 32", id, oldest)
		}
	}
}

// TestClosedLoopBlockFill drives the proposal rule (core/propose.go) with
// the paper's measurement loop on a failure-free LAN under DefaultCosts:
// eight clients fill blocks with three operations and more, every held
// request released by a commit and none by the batch timer; with two
// clients nothing is ever held — the hold branch is the only way a request
// stays queued across an event while the window has room.
func TestClosedLoopBlockFill(t *testing.T) {
	for _, clients := range []int{8, 2} {
		lan := sim.UniformProfile(100 * time.Microsecond)
		cl := newKV(t, Options{Protocol: ProtoSBFT, F: 1, Clients: clients, Seed: 5, NetCfg: &lan})
		const ops = 100
		res := cl.RunClosedLoop(ops, kvGen, time.Minute)
		m := cl.Metrics()
		if int(res.Completed) != clients*ops || res.Retries != 0 || m.ViewChanges != 0 || m.AdmissionRejects != 0 {
			t.Fatalf("%d clients: completed %d of %d, %d retried, %d view changes, %d rejected",
				clients, res.Completed, clients*ops, res.Retries, m.ViewChanges, m.AdmissionRejects)
		}
		if m.ProposedOps != res.Completed || m.TimerProposals != 0 {
			t.Errorf("%d clients: %d operations proposed for %d completed, %d blocks forced out by the batch timer",
				clients, m.ProposedOps, res.Completed, m.TimerProposals)
		}
		fill := float64(m.ProposedOps) / float64(m.Proposals)
		t.Logf("%d clients: %.2f operations per block over %d blocks, %d holds", clients, fill, m.Proposals, m.Holds)
		switch {
		case clients == 8 && (fill < 3 || m.Holds == 0):
			t.Errorf("8 clients: %.2f operations per block (%d holds), want at least 3", fill, m.Holds)
		case clients == 2 && (m.Holds != 0 || m.Proposals != m.ProposedOps):
			t.Errorf("2 clients: %d holds, %d blocks for %d operations, want none held and one block each",
				m.Holds, m.Proposals, m.ProposedOps)
		}
	}
}
