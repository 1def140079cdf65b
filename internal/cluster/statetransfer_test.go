package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/sim"
)

func TestRecoveredReplicaCatchesUpViaStateTransfer(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: 30,
		Tune: func(c *core.Config) {
			c.Win = 8
			c.Batch = 1
			c.CheckpointInterval = 4
			c.ViewChangeTimeout = 2 * time.Second
		},
	})
	// Take replica 4 down early; the rest (exactly a slow quorum of 3)
	// keep committing. With c=0 the fast quorum needs all 4, so the run
	// proceeds on the slow path.
	cl.Net.Crash(4)
	res := cl.RunClosedLoop(30, kvGen, 5*time.Minute)
	if res.Completed != 60 {
		t.Fatalf("completed %d of 60 with one crashed replica", res.Completed)
	}

	frontier := cl.Replicas[1].LastExecuted()
	if frontier < 30 {
		t.Fatalf("frontier only %d; want deep history for the catch-up", frontier)
	}

	// Recover replica 4 and drive more traffic so it observes the gap.
	cl.Net.Recover(4)
	more := cl.RunClosedLoop(20, kvGen, 5*time.Minute)
	if more.Completed != 40 {
		t.Fatalf("completed %d of 40 after recovery", more.Completed)
	}
	// Let retransmissions and fetches settle.
	cl.Run(time.Minute)

	r4 := cl.Replicas[4]
	if r4.LastExecuted() == 0 {
		t.Fatal("recovered replica never executed anything (state transfer failed)")
	}
	m := cl.Metrics()
	if m.StateFetches == 0 {
		t.Error("no state fetches recorded despite a deep gap")
	}
	// The recovered replica must be consistent with the others at its
	// frontier: compare digests by re-deriving from another replica's
	// history is not possible here, so check it reached at least the
	// stable point and agrees where frontiers match.
	if r4.LastExecuted() < r4.LastStable() {
		t.Errorf("recovered replica executed %d below its stable point %d", r4.LastExecuted(), r4.LastStable())
	}
	for id := 1; id <= cl.N; id++ {
		if cl.Replicas[id].LastExecuted() == r4.LastExecuted() && id != 4 {
			if !bytes.Equal(cl.Apps[id].Digest(), cl.Apps[4].Digest()) {
				t.Fatalf("recovered replica digest differs from replica %d at same frontier", id)
			}
		}
	}
	digestsAgree(t, cl)
}

// TestMultiIntervalTransferCompletesWithoutRestart pins the carried
// ROADMAP item 3 bug: a state transfer that spans multiple checkpoint
// intervals — the serving snapshot is superseded while the fetch is in
// flight, and a full-drop stall window lets the cluster advance ≥2 more
// stable checkpoints mid-transfer — must retarget, carrying its held
// chunks over, and complete WITHOUT ever discarding fetched chunks.
// Before the generation chain, every supersession restarted the transfer
// from scratch; under sustained load a laggard could chase checkpoints
// forever.
func TestMultiIntervalTransferCompletesWithoutRestart(t *testing.T) {
	bigVal := bytes.Repeat([]byte{0x77, 0x5a, 0x33}, 32*1024/3)
	bigGen := func(client, i int) []byte {
		return kvstore.Put(fmt.Sprintf("c%d/k%d", client, i), bigVal)
	}
	// The seed must let one of the first two pre-prepares through the 15%
	// inbound loss, or the victim learns of no gap before the stall and has
	// no transfer in flight for it to interrupt (33 does not, since the
	// history phase stopped losing execute-acks and draws differently).
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: 34,
		ClientTimeout: time.Second,
		Tune: func(c *core.Config) {
			c.Win = 8
			c.Batch = 1
			c.CheckpointInterval = 4
			c.ViewChangeTimeout = 2 * time.Second
			c.SnapshotRetain = 8 // deep chain: every mid-transfer base stays servable
		},
	})
	// Deep history while the victim is down: its catch-up must go through
	// chunked state transfer (the slots are GC'd below the stable point).
	cl.Net.Crash(4)
	res := cl.RunClosedLoop(24, bigGen, 10*time.Minute)
	if res.Completed != 48 {
		t.Fatalf("completed %d of 48 with the victim down", res.Completed)
	}
	frontier0 := cl.Replicas[1].LastStable()
	if frontier0 == 0 {
		t.Fatal("no stable checkpoint before recovery")
	}

	// Recover behind a lossy inbound link, then stall the transfer
	// completely for a stretch during which the live replicas keep
	// committing — the stable frontier crosses ≥2 checkpoint intervals
	// while the victim's fetch hangs mid-flight.
	cl.Net.SetLinkFault(sim.AnyNode, 4, sim.LinkFault{Drop: 0.15})
	cl.Net.Recover(4)
	cl.Sched.Schedule(300*time.Millisecond, func() {
		cl.Net.SetLinkFault(sim.AnyNode, 4, sim.LinkFault{Drop: 1})
	})
	cl.Sched.Schedule(2300*time.Millisecond, func() {
		cl.Net.SetLinkFault(sim.AnyNode, 4, sim.LinkFault{Drop: 0.15})
	})
	more := cl.RunClosedLoop(16, func(client, i int) []byte {
		return kvstore.Put(fmt.Sprintf("mid/c%d/k%d", client, i), bigVal)
	}, 10*time.Minute)
	if more.Completed != 32 {
		t.Fatalf("completed %d of 32 through the stall window", more.Completed)
	}
	cl.Net.SetLinkFault(sim.AnyNode, 4, sim.LinkFault{})
	// Fresh traffic after the stall keeps checkpoints announcing until
	// the victim converges.
	post := cl.RunClosedLoop(4, func(client, i int) []byte {
		return kvstore.Put(fmt.Sprintf("post/c%d/k%d", client, i), bigVal)
	}, 10*time.Minute)
	if post.Completed != 8 {
		t.Fatalf("completed %d of 8 after the stall", post.Completed)
	}
	cl.Run(2 * time.Minute)

	frontier1 := cl.Replicas[1].LastStable()
	if frontier1 < frontier0+8 {
		t.Fatalf("stable frontier advanced only %d→%d; need ≥2 checkpoint intervals mid-transfer",
			frontier0, frontier1)
	}
	m := cl.Replicas[4].Metrics
	if cl.Replicas[4].LastExecuted() < frontier1 {
		t.Fatalf("victim did not catch up: le=%d, stable=%d (fetches=%d chunks=%d restarts=%d)",
			cl.Replicas[4].LastExecuted(), frontier1, m.StateFetches,
			m.SnapshotChunks, m.SnapshotTransferRestarts)
	}
	if m.StateFetches == 0 || m.SnapshotChunks == 0 {
		t.Fatalf("catch-up bypassed state transfer (fetches=%d chunks=%d)", m.StateFetches, m.SnapshotChunks)
	}
	// The heart of the fix: the transfer was superseded mid-flight (the
	// target moved across intervals) yet NEVER restarted — progress was
	// carried forward under equal leaves.
	if m.SnapshotTransferRestarts != 0 {
		t.Fatalf("transfer restarted %d times across the multi-interval window", m.SnapshotTransferRestarts)
	}
	if m.SnapshotReuseTransfers == 0 {
		t.Fatal("no chunk reuse recorded: the transfer never spanned an interval boundary")
	}
	digestsAgree(t, cl)
}

func TestLaggardCatchesUpDuringViewChange(t *testing.T) {
	// A replica partitioned through a view change must still converge
	// afterwards via the new-view stable point and state transfer.
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 2, C: 0, // n = 7
		Clients: 3, Seed: 31,
		Tune: func(c *core.Config) {
			c.Win = 16
			c.Batch = 1
			c.CheckpointInterval = 8
			c.ViewChangeTimeout = 500 * time.Millisecond
		},
		ClientTimeout: time.Second,
	})
	cl.Net.Crash(7)
	cl.Sched.Schedule(2*time.Second, func() { cl.Net.Crash(1) }) // primary dies too (f=2)
	res := cl.RunClosedLoop(20, kvGen, 10*time.Minute)
	if res.Completed != 60 {
		t.Fatalf("completed %d of 60", res.Completed)
	}
	cl.Net.Recover(7)
	more := cl.RunClosedLoop(10, kvGen, 10*time.Minute)
	if more.Completed != 30 {
		t.Fatalf("completed %d of 30 after recovery", more.Completed)
	}
	cl.Run(time.Minute)
	if cl.Replicas[7].LastExecuted() == 0 {
		t.Fatal("partitioned replica never caught up")
	}
	digestsAgree(t, cl)
}

func TestDropRateResilience(t *testing.T) {
	netCfg := sim.UniformProfile(5 * time.Millisecond)
	netCfg.Seed = 32
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: 32, NetCfg: &netCfg,
		Tune: func(c *core.Config) {
			c.ViewChangeTimeout = time.Second
		},
		ClientTimeout: 500 * time.Millisecond,
	})
	cl.Net.SetLinkFault(sim.AnyNode, sim.AnyNode, sim.LinkFault{Drop: 0.02})
	res := cl.RunClosedLoop(20, kvGen, 10*time.Minute)
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40 with 2%% message loss (retries=%d)", res.Completed, res.Retries)
	}
	digestsAgree(t, cl)
}
