package cluster

import (
	"testing"
	"time"

	"sbft/internal/core"
)

// silentPrimaryOpts is an f=1 cluster whose view-0 primary, replica 1,
// goes silent at time 0: its engine stays honest and receives
// everything, but every send it makes is suppressed.
func silentPrimaryOpts(seed int64) Options {
	return Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: seed,
		Tune: func(c *core.Config) {
			c.ViewChangeTimeout = 400 * time.Millisecond
			c.FastPathTimeout = 100 * time.Millisecond
		},
		ClientTimeout: time.Second,
	}
}

func TestSilentPrimaryRecovers(t *testing.T) {
	cl := newKV(t, silentPrimaryOpts(21))
	cl.Apply(Schedule{{At: 0, Kind: FaultByzSilent, Node: 1}})
	res := cl.RunClosedLoop(10, kvGen, 5*time.Minute)
	if res.Completed != 20 {
		t.Fatalf("completed %d of 20 under silent primary", res.Completed)
	}
	m := cl.Metrics()
	if m.ViewChanges == 0 {
		t.Error("no view change despite silent primary")
	}
	digestsAgree(t, cl)
}

func TestBackToBackFaultyPrimaries(t *testing.T) {
	// Primary of view 0 (replica 1) silent AND primary of view 1
	// (replica 2) crashed: two faults, so run with f=2 (n=7). The
	// exponential back-off must escalate through two view changes (§VII).
	opts := silentPrimaryOpts(22)
	opts.F = 2
	cl := newKV(t, opts)
	cl.Apply(Schedule{
		{At: 0, Kind: FaultByzSilent, Node: 1},
		{At: 0, Kind: FaultCrash, Node: 2},
	})
	res := cl.RunClosedLoop(10, kvGen, 10*time.Minute)
	if res.Completed != 20 {
		t.Fatalf("completed %d of 20 with two faulty primaries", res.Completed)
	}
	// Survivors must be past view 1.
	for id := 3; id <= cl.N; id++ {
		if v := cl.Replicas[id].View(); v < 2 {
			t.Errorf("replica %d in view %d, want ≥ 2", id, v)
		}
	}
	digestsAgree(t, cl)
}

// ---------------------------------------------------------------------------
// Scheduled (corrupter-based) Byzantine faults: the engine object stays
// honest, the node's outbound wire traffic lies.

func TestScheduledEquivocatingPrimaryWindow(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: 24,
		Tune: func(c *core.Config) {
			c.ViewChangeTimeout = 500 * time.Millisecond
			c.FastPathTimeout = 100 * time.Millisecond
		},
		ClientTimeout: time.Second,
	})
	cl.Apply(Schedule{
		{At: 0, Kind: FaultByzEquivocate, Node: 1},
		{At: 4 * time.Second, Kind: FaultByzRestore, Node: 1},
	})
	res := cl.RunClosedLoop(10, kvGen, 5*time.Minute)
	if res.Completed != 20 {
		t.Fatalf("completed %d of 20 under scheduled equivocating primary", res.Completed)
	}
	if !cl.IsByzantine(1) {
		t.Error("equivocating replica not marked Byzantine")
	}
	if cl.Net.MsgsCorrupted == 0 {
		t.Error("corrupter never intercepted a send")
	}
	m := cl.Metrics()
	if m.ViewChanges == 0 {
		t.Error("no view change despite equivocating primary")
	}
	// The corrupter never touched the engine's state, so even the marked
	// replica must agree with the honest ones at equal frontiers.
	digestsAgree(t, cl)
}

func TestScheduledSilentReplicaWindow(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: 25,
		Tune: func(c *core.Config) {
			c.ViewChangeTimeout = 500 * time.Millisecond
			c.FastPathTimeout = 100 * time.Millisecond
		},
		ClientTimeout: time.Second,
	})
	cl.Apply(Schedule{
		{At: 0, Kind: FaultByzSilent, Node: 3},
		{At: 3 * time.Second, Kind: FaultByzRestore, Node: 3},
	})
	res := cl.RunClosedLoop(10, kvGen, 5*time.Minute)
	if res.Completed != 20 {
		t.Fatalf("completed %d of 20 with a silent-but-alive replica", res.Completed)
	}
	digestsAgree(t, cl)
}

func TestScheduledConflictingCheckpointsTolerated(t *testing.T) {
	// Small checkpoint interval so the window actually crosses checkpoint
	// sequences; the Byzantine digests are correctly signed, so only the
	// per-digest f+1 quorum keeps them inert.
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: 26,
		Tune: func(c *core.Config) {
			c.Win = 16
			c.Batch = 1
			c.CheckpointInterval = 4
			c.ViewChangeTimeout = time.Second
		},
		ClientTimeout: time.Second,
	})
	cl.Apply(Schedule{{At: 0, Kind: FaultByzConflictCkpt, Node: 2}})
	res := cl.RunClosedLoop(20, kvGen, 5*time.Minute)
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40 under conflicting checkpoint digests", res.Completed)
	}
	cl.Run(30 * time.Second)
	// Honest replicas must still stabilize checkpoints.
	for id := 1; id <= cl.N; id++ {
		if id == 2 {
			continue
		}
		if ls := cl.Replicas[id].LastStable(); ls == 0 {
			t.Errorf("replica %d never stabilized a checkpoint", id)
		}
	}
	digestsAgree(t, cl)
}

func TestScheduledStaleViewSpamTolerated(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: 27,
		Tune: func(c *core.Config) {
			c.ViewChangeTimeout = time.Second
		},
		ClientTimeout: time.Second,
	})
	cl.Apply(Schedule{{At: 0, Kind: FaultByzStaleView, Node: 4}})
	res := cl.RunClosedLoop(10, kvGen, 5*time.Minute)
	if res.Completed != 20 {
		t.Fatalf("completed %d of 20 under stale view-change spam", res.Completed)
	}
	digestsAgree(t, cl)
}

func TestScheduledByzantinePBFTVariants(t *testing.T) {
	// The corrupters must speak the baseline's wire types too.
	cl := newKV(t, Options{
		Protocol: ProtoPBFT, F: 1,
		Clients: 2, Seed: 28,
		ClientTimeout: time.Second,
	})
	cl.Apply(Schedule{
		{At: 0, Kind: FaultByzEquivocate, Node: 1},
		{At: 4 * time.Second, Kind: FaultByzRestore, Node: 1},
		{At: 5 * time.Second, Kind: FaultByzStaleView, Node: 3},
	})
	res := cl.RunClosedLoop(10, kvGen, 5*time.Minute)
	if res.Completed != 20 {
		t.Fatalf("completed %d of 20 under PBFT Byzantine schedule", res.Completed)
	}
	digestsAgree(t, cl)
}

func TestViewChangeUnderLoadPreservesCommits(t *testing.T) {
	// Crash the primary mid-stream with a large in-flight window; blocks
	// committed before the crash must survive into the new view with the
	// same digests (dual-mode view change correctness under load).
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 2, C: 1, // n = 9
		Clients: 8, Seed: 23,
		Tune: func(c *core.Config) {
			c.ViewChangeTimeout = 500 * time.Millisecond
			c.Batch = 4
		},
		ClientTimeout: time.Second,
	})
	cl.Sched.Schedule(1500*time.Millisecond, func() {
		cl.Net.Crash(1)
	})
	res := cl.RunClosedLoop(25, kvGen, 10*time.Minute)
	if res.Completed != 200 {
		t.Fatalf("completed %d of 200 across a mid-load view change (retries=%d)", res.Completed, res.Retries)
	}
	digestsAgree(t, cl)
}
