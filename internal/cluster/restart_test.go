package cluster

import (
	"bytes"
	"testing"
	"time"

	"sbft/internal/core"
	"sbft/internal/pbft"
)

func TestRestartReplicaFromStorage(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: 40, Persist: true,
		Tune: func(c *core.Config) {
			c.Win = 16
			c.Batch = 1
			c.CheckpointInterval = 8
		},
	})
	defer cl.Close()

	res := cl.RunClosedLoop(10, kvGen, 2*time.Minute)
	if res.Completed != 20 {
		t.Fatalf("completed %d of 20", res.Completed)
	}
	preFrontier := cl.Replicas[4].LastExecuted()
	preDigest := cl.Apps[4].Digest()
	if preFrontier == 0 {
		t.Fatal("replica 4 executed nothing before the restart")
	}

	// Crash replica 4, then rebuild it from its durable log.
	cl.Net.Crash(4)
	oldRep := cl.Replicas[4]
	if err := cl.RestartReplica(4); err != nil {
		t.Fatalf("RestartReplica: %v", err)
	}
	if cl.Replicas[4] == oldRep {
		t.Fatal("restart did not build a fresh replica")
	}
	// The replay must land exactly on the pre-crash durable state.
	if got := cl.Replicas[4].LastExecuted(); got != preFrontier {
		t.Fatalf("recovered frontier %d, want %d", got, preFrontier)
	}
	if !bytes.Equal(cl.Apps[4].Digest(), preDigest) {
		t.Fatal("recovered app digest differs from pre-crash digest")
	}

	// The restarted replica keeps participating in new commits.
	more := cl.RunClosedLoop(10, kvGen, 2*time.Minute)
	if more.Completed != 20 {
		t.Fatalf("completed %d of 20 after restart", more.Completed)
	}
	cl.Run(30 * time.Second)
	if got := cl.Replicas[4].LastExecuted(); got <= preFrontier {
		t.Fatalf("restarted replica stuck at %d (pre-crash %d)", got, preFrontier)
	}
	if len(cl.FaultErrors) != 0 {
		t.Fatalf("fault errors: %v", cl.FaultErrors)
	}
	digestsAgree(t, cl)
}

func TestScheduleAppliesFaults(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: 41, Persist: true,
		Tune: func(c *core.Config) {
			c.Batch = 1
			c.ViewChangeTimeout = time.Second
		},
		ClientTimeout: time.Second,
	})
	defer cl.Close()

	// Crash replica 3 at 200ms, restart it from storage at 900ms.
	cl.Apply(Schedule{
		{At: 200 * time.Millisecond, Kind: FaultCrash, Node: 3},
		{At: 900 * time.Millisecond, Kind: FaultRestart, Node: 3},
	})
	res := cl.RunClosedLoop(15, kvGen, 5*time.Minute)
	if res.Completed != 30 {
		t.Fatalf("completed %d of 30 across the crash/restart window", res.Completed)
	}
	cl.Run(30 * time.Second)
	if len(cl.FaultErrors) != 0 {
		t.Fatalf("fault errors: %v", cl.FaultErrors)
	}
	if cl.Replicas[3].LastExecuted() == 0 {
		t.Fatal("restarted replica never executed")
	}
	digestsAgree(t, cl)
}

func TestRestartRequiresPersistence(t *testing.T) {
	cl := newKV(t, Options{Protocol: ProtoSBFT, F: 1, C: 0, Clients: 1, Seed: 42})
	if err := cl.RestartReplica(2); err == nil {
		t.Fatal("restart without Persist accepted")
	}
}

func TestPBFTRestartReplicaFromStorage(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoPBFT, F: 1,
		Clients: 2, Seed: 43, Persist: true,
		TunePBFT: func(c *pbft.Config) {
			c.Batch = 1
		},
		ClientTimeout: time.Second,
	})
	defer cl.Close()

	res := cl.RunClosedLoop(10, kvGen, 2*time.Minute)
	if res.Completed != 20 {
		t.Fatalf("completed %d of 20", res.Completed)
	}
	preFrontier := cl.PBFTReplicas[4].LastExecuted()
	preDigest := cl.Apps[4].Digest()
	if preFrontier == 0 {
		t.Fatal("replica 4 executed nothing before the restart")
	}

	// Crash replica 4, let the cluster move on without it, then rebuild it
	// from its durable log.
	cl.Net.Crash(4)
	mid := cl.RunClosedLoop(5, kvGen, 2*time.Minute)
	if mid.Completed != 10 {
		t.Fatalf("completed %d of 10 while replica 4 was down", mid.Completed)
	}
	oldRep := cl.PBFTReplicas[4]
	if err := cl.RestartReplica(4); err != nil {
		t.Fatalf("RestartReplica: %v", err)
	}
	if cl.PBFTReplicas[4] == oldRep {
		t.Fatal("restart did not build a fresh replica")
	}
	// The replay must land exactly on the pre-crash durable state.
	if got := cl.PBFTReplicas[4].LastExecuted(); got != preFrontier {
		t.Fatalf("recovered frontier %d, want %d", got, preFrontier)
	}
	if !bytes.Equal(cl.Apps[4].Digest(), preDigest) {
		t.Fatal("recovered app digest differs from pre-crash digest")
	}

	// The restarted replica catches up on the blocks it missed (f+1
	// matching retransmissions) and keeps participating.
	more := cl.RunClosedLoop(10, kvGen, 2*time.Minute)
	if more.Completed != 20 {
		t.Fatalf("completed %d of 20 after restart", more.Completed)
	}
	cl.Run(30 * time.Second)
	if got, want := cl.PBFTReplicas[4].LastExecuted(), cl.PBFTReplicas[1].LastExecuted(); got < want {
		t.Fatalf("restarted replica stuck at %d, cluster at %d", got, want)
	}
	if len(cl.FaultErrors) != 0 {
		t.Fatalf("fault errors: %v", cl.FaultErrors)
	}
	digestsAgree(t, cl)
}

func TestPBFTScheduledRestart(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoPBFT, F: 1,
		Clients: 2, Seed: 44, Persist: true,
		TunePBFT: func(c *pbft.Config) {
			c.Batch = 1
			c.ViewChangeTimeout = time.Second
		},
		ClientTimeout: time.Second,
	})
	defer cl.Close()

	cl.Apply(Schedule{
		{At: 200 * time.Millisecond, Kind: FaultCrash, Node: 3},
		{At: 900 * time.Millisecond, Kind: FaultRestart, Node: 3},
	})
	res := cl.RunClosedLoop(15, kvGen, 5*time.Minute)
	if res.Completed != 30 {
		t.Fatalf("completed %d of 30 across the crash/restart window", res.Completed)
	}
	cl.Run(30 * time.Second)
	if len(cl.FaultErrors) != 0 {
		t.Fatalf("fault errors: %v", cl.FaultErrors)
	}
	if cl.PBFTReplicas[3].LastExecuted() == 0 {
		t.Fatal("restarted replica never executed")
	}
	digestsAgree(t, cl)
}

// TestRestartBuildsWhatNewBuilt: New and RestartReplica assemble a replica
// through the one startReplica, so a deployment whose every replica is
// restarted at time zero — over an empty store, nothing to replay — is the
// deployment New built. It runs the same workload to the same event count
// at the same virtual instant; a restart that dropped the async snapshot
// sink (one timer per checkpoint) or the modeled crypto pool (one per
// combine) would not. The rebuilt replicas' combines complete, or nothing
// would commit, and their durable snapshot sequence advances.
func TestRestartBuildsWhatNewBuilt(t *testing.T) {
	run := func(restart bool) (WorkloadResult, *Cluster) {
		cl := newKV(t, Options{
			Protocol: ProtoSBFT, F: 1, C: 0,
			Clients: 2, Seed: 41, Persist: true, CryptoPool: 1,
			Tune: func(c *core.Config) {
				c.Win = 8
				c.Batch = 1
				c.CheckpointInterval = 4
			},
		})
		t.Cleanup(func() { cl.Close() })
		if restart {
			for id := 1; id <= cl.N; id++ {
				if err := cl.RestartReplica(id); err != nil {
					t.Fatalf("RestartReplica(%d): %v", id, err)
				}
			}
		}
		res := cl.RunClosedLoop(15, kvGen, 2*time.Minute)
		cl.Run(time.Second) // the last checkpoint's persist lands
		return res, cl
	}
	built, _ := run(false)
	rebuilt, cl := run(true)
	if rebuilt.Completed != 30 {
		t.Fatalf("completed %d of 30 on rebuilt replicas", rebuilt.Completed)
	}
	if rebuilt.Duration != built.Duration || rebuilt.Events != built.Events || rebuilt.MsgsSent != built.MsgsSent {
		t.Errorf("rebuilt replicas ran %v, %d events, %d messages; New's ran %v, %d events, %d messages",
			rebuilt.Duration, rebuilt.Events, rebuilt.MsgsSent, built.Duration, built.Events, built.MsgsSent)
	}
	for id := 1; id <= cl.N; id++ {
		if r := cl.Replicas[id]; r.DurableSnapshotSeq() == 0 || r.DurableSnapshotSeq() != r.SnapshotSeq() {
			t.Errorf("rebuilt replica %d: durable snapshot %d, served %d", id, r.DurableSnapshotSeq(), r.SnapshotSeq())
		}
	}
}
