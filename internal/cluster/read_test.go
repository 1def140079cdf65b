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

// readTestCluster builds an SBFT KV cluster checkpointing every 4
// sequences with single-request blocks, so the certified frontier tracks
// the write stream closely.
func readTestCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	return newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 1, Seed: seed,
		Tune: func(c *core.Config) {
			c.CheckpointInterval = 4
			c.Batch = 1
		},
	})
}

// runUntil advances the simulation until cond holds or the horizon
// passes.
func runUntil(cl *Cluster, horizon time.Duration, cond func() bool) {
	deadline := cl.Sched.Now() + horizon
	for !cond() && cl.Sched.Now() < deadline {
		if cl.Sched.Run(deadline, 10_000) == 0 {
			break
		}
	}
}

// write submits one put and blocks (in virtual time) until it completes.
func writeKV(t *testing.T, cl *Cluster, key, val string) {
	t.Helper()
	c := cl.Clients[0]
	done := false
	c.SetOnResult(func(core.Result) { done = true })
	if err := c.Submit(kvstore.Put(key, []byte(val))); err != nil {
		t.Fatalf("submit %s: %v", key, err)
	}
	runUntil(cl, 30*time.Second, func() bool { return done })
	if !done {
		t.Fatalf("write %s did not complete", key)
	}
}

// TestCertifiedReadLaggardFailover is the deterministic read-your-writes
// scenario: the client's writes advance the certified frontier past S,
// replica 4 is partitioned away (clients still reach it) so its frontier
// freezes below S, and a certified read AIMED at the laggard must come
// back ReadBehind, fail over, and complete as a verified single-replica
// read of the written value — never a stale one, never the ordered path.
func TestCertifiedReadLaggardFailover(t *testing.T) {
	cl := readTestCluster(t, 7)
	defer cl.Close()
	c := cl.Clients[0]

	// Phase 1: baseline writes every replica certifies (past the first
	// checkpoint at seq 4).
	for i := 0; i < 6; i++ {
		writeKV(t, cl, fmt.Sprintf("pre/k%d", i), fmt.Sprintf("pre-value-%d", i))
	}
	runUntil(cl, 20*time.Second, func() bool {
		return cl.Replicas[4].LastStable() > 0
	})
	laggardFrontier := cl.Replicas[4].LastStable()
	if laggardFrontier == 0 {
		t.Fatal("replica 4 never stabilized a checkpoint")
	}

	// Phase 2: freeze replica 4 (replica-only partition; clients reach
	// every group) and write past its frontier until some connected
	// replica certifies a checkpoint at or above the client's floor.
	for id := 1; id <= cl.N; id++ {
		g := 2
		if id == 4 {
			g = 1
		}
		cl.Net.SetPartition(sim.NodeID(id), g)
	}
	for i := 0; i < 40; i++ {
		writeKV(t, cl, fmt.Sprintf("post/k%d", i), fmt.Sprintf("post-value-%d", i))
		reach := false
		runUntil(cl, 10*time.Second, func() bool {
			reach = cl.Replicas[1].LastStable() >= c.SeqFloor()
			return reach
		})
		if reach {
			break
		}
	}
	floor := c.SeqFloor()
	if cl.Replicas[1].LastStable() < floor {
		t.Fatalf("connected replicas never certified the floor: stable=%d floor=%d",
			cl.Replicas[1].LastStable(), floor)
	}
	if got := cl.Replicas[4].LastStable(); got >= floor {
		t.Fatalf("laggard kept up (stable=%d, floor=%d); partition ineffective", got, floor)
	}

	// Phase 3: read a pre-partition key, aimed straight at the laggard.
	var res *core.ReadResult
	c.SetOnReadResult(func(r core.ReadResult) { res = &r })
	if err := c.SubmitReadAt(kvstore.Get("pre/k0"), 4); err != nil {
		t.Fatalf("SubmitReadAt: %v", err)
	}
	runUntil(cl, 30*time.Second, func() bool { return res != nil })
	if res == nil {
		t.Fatal("read never completed")
	}
	if res.Ordered {
		t.Fatalf("read fell back to the ordering path (failovers=%d)", res.Failovers)
	}
	if res.Failovers < 1 {
		t.Fatalf("read completed without failing over from the laggard (replica=%d)", res.Replica)
	}
	if res.Replica == 4 {
		t.Fatal("stale laggard served the read")
	}
	if !res.Found || !bytes.Equal(res.Val, []byte("pre-value-0")) {
		t.Fatalf("read-your-writes violation: found=%v val=%q", res.Found, res.Val)
	}
	if res.Seq < floor {
		t.Fatalf("verified read at seq %d below the client floor %d", res.Seq, floor)
	}
	m := cl.Metrics()
	if m.ReadsBehind == 0 {
		t.Error("laggard never refused ReadBehind")
	}
	if m.ReadsServed == 0 {
		t.Error("no certified read served")
	}
	if m.ReadBatches == 0 {
		t.Error("read batch counter never advanced")
	}
	if c.ReadsCompleted != 1 {
		t.Errorf("client completed %d certified reads, want 1", c.ReadsCompleted)
	}
	if m.Executions == 0 {
		t.Error("no executions counted despite committed writes")
	}
	// Checkpoints capture incrementally (SnapshotChunks returns clean
	// buckets as the same slices), so written buckets must register dirty.
	if cl.Replicas[1].Metrics.CheckpointDirtyChunks == 0 {
		t.Error("incremental checkpoint captures counted no dirty chunks")
	}
}

// TestCertifiedReadBeforeFirstCheckpoint pins the bootstrap path: with no
// π-certified snapshot anywhere, every replica refuses ReadUnavailable
// and the client must complete the read through the ordering path.
func TestCertifiedReadBeforeFirstCheckpoint(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 1, Seed: 11,
		Tune: func(c *core.Config) {
			c.CheckpointInterval = 1 << 20 // never checkpoint
			c.Batch = 1
		},
	})
	defer cl.Close()
	c := cl.Clients[0]
	writeKV(t, cl, "boot/k0", "boot-value")

	var res *core.ReadResult
	c.SetOnReadResult(func(r core.ReadResult) { res = &r })
	if err := c.SubmitRead(kvstore.Get("boot/k0")); err != nil {
		t.Fatalf("SubmitRead: %v", err)
	}
	runUntil(cl, 60*time.Second, func() bool { return res != nil })
	if res == nil {
		t.Fatal("read never completed")
	}
	if !res.Ordered {
		t.Fatalf("read claims a certified path with no certified snapshot (seq=%d replica=%d)",
			res.Seq, res.Replica)
	}
	if !res.Found || !bytes.Equal(res.Val, []byte("boot-value")) {
		t.Fatalf("ordered fallback read found=%v val=%q", res.Found, res.Val)
	}
	if cl.Metrics().ReadsUnavailable == 0 {
		t.Error("no replica counted a ReadUnavailable refusal")
	}
	if c.ReadFallbacks != 1 {
		t.Errorf("client counted %d ordered fallbacks, want 1", c.ReadFallbacks)
	}
}
