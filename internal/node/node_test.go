package node

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/transport"
)

func TestLoadPeers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers.txt")
	if err := os.WriteFile(path, []byte("# replicas\n1 127.0.0.1:7001\n\n  2\t127.0.0.1:7002  \n"), 0o600); err != nil {
		t.Fatal(err)
	}
	peers, err := LoadPeers(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[1] != "127.0.0.1:7001" || peers[2] != "127.0.0.1:7002" {
		t.Fatalf("peers = %v", peers)
	}
	for _, bad := range []string{
		"1 a:1 extra\n2 b:2\n",   // three fields
		"one a:1\n2 b:2\n",       // id not a number
		"1 a:1\n2 b:2\n1 c:3\n",  // repeated id
		"0 a:1\n1 b:2\n2 c:3\n",  // non-positive id
		"-1 a:1\n1 b:2\n2 c:3\n", // non-positive id
		"1 a:1\n",                // replica 2 missing
		"1 a:1\n2 b:2\n3 c:3\n",  // replica 3 beyond n
	} {
		if err := os.WriteFile(path, []byte(bad), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPeers(path, 2); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// durable is a four-replica loopback deployment as `sbft-node -data` runs
// it, checkpointing every interval blocks, and one client.
type durable struct {
	cfg      core.Config
	suite    core.CryptoSuite
	keys     []core.ReplicaKeys
	dataDir  string
	peers    map[int]string
	replicas []*Replica
	client   *Client
}

func startDurable(t *testing.T, interval uint64) *durable {
	t.Helper()
	cfg := core.DefaultConfig(1, 0)
	cfg.BatchTimeout = 5 * time.Millisecond
	cfg.CheckpointInterval = interval
	suite, keys, err := core.InsecureSuite(cfg, "node-test")
	if err != nil {
		t.Fatal(err)
	}
	d := &durable{cfg: cfg, suite: suite, keys: keys, dataDir: t.TempDir()}
	d.peers, d.replicas, err = StartLoopback(cfg, suite, keys, func(int) core.Application { return apps.NewKVApp() }, d.dataDir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, rep := range d.replicas[1:] {
			rep.Close()
		}
	})
	d.client, err = StartClient(core.ClientBase, d.listen(t, core.ClientBase, "127.0.0.1:0"), cfg, suite, apps.VerifyKV, kvstore.ReadKey, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.client.Close() })
	return d
}

func (d *durable) listen(t *testing.T, id int, addr string) *transport.Shell {
	t.Helper()
	sh, err := transport.NewShell(id, addr, d.peers)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// waitFor polls cond under replica id's node lock until it holds.
func (d *durable) waitFor(t *testing.T, id int, what string, cond func(*core.Replica) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := false
		d.replicas[id].Do(func(r *core.Replica) { ok = cond(r) })
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d: %s never held", id, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func puts(prefix string, n int) [][]byte {
	ops := make([][]byte, n)
	for i := range ops {
		ops[i] = kvstore.Put(fmt.Sprintf("%s/%d", prefix, i), []byte("v"))
	}
	return ops
}

// TestSnapshotWorkerPersistsOffLoop is the async persistence path of every
// durable deployment, end to end: certified snapshots reach the disk through
// the worker goroutine and arm the durable serving point from its
// completion, and a replica restarted over its directory comes up at its
// block log's end, serving that snapshot, before its shell has started.
func TestSnapshotWorkerPersistsOffLoop(t *testing.T) {
	d := startDurable(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results, err := d.client.Run(ctx, puts("k", 12))
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for _, res := range results {
		last = max(last, res.Seq)
	}
	for id := 1; id <= d.cfg.N(); id++ {
		d.waitFor(t, id, "a durable snapshot", func(r *core.Replica) bool { return r.DurableSnapshotSeq() > 0 })
		d.waitFor(t, id, "the client's last block executed", func(r *core.Replica) bool { return r.LastExecuted() >= last })
	}

	const victim = 3
	var executed uint64
	d.replicas[victim].Do(func(r *core.Replica) { executed = r.LastExecuted() })
	if err := d.replicas[victim].Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := assemble(victim, d.listen(t, victim, d.peers[victim]), d.cfg, d.suite, d.keys[victim-1], apps.NewKVApp(),
		filepath.Join(d.dataDir, fmt.Sprintf("r%d", victim)), 2)
	if err != nil {
		t.Fatal(err)
	}
	d.replicas[victim] = rep
	// The shell has not started: no message has been delivered, and
	// nothing else runs on the replica.
	if got := rep.core.LastExecuted(); got != executed {
		t.Errorf("restarted at block %d, closed at %d", got, executed)
	}
	if rep.core.SnapshotSeq() == 0 {
		t.Error("restarted serving no snapshot: the worker's writes are not on disk")
	}
}

// TestCloseDuringPersist is the shutdown window: the snapshot worker and
// the pool are closed while the shell still delivers commits.
// Checkpoints adopted in that window are refused, not sent on a closed
// channel, and a replica closed under load takes every goroutine with it.
func TestCloseDuringPersist(t *testing.T) {
	before := runtime.NumGoroutine()
	d := startDurable(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	load := make(chan struct{})
	go func() {
		defer close(load)
		d.client.Run(ctx, puts("k", 100_000)) // until cancelled
	}()

	const victim = 2
	d.waitFor(t, victim, "a durable snapshot", func(r *core.Replica) bool { return r.DurableSnapshotSeq() > 0 })
	// The first half of Close, held open: commits keep arriving.
	d.replicas[victim].pool.Close()
	d.replicas[victim].snaps.Close()
	var stable uint64
	d.replicas[victim].Do(func(r *core.Replica) { stable = r.LastStable() })
	d.waitFor(t, victim, "checkpoints past the closed worker", func(r *core.Replica) bool {
		return r.LastStable() >= stable+3*d.cfg.CheckpointInterval
	})
	var durable, skipped uint64
	d.replicas[victim].Do(func(r *core.Replica) { durable, skipped = r.DurableSnapshotSeq(), r.Metrics.StoreErrors })
	if durable > stable+d.cfg.CheckpointInterval {
		t.Errorf("durable snapshot at %d with the worker closed since %d", durable, stable)
	}
	if skipped == 0 {
		t.Error("no skipped snapshot counted in StoreErrors")
	}
	// Everything goes down with operations in flight.
	for _, rep := range d.replicas[1:] {
		if err := rep.Close(); err != nil {
			t.Error(err)
		}
	}
	cancel()
	<-load
	d.client.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
