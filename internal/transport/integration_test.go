package transport_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/node"
	"sbft/internal/storage"
	"sbft/internal/transport"
)

// deployment is node.StartLoopback under test: four replicas assembled the
// way cmd/sbft-node assembles one, over real loopback TCP, and clients
// started the way cmd/sbft-client starts one.
type deployment struct {
	cfg      core.Config
	suite    core.CryptoSuite
	keys     []core.ReplicaKeys
	dataDir  string
	workers  int
	peers    map[int]string
	replicas []*node.Replica
	kvApps   []*apps.KVApp
}

// boot starts the deployment. With durable set every replica runs as
// `sbft-node -data -crypto-workers 2` does — a block store under its own
// directory, the snapshot worker, real pool goroutines verifying shares
// outside the node lock; without, as a bare `sbft-node -crypto-workers 0`.
func boot(t *testing.T, durable bool) *deployment {
	t.Helper()
	cfg := core.DefaultConfig(1, 0)
	cfg.BatchTimeout = 5 * time.Millisecond
	suite, keys, err := core.InsecureSuite(cfg, "tcp-integration")
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{cfg: cfg, suite: suite, keys: keys, kvApps: make([]*apps.KVApp, cfg.N()+1)}
	if durable {
		d.dataDir, d.workers = t.TempDir(), 2
	}
	d.peers, d.replicas, err = node.StartLoopback(cfg, suite, keys, d.newApp, d.dataDir, d.workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, rep := range d.replicas[1:] {
			rep.Close()
		}
	})
	return d
}

func (d *deployment) newApp(id int) core.Application {
	d.kvApps[id] = apps.NewKVApp()
	return d.kvApps[id]
}

// dir is replica id's data directory (node.StartLoopback's layout).
func (d *deployment) dir(id int) string { return filepath.Join(d.dataDir, fmt.Sprintf("r%d", id)) }

// restart replaces the closed replica id with one started over the same
// directory, on shell: a new process of that node.
func (d *deployment) restart(t *testing.T, id int, shell *transport.Shell) *node.Replica {
	t.Helper()
	dir := ""
	if d.dataDir != "" {
		dir = d.dir(id)
	}
	rep, err := node.StartReplica(id, shell, d.cfg, d.suite, d.keys[id-1], d.newApp(id), dir, d.workers)
	if err != nil {
		t.Fatal(err)
	}
	d.replicas[id] = rep
	return rep
}

func listen(t *testing.T, id int, addr string, peers map[int]string) *transport.Shell {
	t.Helper()
	sh, err := transport.NewShell(id, addr, peers)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// runClient is one sbft-client process: a fresh shell and a fresh client
// with the given id that submits ops one after the other and returns
// their results, then goes away.
func (d *deployment) runClient(t *testing.T, id int, ops [][]byte, timeout time.Duration) []core.Result {
	t.Helper()
	client, err := node.StartClient(id, listen(t, id, "127.0.0.1:0", d.peers), d.cfg, d.suite, apps.VerifyKV, kvstore.ReadKey, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	results, err := client.Run(ctx, ops)
	if err != nil {
		t.Fatalf("over TCP: %v", err)
	}
	return results
}

// waitExecuted blocks until replica id has executed seq.
func (d *deployment) waitExecuted(t *testing.T, id int, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var le uint64
		d.replicas[id].Do(func(r *core.Replica) { le = r.LastExecuted() })
		if le >= seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d stuck at %d < %d", id, le, seq)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// openLedger reads replica id's block store back once the replica that
// wrote it is closed.
func (d *deployment) openLedger(t *testing.T, id int) *storage.Ledger {
	t.Helper()
	led, err := storage.Open(d.dir(id), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	return led
}

func puts(prefix string, n int) [][]byte {
	ops := make([][]byte, n)
	for i := range ops {
		ops[i] = kvstore.Put(fmt.Sprintf("%s%d", prefix, i), []byte(fmt.Sprintf("val%d", i)))
	}
	return ops
}

func lastSeq(results []core.Result) (seq uint64) {
	for _, res := range results {
		seq = max(seq, res.Seq)
	}
	return seq
}

func TestTCPClusterCommitsOperations(t *testing.T) {
	d := boot(t, false)
	const ops = 5
	results := d.runClient(t, core.ClientBase, puts("k", ops), 30*time.Second)
	if len(results) != ops {
		t.Fatalf("completed %d of %d", len(results), ops)
	}
	for _, res := range results {
		if string(res.Val) != "OK" {
			t.Fatalf("unexpected result %q", res.Val)
		}
	}
}

// TestTCPClusterEndToEndConvergence commits a batch of KV operations
// end-to-end over the deployment and asserts every replica converges to
// the same execution frontier, state digest, and durable log.
func TestTCPClusterEndToEndConvergence(t *testing.T) {
	d := boot(t, true)
	n := d.cfg.N()

	// Drive a batch of KV puts, then reads verifying them.
	const ops = 12
	batch := puts("key", ops/2)
	for i := 0; i < ops/2; i++ {
		batch = append(batch, kvstore.Get(fmt.Sprintf("key%d", i)))
	}
	results := d.runClient(t, core.ClientBase, batch, 60*time.Second)

	for i, res := range results {
		if i >= ops/2 && !bytes.Equal(res.Val, []byte(fmt.Sprintf("val%d", i-ops/2))) {
			t.Errorf("get %d returned %q", i-ops/2, res.Val)
		}
	}
	// Wait for every replica to reach the client's last committed block
	// (replicas execute asynchronously after the client's quorum ack).
	for id := 1; id <= n; id++ {
		d.waitExecuted(t, id, lastSeq(results))
	}

	// Convergence: identical frontiers ⇒ identical state digests and
	// identical durable logs.
	type state struct {
		le     uint64
		digest []byte
	}
	states := make([]state, n+1)
	for id := 1; id <= n; id++ {
		d.replicas[id].Do(func(r *core.Replica) {
			states[id] = state{le: r.LastExecuted(), digest: d.kvApps[id].Digest()}
		})
	}
	for id := 2; id <= n; id++ {
		if states[id].le == states[1].le && !bytes.Equal(states[id].digest, states[1].digest) {
			t.Fatalf("replica %d digest differs from replica 1 at frontier %d", id, states[id].le)
		}
	}
	// Durable logs must agree block-for-block over the common prefix.
	minLE := states[1].le
	for id := 2; id <= n; id++ {
		if states[id].le < minLE {
			minLE = states[id].le
		}
	}
	if minLE == 0 {
		t.Fatal("no common durable prefix")
	}
	ledgers := make([]*storage.Ledger, n+1)
	for id := 1; id <= n; id++ {
		if err := d.replicas[id].Close(); err != nil {
			t.Fatal(err)
		}
		ledgers[id] = d.openLedger(t, id)
	}
	for seq := uint64(1); seq <= minLE; seq++ {
		first, err := ledgers[1].Get(seq)
		if err != nil {
			t.Fatalf("replica 1 block %d: %v", seq, err)
		}
		for id := 2; id <= n; id++ {
			b, err := ledgers[id].Get(seq)
			if err != nil {
				t.Fatalf("replica %d block %d: %v", id, seq, err)
			}
			if !bytes.Equal(first, b) {
				t.Fatalf("durable logs diverge at block %d (replica 1 vs %d)", seq, id)
			}
		}
	}
}

// TestTCPReplicaResumesFromItsLedger is `sbft-node -data` stopped and
// started again over its directory: the rebuilt replica comes up where
// its block log ends and in the view it left — before a single message
// moves it — and then keeps appending to that log. (A node that came
// up at genesis over a non-empty ledger could append nothing, every
// block being out of order, and escalated views alone.)
func TestTCPReplicaResumesFromItsLedger(t *testing.T) {
	d := boot(t, true)
	const victim = 3 // a backup in view 0
	done := lastSeq(d.runClient(t, core.ClientBase, puts("before", 8), 60*time.Second))
	d.waitExecuted(t, victim, done)

	var executed, view uint64
	d.replicas[victim].Do(func(r *core.Replica) { executed, view = r.LastExecuted(), r.View() })
	if err := d.replicas[victim].Close(); err != nil {
		t.Fatal(err)
	}

	// The deployment is idle and its peers hold no connection to it, so
	// what the first Do reads is what the replay left (internal/node's
	// TestSnapshotWorkerPersistsOffLoop reads it before the shell starts).
	rep := d.restart(t, victim, listen(t, victim, d.peers[victim], d.peers))
	var rebuilt, rebuiltView uint64
	rep.Do(func(r *core.Replica) { rebuilt, rebuiltView = r.LastExecuted(), r.View() })
	if rebuilt != executed || rebuiltView != view {
		t.Fatalf("rebuilt over its ledger: executed=%d view=%d, want executed=%d view=%d", rebuilt, rebuiltView, executed, view)
	}

	done = lastSeq(d.runClient(t, core.ClientBase+1, puts("after", 8), 60*time.Second))
	d.waitExecuted(t, victim, done)
	var after uint64
	rep.Do(func(r *core.Replica) { after = r.View() })
	if after != view {
		t.Fatalf("the rebuilt replica moved from view %d to %d with nothing failing", view, after)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if next := d.openLedger(t, victim).NextSeq(); next <= done {
		t.Fatalf("the rebuilt replica's ledger ends at block %d; it executed %d blocks before the restart and is at %d now",
			next-1, executed, done)
	}
}

// TestTCPClientRerunCompletes is sbft-client run twice against one
// deployment: both processes are client ClientBase, and the second
// one's requests must outrank the first one's entries in the replicas'
// last-reply tables. With timestamps counted from 1 in every process
// they were discarded as duplicates and the second run never finished.
func TestTCPClientRerunCompletes(t *testing.T) {
	d := boot(t, true)
	first := d.runClient(t, core.ClientBase, puts("first", 5), 60*time.Second)
	second := d.runClient(t, core.ClientBase, puts("second", 5), 60*time.Second)
	if lastSeq(second) <= lastSeq(first) {
		t.Fatalf("second run finished at sequence %d, the first at %d: its operations were not ordered", lastSeq(second), lastSeq(first))
	}
	if second[0].Timestamp <= first[len(first)-1].Timestamp {
		t.Fatalf("second run's first timestamp %d does not outrank the first run's last %d", second[0].Timestamp, first[len(first)-1].Timestamp)
	}
}

// TestReannouncedPeerReplacesRoute is the same re-run, timed: the second
// process listens on a new port under the same id, and its hello must
// replace the connection the replicas cached to the first — not only the
// address. While they kept it, the first acknowledgement of the second
// run went to a dead socket and the operation waited out the client's
// retry timeout (2 s here, 4 s for sbft-client).
func TestReannouncedPeerReplacesRoute(t *testing.T) {
	d := boot(t, true)
	d.runClient(t, core.ClientBase, puts("first", 3), 60*time.Second)
	start := time.Now()
	d.runClient(t, core.ClientBase, puts("second", 1), 60*time.Second)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the re-run's first operation took %v: its acknowledgement went to the dead process's socket and a retry fetched it", took)
	}
}
