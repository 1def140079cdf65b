package transport

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/cryptopool"
	"sbft/internal/kvstore"
	"sbft/internal/storage"
)

// tcpDeployment is the cmd/sbft-node wiring path in-process: four
// Shell-hosted replicas with durable block stores and real crypto worker
// pools, all over real loopback TCP.
type tcpDeployment struct {
	cfg      core.Config
	suite    core.CryptoSuite
	keys     []core.ReplicaKeys
	dataDir  string
	peers    map[int]string
	shells   []*Shell
	replicas []*core.Replica
	kvApps   []*apps.KVApp
	ledgers  []*storage.Ledger
}

func bootTCPDeployment(t *testing.T) *tcpDeployment {
	t.Helper()
	cfg := core.DefaultConfig(1, 0)
	cfg.BatchTimeout = 5 * time.Millisecond
	n := cfg.N()
	suite, keys, err := core.InsecureSuite(cfg, "tcp-integration")
	if err != nil {
		t.Fatal(err)
	}
	d := &tcpDeployment{
		cfg: cfg, suite: suite, keys: keys, dataDir: t.TempDir(), peers: make(map[int]string),
		shells: make([]*Shell, n+1), replicas: make([]*core.Replica, n+1),
		kvApps: make([]*apps.KVApp, n+1), ledgers: make([]*storage.Ledger, n+1),
	}
	for id := 1; id <= n; id++ {
		d.listen(t, id, "127.0.0.1:0")
		d.peers[id] = d.shells[id].Addr()
	}
	for id := 1; id <= n; id++ {
		d.startReplica(t, id)
	}
	return d
}

// listen opens replica id's shell on addr.
func (d *tcpDeployment) listen(t *testing.T, id int, addr string) {
	t.Helper()
	sh, err := NewShell(id, addr, d.peers)
	if err != nil {
		t.Fatal(err)
	}
	d.shells[id] = sh
	t.Cleanup(func() { sh.Close() })
}

// startReplica is the sbft-node main wiring, on a first start and on a
// restart alike: KV app + storage.Ledger block store under the replica's
// directory, handed to core.NewReplica, which replays whatever the store
// holds. It returns before the shell delivers anything.
func (d *tcpDeployment) startReplica(t *testing.T, id int) {
	t.Helper()
	led, err := storage.Open(filepath.Join(d.dataDir, fmt.Sprintf("r%d", id)), storage.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	d.ledgers[id] = led
	t.Cleanup(func() { led.Close() })
	d.kvApps[id] = apps.NewKVApp()
	rep, err := core.NewReplica(id, d.cfg, d.suite, d.keys[id-1], d.kvApps[id], d.shells[id], led)
	if err != nil {
		t.Fatal(err)
	}
	// The sbft-node -crypto-workers path: real worker goroutines
	// verifying shares off the shell's event loop, completions routed
	// back through Shell.Do.
	pool := cryptopool.New(d.suite, 2, d.shells[id].Do)
	t.Cleanup(pool.Close)
	rep.SetCryptoSink(pool)
	d.replicas[id] = rep
}

// runClient is one sbft-client process: a fresh shell and a fresh
// core.Client with the given id that submits ops one after the other and
// returns their results, then goes away.
func (d *tcpDeployment) runClient(t *testing.T, id int, ops [][]byte) []core.Result {
	t.Helper()
	sh, err := NewShell(id, "127.0.0.1:0", d.peers)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	client, err := core.NewClient(id, d.cfg, d.suite, sh, apps.VerifyKV)
	if err != nil {
		t.Fatal(err)
	}
	client.RequestTimeout = 2 * time.Second
	var mu sync.Mutex
	var results []core.Result
	done := make(chan struct{})
	client.SetOnResult(func(res core.Result) {
		mu.Lock()
		results = append(results, res)
		k := len(results)
		mu.Unlock()
		if k < len(ops) {
			if err := client.Submit(ops[k]); err != nil {
				t.Errorf("Submit: %v", err)
			}
		} else {
			close(done)
		}
	})
	sh.Start(client)
	sh.AnnounceAll()
	sh.Do(func() {
		if err := client.Submit(ops[0]); err != nil {
			t.Errorf("Submit: %v", err)
		}
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("timed out: %d of %d operations completed over TCP", len(results), len(ops))
	}
	mu.Lock()
	defer mu.Unlock()
	return results
}

// waitExecuted blocks until replica id has executed seq.
func (d *tcpDeployment) waitExecuted(t *testing.T, id int, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var le uint64
		d.shells[id].Do(func() { le = d.replicas[id].LastExecuted() })
		if le >= seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d stuck at %d < %d", id, le, seq)
		}
		time.Sleep(10 * time.Millisecond)
	}
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

// TestTCPClusterEndToEndConvergence commits a batch of KV operations
// end-to-end over the deployment and asserts every replica converges to
// the same execution frontier, state digest, and durable log.
func TestTCPClusterEndToEndConvergence(t *testing.T) {
	d := bootTCPDeployment(t)
	n := d.cfg.N()
	shells, replicas, kvApps, ledgers := d.shells, d.replicas, d.kvApps, d.ledgers
	for id := 1; id <= n; id++ {
		shells[id].Start(replicas[id])
	}

	// Drive a batch of KV puts, then reads verifying them.
	const ops = 12
	batch := puts("key", ops/2)
	for i := 0; i < ops/2; i++ {
		batch = append(batch, kvstore.Get(fmt.Sprintf("key%d", i)))
	}
	results := d.runClient(t, core.ClientBase, batch)

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
		id := id
		shells[id].Do(func() {
			states[id] = state{le: replicas[id].LastExecuted(), digest: kvApps[id].Digest()}
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
// reaches it — and then keeps appending to that log. (A node that came
// up at genesis over a non-empty ledger could append nothing, every
// block being out of order, and escalated views alone.)
func TestTCPReplicaResumesFromItsLedger(t *testing.T) {
	d := bootTCPDeployment(t)
	for id := 1; id <= d.cfg.N(); id++ {
		d.shells[id].Start(d.replicas[id])
	}
	const victim = 3 // a backup in view 0
	done := lastSeq(d.runClient(t, core.ClientBase, puts("before", 8)))
	d.waitExecuted(t, victim, done)

	var executed, view uint64
	d.shells[victim].Do(func() { executed, view = d.replicas[victim].LastExecuted(), d.replicas[victim].View() })
	d.shells[victim].Close()
	if err := d.ledgers[victim].Close(); err != nil {
		t.Fatal(err)
	}

	d.listen(t, victim, d.peers[victim])
	d.startReplica(t, victim)
	rep, led := d.replicas[victim], d.ledgers[victim]
	if rep.LastExecuted() != executed || rep.View() != view {
		t.Fatalf("rebuilt over a ledger of %d blocks: executed=%d view=%d, want executed=%d view=%d",
			led.NextSeq()-1, rep.LastExecuted(), rep.View(), executed, view)
	}
	d.shells[victim].Start(rep)

	done = lastSeq(d.runClient(t, core.ClientBase+1, puts("after", 8)))
	d.waitExecuted(t, victim, done)
	if next := led.NextSeq(); next <= done {
		t.Fatalf("the rebuilt replica's ledger ends at block %d; it executed %d blocks before the restart and is at %d now",
			next-1, executed, done)
	}
	var after uint64
	d.shells[victim].Do(func() { after = rep.View() })
	if after != view {
		t.Fatalf("the rebuilt replica moved from view %d to %d with nothing failing", view, after)
	}
}

// TestTCPClientRerunCompletes is sbft-client run twice against one
// deployment: both processes are client ClientBase, and the second
// one's requests must outrank the first one's entries in the replicas'
// last-reply tables. With timestamps counted from 1 in every process
// they were discarded as duplicates and the second run never finished.
func TestTCPClientRerunCompletes(t *testing.T) {
	d := bootTCPDeployment(t)
	for id := 1; id <= d.cfg.N(); id++ {
		d.shells[id].Start(d.replicas[id])
	}
	first := d.runClient(t, core.ClientBase, puts("first", 5))
	second := d.runClient(t, core.ClientBase, puts("second", 5))
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
	d := bootTCPDeployment(t)
	for id := 1; id <= d.cfg.N(); id++ {
		d.shells[id].Start(d.replicas[id])
	}
	d.runClient(t, core.ClientBase, puts("first", 3))
	start := time.Now()
	d.runClient(t, core.ClientBase, puts("second", 1))
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the re-run's first operation took %v: its acknowledgement went to the dead process's socket and a retry fetched it", took)
	}
}
