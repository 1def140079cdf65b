// Package node assembles the live runtime: what turns a core.Replica or a
// core.Client into a process-shaped thing on a transport.Shell, and the
// order in which that thing is taken apart again. cmd/sbft-node,
// cmd/sbft-client, `sbft-chaos -live` and the deployment tests all come
// through here, so the async snapshot path, the crypto pool and the
// shutdown order they run are the ones a deployment runs (DESIGN.md "Live
// runtime"). The simulated counterpart is cluster.startReplica.
package node

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sbft/internal/core"
	"sbft/internal/cryptopool"
	"sbft/internal/storage"
	"sbft/internal/transport"
)

// LoadPeers reads a peers file: one "id host:port" line per replica, blank
// lines and #-comments ignored. The file must list each of replicas 1..n
// exactly once.
func LoadPeers(path string, n int) (map[int]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	peers := make(map[int]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("malformed peers line %q", line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bad id in %q: %w", line, err)
		}
		if id < 1 || id > n {
			return nil, fmt.Errorf("id in %q out of range [1,%d]", line, n)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("replica %d listed twice", id)
		}
		peers[id] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(peers) != n {
		return nil, fmt.Errorf("peers file lists %d of replicas 1..%d", len(peers), n)
	}
	return peers, nil
}

// snapshotQueueDepth bounds the certified snapshots waiting for the disk.
// One is written per checkpoint interval; four behind means the disk has
// fallen whole intervals back and the oldest are about to be pruned anyway.
const snapshotQueueDepth = 4

var errSnapshotSkipped = errors.New("snapshot worker saturated or closed")

// snapshotWorker is the deployment's core.SnapshotSink: certified
// snapshots are encoded and fsynced by one worker goroutine so the
// replica's callbacks never stall on checkpoint persistence (the paper's
// "off the critical path" replica role, applied to the win/2-interval
// store write). It is a second instance of the crypto pool's queue, with
// its own goroutine — an fsync never occupies a crypto worker — and its
// own policy when the queue refuses: skip, because the next checkpoint's
// snapshot supersedes this one. Completions are routed back under the
// shell's node lock through do, per the SnapshotSink contract.
type snapshotWorker struct {
	led   *storage.Ledger
	do    func(func())
	queue *cryptopool.Queue
}

// PersistSnapshot implements core.SnapshotSink. It only enqueues (it is
// called under the node lock). The refusal also covers the shutdown
// window: the worker closes before the shell, which is still delivering
// commits.
func (w *snapshotWorker) PersistSnapshot(cs *core.CertifiedSnapshot, keepFrom uint64, done func(error)) {
	if !w.queue.Submit(func() {
		err := core.PersistCertified(w.led, cs, keepFrom)
		w.do(func() { done(err) })
	}) {
		done(errSnapshotSkipped)
	}
}

// Replica is one SBFT replica hosted on a shell, with what a deployment
// hangs off it: a durable block store and the worker that persists
// certified snapshots to it when there is a data directory, a crypto pool
// when asked for workers.
type Replica struct {
	shell *transport.Shell
	core  *core.Replica
	led   *storage.Ledger   // nil without a data directory
	snaps *cryptopool.Queue // nil without a data directory
	pool  *cryptopool.Pool  // nil with cryptoWorkers == 0
}

// StartReplica assembles replica id on shell and starts it. The one
// assembly order: ledger (under dataDir, fsync per append; "" = no
// persistence) → core.NewReplica, which replays whatever the ledger holds →
// snapshot worker → crypto pool (cryptoWorkers goroutines; 0 = verify
// inline in the delivering callback) → Shell.Start. The replica owns shell
// from here on: Close closes it, and so does a failed StartReplica.
func StartReplica(id int, shell *transport.Shell, cfg core.Config, suite core.CryptoSuite, keys core.ReplicaKeys, app core.Application, dataDir string, cryptoWorkers int) (*Replica, error) {
	r, err := assemble(id, shell, cfg, suite, keys, app, dataDir, cryptoWorkers)
	if err != nil {
		return nil, err
	}
	shell.Start(r.core)
	return r, nil
}

// assemble is StartReplica up to, not including, Shell.Start: the replica
// has recovered its state and hears nothing yet.
func assemble(id int, shell *transport.Shell, cfg core.Config, suite core.CryptoSuite, keys core.ReplicaKeys, app core.Application, dataDir string, cryptoWorkers int) (*Replica, error) {
	r := &Replica{shell: shell}
	var store core.BlockStore
	if dataDir != "" {
		led, err := storage.Open(dataDir, storage.Options{Sync: true})
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("opening block store: %w", err)
		}
		r.led, store = led, led
	}
	rep, err := core.NewReplica(id, cfg, suite, keys, app, shell, store)
	if err != nil {
		r.Close()
		if dataDir != "" {
			// Replay failed; the error says which block of blocks.log or
			// which snap-<seq>.bin.
			err = fmt.Errorf("data directory %s (blocks.log, snap-<seq>.bin): %w", dataDir, err)
		}
		return nil, err
	}
	r.core = rep
	if r.led != nil {
		r.snaps = cryptopool.NewQueue(1, snapshotQueueDepth)
		rep.SetSnapshotSink(&snapshotWorker{led: r.led, do: shell.Do, queue: r.snaps})
	}
	if cryptoWorkers > 0 {
		r.pool = cryptopool.New(suite, cryptoWorkers, shell.Do)
		rep.SetCryptoSink(r.pool)
	}
	return r, nil
}

// Do runs fn under the replica's node lock, on the caller: the one way to
// read the replica's state from outside. After Close it returns without
// running fn.
func (r *Replica) Do(fn func(*core.Replica)) {
	r.shell.Do(func() { fn(r.core) })
}

// Close takes the replica apart in the one order: crypto pool and
// snapshot worker first — their completions run through Shell.Do, so the
// shell must still be open while they drain, and a graceful shutdown keeps
// the latest stable snapshot (only a hard crash loses the in-flight write,
// which restart recovery tolerates by re-arming from the previous one) —
// then the shell, then the ledger, which nothing appends to once the shell
// has stopped running callbacks. Commits delivered between the first step and the third
// verify inline and skip their snapshot.
func (r *Replica) Close() error {
	if r.pool != nil {
		r.pool.Close()
	}
	if r.snaps != nil {
		r.snaps.Close()
	}
	err := r.shell.Close()
	if r.led != nil {
		err = errors.Join(err, r.led.Close())
	}
	return err
}

// StartLoopback is an in-process deployment over loopback TCP: every
// replica of cfg listens on 127.0.0.1:0, then each is started — replica
// id's store under dataDir/r<id> when dataDir is set. It returns the peers
// book (replica id → address) and the replicas, 1-based. On error nothing
// is left running.
func StartLoopback(cfg core.Config, suite core.CryptoSuite, keys []core.ReplicaKeys, newApp func(id int) core.Application, dataDir string, cryptoWorkers int) (map[int]string, []*Replica, error) {
	n := cfg.N()
	peers := make(map[int]string, n)
	shells := make([]*transport.Shell, n+1)
	replicas := make([]*Replica, n+1)
	// A started replica takes its shell down with it; the shell of a
	// failed StartReplica is closed already, and closing twice is harmless.
	fail := func(err error) (map[int]string, []*Replica, error) {
		for id := 1; id <= n; id++ {
			if replicas[id] != nil {
				replicas[id].Close()
			} else if shells[id] != nil {
				shells[id].Close()
			}
		}
		return nil, nil, err
	}
	for id := 1; id <= n; id++ {
		sh, err := transport.NewShell(id, "127.0.0.1:0", peers)
		if err != nil {
			return fail(err)
		}
		shells[id], peers[id] = sh, sh.Addr()
	}
	for id := 1; id <= n; id++ {
		dir := ""
		if dataDir != "" {
			dir = filepath.Join(dataDir, fmt.Sprintf("r%d", id))
		}
		rep, err := StartReplica(id, shells[id], cfg, suite, keys[id-1], newApp(id), dir, cryptoWorkers)
		if err != nil {
			return fail(fmt.Errorf("replica %d: %w", id, err))
		}
		replicas[id] = rep
	}
	return peers, replicas, nil
}
