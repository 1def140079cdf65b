// Command sbft-node runs one SBFT replica over TCP. A deployment is
// described by a peers file with one "id host:port" line per replica;
// all replicas share a deterministic key seed (stand-in for the PKI/dealer
// setup of §III — sbft.DealSuite deals real threshold BLS keys with
// threshbls.Dealer; this binary does not yet load them).
//
// Example 4-replica local deployment (f=1, c=0):
//
//	cat > peers.txt <<EOF
//	1 127.0.0.1:7001
//	2 127.0.0.1:7002
//	3 127.0.0.1:7003
//	4 127.0.0.1:7004
//	EOF
//	sbft-node -id 1 -peers peers.txt -f 1 &
//	sbft-node -id 2 -peers peers.txt -f 1 &
//	sbft-node -id 3 -peers peers.txt -f 1 &
//	sbft-node -id 4 -peers peers.txt -f 1 &
//	sbft-client -peers peers.txt -f 1 -n 100
//
// The peers file lists replicas only. Clients are not in it: a client
// announces its own listen address in the transport handshake and
// replicas learn the dial-back route from that (see transport.Shell).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/cryptopool"
	"sbft/internal/storage"
	"sbft/internal/transport"
)

// snapJob is one queued snapshot persistence task.
type snapJob struct {
	cs       *core.CertifiedSnapshot
	keepFrom uint64
	done     func(error)
}

// snapSink is the deployment's core.SnapshotSink: certified snapshots are
// encoded and fsynced by a worker goroutine so the replica's event loop
// never stalls on checkpoint persistence (the paper's "off the critical
// path" replica role, applied to the win/2-interval store write).
// Completions are routed back onto the event loop through Shell.Do, per
// the SnapshotSink contract.
type snapSink struct {
	led  *storage.Ledger
	do   func(func())
	jobs chan snapJob
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

func newSnapSink(led *storage.Ledger, do func(func())) *snapSink {
	s := &snapSink{led: led, do: do, jobs: make(chan snapJob, 4)}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *snapSink) loop() {
	defer s.wg.Done()
	for j := range s.jobs {
		j := j
		err := core.PersistCertified(s.led, j.cs, j.keepFrom)
		s.do(func() { j.done(err) })
	}
}

// PersistSnapshot implements core.SnapshotSink. It only enqueues (it is
// called on the event loop); a saturated worker skips the snapshot — the
// next checkpoint's supersedes it anyway. The closed guard covers the
// shutdown window where the shell's event loop still delivers commits
// after Close ran (defers are LIFO: the sink closes before the shell) —
// a send on the closed jobs channel would panic, even under select.
func (s *snapSink) PersistSnapshot(cs *core.CertifiedSnapshot, keepFrom uint64, done func(error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		done(fmt.Errorf("snapshot sink closed"))
		return
	}
	select {
	case s.jobs <- snapJob{cs: cs, keepFrom: keepFrom, done: done}:
	default:
		done(fmt.Errorf("snapshot persist queue full"))
	}
}

// Close flushes queued persists (a graceful shutdown keeps the latest
// stable snapshot; only a hard crash can lose the in-flight write, which
// restart recovery tolerates by re-arming from the previous one).
func (s *snapSink) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()
	s.wg.Wait()
}

func loadPeers(path string) (map[int]string, error) {
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
		peers[id] = fields[1]
	}
	return peers, sc.Err()
}

func main() {
	var (
		id            = flag.Int("id", 0, "replica id (1..n)")
		peerFile      = flag.String("peers", "peers.txt", "peers file: one 'id host:port' per line")
		f             = flag.Int("f", 1, "fault threshold f")
		c             = flag.Int("c", 0, "redundant servers c")
		seed          = flag.String("seed", "sbft-demo", "shared key seed (demo PKI)")
		dataDir       = flag.String("data", "", "block store directory (empty = no persistence)")
		cryptoWorkers = flag.Int("crypto-workers", runtime.NumCPU(), "threshold-crypto verification pool width (0 = verify inline on the event loop)")
	)
	flag.Parse()

	peers, err := loadPeers(*peerFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbft-node: loading peers: %v\n", err)
		os.Exit(1)
	}
	cfg := core.DefaultConfig(*f, *c)
	if *id < 1 || *id > cfg.N() {
		fmt.Fprintf(os.Stderr, "sbft-node: id %d out of range [1,%d]\n", *id, cfg.N())
		os.Exit(1)
	}
	addr, ok := peers[*id]
	if !ok {
		fmt.Fprintf(os.Stderr, "sbft-node: id %d not in peers file\n", *id)
		os.Exit(1)
	}

	suite, keys, err := core.InsecureSuite(cfg, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbft-node: dealing keys: %v\n", err)
		os.Exit(1)
	}

	shell, err := transport.NewShell(*id, addr, peers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbft-node: %v\n", err)
		os.Exit(1)
	}
	defer shell.Close()

	var store core.BlockStore
	var led *storage.Ledger
	if *dataDir != "" {
		led, err = storage.Open(*dataDir, storage.Options{Sync: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbft-node: opening block store: %v\n", err)
			os.Exit(1)
		}
		defer led.Close()
		store = led
	}

	rep, err := core.NewReplica(*id, cfg, suite, keys[*id-1], apps.NewKVApp(), shell, store)
	if err != nil {
		if led != nil {
			// Replay failed; the error says which block of blocks.log or
			// which snap-<seq>.bin.
			err = fmt.Errorf("data directory %s (blocks.log, snap-<seq>.bin): %w", *dataDir, err)
		}
		fmt.Fprintf(os.Stderr, "sbft-node: %v\n", err)
		os.Exit(1)
	}
	if led != nil {
		sink := newSnapSink(led, shell.Do)
		defer sink.Close()
		rep.SetSnapshotSink(sink)
	}
	if *cryptoWorkers > 0 {
		pool := cryptopool.New(suite, *cryptoWorkers, shell.Do)
		defer pool.Close()
		rep.SetCryptoSink(pool)
	}
	shell.Start(rep)
	fmt.Printf("sbft-node: replica %d/%d (f=%d c=%d) listening on %s\n", *id, cfg.N(), *f, *c, shell.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	var le, ls uint64
	var view uint64
	shell.Do(func() { le, ls, view = rep.LastExecuted(), rep.LastStable(), rep.View() })
	fmt.Printf("sbft-node: shutting down (view=%d executed=%d stable=%d)\n", view, le, ls)
}
