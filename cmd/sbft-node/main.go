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
// The peers file lists each of replicas 1..n exactly once: a repeated,
// missing or out-of-range id is refused. Clients are not in it: a client
// announces its own listen address in the transport handshake and
// replicas learn the dial-back route from that (see transport.Shell).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/node"
	"sbft/internal/transport"
)

func main() {
	var (
		id            = flag.Int("id", 0, "replica id (1..n)")
		peerFile      = flag.String("peers", "peers.txt", "peers file: one 'id host:port' per line")
		f             = flag.Int("f", 1, "fault threshold f")
		c             = flag.Int("c", 0, "redundant servers c")
		seed          = flag.String("seed", "sbft-demo", "shared key seed (demo PKI)")
		dataDir       = flag.String("data", "", "block store directory (empty = no persistence)")
		cryptoWorkers = flag.Int("crypto-workers", runtime.NumCPU(), "threshold-crypto verification pool width (0 = verify inline)")
	)
	flag.Parse()

	cfg := core.DefaultConfig(*f, *c)
	if *id < 1 || *id > cfg.N() {
		fmt.Fprintf(os.Stderr, "sbft-node: id %d out of range [1,%d]\n", *id, cfg.N())
		os.Exit(1)
	}
	peers, err := node.LoadPeers(*peerFile, cfg.N())
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbft-node: loading peers: %v\n", err)
		os.Exit(1)
	}
	addr := peers[*id]

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
	rep, err := node.StartReplica(*id, shell, cfg, suite, keys[*id-1], apps.NewKVApp(), *dataDir, *cryptoWorkers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbft-node: %v\n", err)
		os.Exit(1)
	}
	defer rep.Close()
	fmt.Printf("sbft-node: replica %d/%d (f=%d c=%d) listening on %s\n", *id, cfg.N(), *f, *c, shell.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	var le, ls, view uint64
	var m core.Metrics
	rep.Do(func(r *core.Replica) { le, ls, view, m = r.LastExecuted(), r.LastStable(), r.View(), r.Metrics })
	fmt.Printf("sbft-node: shutting down (view=%d executed=%d stable=%d StoreErrors=%d CaptureFailures=%d SendDrops=%d)\n",
		view, le, ls, m.StoreErrors, m.CaptureFailures, shell.SendDrops())
}
