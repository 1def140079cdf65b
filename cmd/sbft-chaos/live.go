package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/node"
	"sbft/internal/transport"
)

// runLiveReads is the real-transport smoke for the reads mix: it boots a
// 4-node (f=1, c=0) deployment over loopback TCP — real sockets, real
// goroutines, real wall-clock timers, none of the simulator's
// determinism — populates keys through consensus, then drives a mix of
// certified single-replica reads and further writes. It fails if any
// operation hangs, any certified read returns a value that consensus
// never committed, or every read fell back to ordering (the
// consensus-free path never worked at all).
func runLiveReads(writes, reads int, timeout time.Duration) error {
	cfg := core.DefaultConfig(1, 0)
	cfg.BatchTimeout = 5 * time.Millisecond
	// Certified reads serve from checkpoint snapshots; the default win/2
	// interval (128) would never checkpoint inside this small smoke.
	cfg.CheckpointInterval = 4
	suite, keys, err := core.InsecureSuite(cfg, "chaos-live")
	if err != nil {
		return err
	}
	peers, replicas, err := node.StartLoopback(cfg, suite, keys, func(int) core.Application { return apps.NewKVApp() }, "", 0)
	if err != nil {
		return err
	}
	for _, rep := range replicas[1:] {
		defer rep.Close()
	}
	shell, err := transport.NewShell(core.ClientBase, "127.0.0.1:0", peers)
	if err != nil {
		return err
	}
	client, err := node.StartClient(core.ClientBase, shell, cfg, suite, apps.VerifyKV, kvstore.ReadKey, 2*time.Second)
	if err != nil {
		return err
	}
	defer client.Close()

	key := func(i int) string { return fmt.Sprintf("live/%d", i) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%d", i)) }
	put := func(i int) []byte { return kvstore.Put(key(i), val(i)) }

	// Phase 1: commit the write set through consensus.
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	ops := make([][]byte, writes)
	for i := range ops {
		ops[i] = put(i)
	}
	if _, err := client.Run(ctx, ops); err != nil {
		return fmt.Errorf("write phase over TCP: %w", err)
	}

	// Phase 2: certified reads over the committed keys, four at a time,
	// with a write between rounds (the value the key already holds, so
	// later reads verify unchanged): the read path must tolerate a moving
	// certified frontier.
	ctx, cancel = context.WithTimeout(context.Background(), timeout)
	defer cancel()
	completed, ordered, failovers := 0, 0, 0
	for completed < reads {
		round := make([][]byte, min(4, reads-completed))
		for i := range round {
			salt := completed + i + 1
			round[i] = kvstore.GetUnique(key(salt%writes), uint64(salt))
		}
		results, err := client.RunReads(ctx, round)
		if err != nil {
			return fmt.Errorf("read phase over TCP, %d/%d reads completed: %w", completed, reads, err)
		}
		for i, res := range results {
			want := val((completed + i + 1) % writes)
			switch {
			case res.Ordered:
				ordered++
			case !res.Found:
				return fmt.Errorf("read phase: certified read of %q found nothing", res.Key)
			case !bytes.Equal(res.Val, want):
				return fmt.Errorf("read phase: certified read of %q returned %q, consensus committed %q", res.Key, res.Val, want)
			}
			failovers += res.Failovers
		}
		completed += len(results)
		if completed < reads {
			if _, err := client.Run(ctx, [][]byte{put(completed % writes)}); err != nil {
				return fmt.Errorf("read phase over TCP, interleaved write: %w", err)
			}
		}
	}
	if ordered >= reads {
		return fmt.Errorf("all %d reads fell back to ordering — the certified read path never served one", reads)
	}
	fmt.Printf("[live] %d writes + %d certified reads over TCP ok (%d ordered fallbacks, %d failovers)\n",
		writes, reads, ordered, failovers)
	return nil
}
