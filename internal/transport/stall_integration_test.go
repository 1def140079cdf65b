package transport_test

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/node"
	"sbft/internal/transport"
)

// TestNonReadingPeerCannotStallReplica: replica 4 is a Byzantine peer
// that accepts every connection and never reads, with a receive buffer
// small enough that the other replicas' sockets to it fill within a few
// operations. A send that waited for the socket stopped its replica for
// good there; the three correct replicas must instead serve 200
// operations as fast as when replica 4 is not running at all. (At c = 0 a
// silent replica costs every block the fast-path timer either way, so the
// absent replica, not an all-correct run, is the baseline.)
func TestNonReadingPeerCannotStallReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("two 200-operation deployments")
	}
	absent := fourthReplicaP99(t, false)
	silent := fourthReplicaP99(t, true)
	t.Logf("p99 latency: replica 4 absent %v, not reading %v", absent, silent)
	if silent > 2*absent {
		t.Fatalf("p99 with a non-reading replica 4 is %v, more than twice the %v with it absent", silent, absent)
	}
}

// fourthReplicaP99 runs replicas 1–3 with replica 4 either a listener that
// never reads or a closed port, drives 200 operations through 8 clients,
// and returns their p99 latency.
func fourthReplicaP99(t *testing.T, nonReading bool) time.Duration {
	t.Helper()
	cfg := core.DefaultConfig(1, 0)
	cfg.BatchTimeout = 5 * time.Millisecond
	cfg.FastPathTimeout = 20 * time.Millisecond
	cfg.ExecFallbackTimeout = 50 * time.Millisecond
	cfg.CollectorStagger = 10 * time.Millisecond
	suite, keys, err := core.InsecureSuite(cfg, "non-reading-peer")
	if err != nil {
		t.Fatal(err)
	}
	fourth := silentPeer(t, nonReading)
	peers := map[int]string{4: fourth}
	shells := make(map[int]*transport.Shell)
	for id := 1; id <= 3; id++ {
		shells[id] = listen(t, id, "127.0.0.1:0", peers)
		peers[id] = shells[id].Addr()
	}
	for id := 1; id <= 3; id++ {
		rep, err := node.StartReplica(id, shells[id], cfg, suite, keys[id-1], apps.NewKVApp(), "", 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rep.Close() })
	}

	// 32 KiB values: the primary's pre-prepares alone carry 6.5 MB to
	// replica 4, more than a loopback socket's buffers hold.
	const clients, each = 8, 25
	value := make([]byte, 32<<10)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var (
		mu        sync.Mutex
		latencies []time.Duration
		wg        sync.WaitGroup
	)
	for i := 0; i < clients; i++ {
		id := core.ClientBase + i
		client, err := node.StartClient(id, listen(t, id, "127.0.0.1:0", peers), cfg, suite, apps.VerifyKV, kvstore.ReadKey, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := make([][]byte, each)
			for j := range ops {
				ops[j] = kvstore.Put(fmt.Sprintf("c%d-%d", i, j), value)
			}
			results, err := client.Run(ctx, ops)
			if err != nil {
				t.Errorf("client %d (replica 4 not reading: %v): %v", id, nonReading, err)
			}
			mu.Lock()
			for _, res := range results {
				latencies = append(latencies, res.Latency)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	slices.Sort(latencies)
	return latencies[len(latencies)*99/100]
}

// silentPeer returns the address replica 4 is dialed at. Not reading, it
// is a listener with a small receive buffer that accepts every
// connection, keeps it open and reads nothing; otherwise it is a port
// nothing listens on.
func silentPeer(t *testing.T, nonReading bool) string {
	t.Helper()
	lc := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) error {
		var err error
		c.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4096) })
		return err
	}}
	ln, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if !nonReading {
		ln.Close()
		return addr
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return addr
}
