package transport

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/kvstore"
)

// launchTCPCluster starts n replicas and one client over loopback TCP.
func launchTCPCluster(t *testing.T, cfg core.Config) ([]*Shell, *Shell, *core.Client) {
	t.Helper()
	n := cfg.N()
	suite, keys, err := core.InsecureSuite(cfg, "tcp-test")
	if err != nil {
		t.Fatal(err)
	}

	shells := make([]*Shell, n+1)
	peers := make(map[int]string)
	for id := 1; id <= n; id++ {
		sh, err := NewShell(id, "127.0.0.1:0", peers)
		if err != nil {
			t.Fatal(err)
		}
		shells[id] = sh
		peers[id] = sh.Addr()
		t.Cleanup(func() { sh.Close() })
	}
	clientID := core.ClientBase
	clientShell, err := NewShell(clientID, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	peers[clientID] = clientShell.Addr()
	t.Cleanup(func() { clientShell.Close() })

	for id := 1; id <= n; id++ {
		rep, err := core.NewReplica(id, cfg, suite, keys[id-1], apps.NewKVApp(), shells[id], nil)
		if err != nil {
			t.Fatal(err)
		}
		shells[id].Start(rep)
	}
	client, err := core.NewClient(clientID, cfg, suite, clientShell, apps.VerifyKV)
	if err != nil {
		t.Fatal(err)
	}
	client.RequestTimeout = 2 * time.Second
	clientShell.Start(client)
	return shells, clientShell, client
}

func TestTCPClusterCommitsOperations(t *testing.T) {
	cfg := core.DefaultConfig(1, 0)
	cfg.BatchTimeout = 5 * time.Millisecond
	_, clientShell, client := launchTCPCluster(t, cfg)

	const ops = 5
	var mu sync.Mutex
	results := make([][]byte, 0, ops)
	done := make(chan struct{})

	submitLocked := func(i int) {
		// Runs on the client's event loop (from onResult or via Do).
		op := kvstore.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
		if err := client.Submit(op); err != nil {
			t.Errorf("Submit: %v", err)
		}
	}
	client.SetOnResult(func(res core.Result) {
		mu.Lock()
		results = append(results, res.Val)
		n := len(results)
		mu.Unlock()
		if n < ops {
			submitLocked(n)
		} else {
			close(done)
		}
	})
	clientShell.Do(func() { submitLocked(0) })

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for operations over TCP")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(results) != ops {
		t.Fatalf("completed %d of %d", len(results), ops)
	}
	for _, v := range results {
		if string(v) != "OK" {
			t.Fatalf("unexpected result %q", v)
		}
	}
}

func TestShellAfterCancel(t *testing.T) {
	sh, err := NewShell(core.ClientBase, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	sh.Start(nopNode{})
	fired := make(chan struct{}, 1)
	cancel := sh.After(20*time.Millisecond, func() { fired <- struct{}{} })
	cancel()
	cancel() // idempotent
	select {
	case <-fired:
		t.Fatal("cancelled timer fired")
	case <-time.After(100 * time.Millisecond):
	}
	// A non-cancelled timer fires on the event loop.
	sh.After(10*time.Millisecond, func() { fired <- struct{}{} })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("timer did not fire")
	}
}

// TestCloseReleasesPendingTimers: a closed shell must not keep its node's
// state reachable through timers that have not fired yet (a replica arms
// view-change and retry timers of a second and more).
func TestCloseReleasesPendingTimers(t *testing.T) {
	sh, err := NewShell(core.ClientBase, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	sh.Start(nopNode{})
	type state struct{ b [1 << 16]byte }
	freed := make(chan struct{})
	arm := func(st *state) {
		runtime.SetFinalizer(st, func(*state) { close(freed) })
		sh.After(time.Hour, func() { _ = st.b[0] })
	}
	arm(new(state))
	sh.Close()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			// After on a closed shell arms nothing.
			sh.After(time.Hour, func() {})()
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("state captured by a pending timer is still reachable after Close")
}

type nopNode struct{}

func (nopNode) Deliver(int, any) {}

func TestShellSendToUnknownPeerIsSilent(t *testing.T) {
	sh, err := NewShell(core.ClientBase, "127.0.0.1:0", map[int]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	sh.Start(nopNode{})
	sh.Send(42, core.RequestMsg{}) // must not panic
}

// recordingNode captures delivered messages for assertions.
type recordingNode struct {
	mu   sync.Mutex
	got  []any
	wake chan struct{}
}

func newRecordingNode() *recordingNode { return &recordingNode{wake: make(chan struct{}, 16)} }

func (r *recordingNode) Deliver(_ int, msg any) {
	r.mu.Lock()
	r.got = append(r.got, msg)
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// TestAnnounceAllEstablishesDialBackRoutes: after a client announces
// itself, a replica that has the client in neither its peers file nor its
// learned table can reach it immediately — no protocol message from the
// client needed first. This is the eager version of the dial-back fix that
// previously cost the first reply a full retry timeout.
func TestAnnounceAllEstablishesDialBackRoutes(t *testing.T) {
	replicaShell, err := NewShell(1, "127.0.0.1:0", map[int]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer replicaShell.Close()
	replicaShell.Start(nopNode{})

	clientID := core.ClientBase
	clientShell, err := NewShell(clientID, "127.0.0.1:0", map[int]string{1: replicaShell.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer clientShell.Close()
	sink := newRecordingNode()
	clientShell.Start(sink)

	clientShell.AnnounceAll()

	// The replica should now know the client's dial-back address. Allow a
	// short window for the hello frame to be read.
	deadline := time.Now().Add(5 * time.Second)
	for {
		replicaShell.Send(clientID, core.ReplyMsg{Client: clientID, Timestamp: 1, Val: []byte("hi")})
		select {
		case <-sink.wake:
		case <-time.After(50 * time.Millisecond):
		}
		sink.mu.Lock()
		n := len(sink.got)
		sink.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replica could not reach the announced client")
		}
	}
}
