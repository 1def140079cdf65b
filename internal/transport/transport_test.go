package transport

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"sbft/internal/core"
)

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

// TestRestartedPeerIsRedialed: a peer's process goes away and a new one
// listens on its address. Once the sender has seen the old connection end,
// the FIRST message it sends reaches the new process. While it kept writing
// into the cached connection, that message went to a dead socket — the
// write succeeds — and only the one after it was redialed; a share lost
// that way cost an operation its client's whole retry timeout.
func TestRestartedPeerIsRedialed(t *testing.T) {
	peer, err := NewShell(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := peer.Addr()
	first := newRecordingNode()
	peer.Start(first)

	sender, err := NewShell(1, "127.0.0.1:0", map[int]string{2: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sender.Start(nopNode{})
	sender.Send(2, core.ReplyMsg{Client: core.ClientBase, Timestamp: 1})
	select {
	case <-first.wake:
	case <-time.After(5 * time.Second):
		t.Fatal("the first process heard nothing")
	}

	peer.Close()
	restarted, err := NewShell(2, addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	second := newRecordingNode()
	restarted.Start(second)

	// The old connection's end reaches the sender within moments of
	// peer.Close; give it those, not a sleep.
	deadline := time.Now().Add(2 * time.Second)
	for cached := true; cached && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		sender.mu.Lock()
		_, cached = sender.conns[2]
		sender.mu.Unlock()
	}
	sender.Send(2, core.ReplyMsg{Client: core.ClientBase, Timestamp: 2})
	select {
	case <-second.wake:
	case <-time.After(2 * time.Second):
		t.Fatal("the first message sent to the restarted process was lost")
	}
}
