package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/wire"
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
	// A non-cancelled timer fires.
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

// TestDoReturnsAcrossClose: a Do that races Close returns, having run fn
// or without running it.
func TestDoReturnsAcrossClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		sh, err := NewShell(core.ClientBase, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		sh.Start(nopNode{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					ran := false
					sh.Do(func() { ran = true })
					_ = ran // read after Do: fn has finished or never runs
				}
			}()
		}
		sh.Close()
		returned := make(chan struct{})
		go func() { wg.Wait(); close(returned) }()
		select {
		case <-returned:
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: Do calls still blocked 2s after Close", round)
		}
	}
}

// TestShellAfterAllocs pins what arming and cancelling a timer allocates:
// the shell's timer, the runtime's, and the two method values handed to
// them. Race builds allocate more; CI's race job skips this test.
func TestShellAfterAllocs(t *testing.T) {
	sh, err := NewShell(core.ClientBase, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	sh.Start(nopNode{})
	fn := func() {}
	if got := testing.AllocsPerRun(200, func() { sh.After(time.Hour, fn)() }); got != 4 {
		t.Errorf("After then cancel: %v allocations, want 4", got)
	}
}

// signalNode reports each delivery on a channel.
type signalNode chan struct{}

func (n signalNode) Deliver(int, any) { n <- struct{}{} }

// TestFrameDeliverAllocs pins what one frame costs from the socket to
// Node.Deliver: the frame body and the decoded message boxed in an
// interface, nothing for handing it to the node lock. Race builds
// allocate more; CI's race job skips this test.
func TestFrameDeliverAllocs(t *testing.T) {
	got := make(signalNode, 1)
	sh, err := NewShell(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	sh.Start(got)
	conn, err := net.Dial("tcp", sh.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendHello(nil, 2, "")); err != nil {
		t.Fatal(err)
	}
	share := threshsig.Share{Signer: 2, Data: make([]byte, 32)}
	frame, err := wire.AppendFrame(nil, 2, core.SignShareMsg{Seq: 7, View: 1, Replica: 2, SigmaSig: share, TauSig: share})
	if err != nil {
		t.Fatal(err)
	}
	deliver := func() {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	deliver() // warm up: the first delivery may grow the goroutines' stacks
	if n := testing.AllocsPerRun(500, deliver); n != 2 {
		t.Errorf("one frame delivered: %v allocations, want 2", n)
	}
}

// fromNode reports the sender of each delivery on a channel.
type fromNode chan int

func (n fromNode) Deliver(from int, _ any) { n <- from }

// TestNonPositiveHelloIsRefused: node ids are positive, so a connection
// whose hello announces 0 or a negative id is closed before any of its
// frames reaches the node, and the shell goes on serving.
func TestNonPositiveHelloIsRefused(t *testing.T) {
	got := make(fromNode, 4)
	sh, err := NewShell(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	sh.Start(got)
	send := func(from int) net.Conn {
		conn, err := net.Dial("tcp", sh.Addr())
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.AppendFrame(wire.AppendHello(nil, from, ""), from, core.SignShareMsg{Seq: 7, View: 1, Replica: from})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	for _, from := range []int{-2, -1, 0} {
		conn := send(from)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var b [1]byte
		if _, err := conn.Read(b[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("hello from %d: connection still open (%v)", from, err)
		}
		conn.Close()
	}
	conn := send(2)
	defer conn.Close()
	select {
	case from := <-got:
		if from != 2 {
			t.Fatalf("delivered a frame from %d", from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shell stopped delivering after the refused hellos")
	}
	ran := false
	sh.Do(func() { ran = true })
	if !ran {
		t.Fatal("Do did not run")
	}
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

// blackhole returns the address of a listener whose accept queue (backlog
// 0) is full, so that the kernel drops every further SYN and a dial to it
// waits out its whole timeout. Closing the listener is left to the test.
func blackhole(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	// Take the queue's slot(s) until a dial no longer completes.
	for i := 0; ; i++ {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			return addr
		}
		t.Cleanup(func() { conn.Close() })
		if i == 8 {
			t.Skip("the kernel completes connections past a full accept queue")
		}
	}
}

// TestUnreachablePeerDoesNotBlockSend: a peer whose SYNs are dropped costs
// a sender nothing. The dial runs on the peer's own goroutine, so 100
// sends to it return at once (dialing on the sender took up to 3 s per
// send, under the lock every other send needed), and frames to a live
// peer keep arriving while that dial waits.
func TestUnreachablePeerDoesNotBlockSend(t *testing.T) {
	live := newRecordingNode()
	peer, err := NewShell(3, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.Start(live)
	sh, err := NewShell(1, "127.0.0.1:0", map[int]string{2: blackhole(t), 3: peer.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	sh.Start(nopNode{})

	var blocked time.Duration
	for i := 1; i <= 100; i++ {
		start := time.Now()
		sh.Send(2, core.ReplyMsg{Client: core.ClientBase, Timestamp: uint64(i)})
		blocked += time.Since(start)
		sh.Send(3, core.ReplyMsg{Client: core.ClientBase, Timestamp: uint64(i)})
	}
	if blocked > 10*time.Millisecond {
		t.Fatalf("100 sends to an unreachable peer took %v", blocked)
	}
	deadline := time.After(2 * time.Second)
	for {
		live.mu.Lock()
		n := len(live.got)
		live.mu.Unlock()
		if n == 100 {
			break
		}
		select {
		case <-live.wake:
		case <-deadline:
			t.Fatalf("the live peer got %d of 100 frames while the other dial waited", n)
		}
	}
}

// TestSendKeepsOrderPastTheSocketBuffer: a peer that starts reading late
// gets every frame, in order, while no send waits for it — what the
// socket does not take queues behind it. Past maxBacklog frames are
// refused and counted, and the shell keeps serving.
func TestSendKeepsOrderPastTheSocketBuffer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sh, err := NewShell(1, "127.0.0.1:0", map[int]string{2: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	sh.Start(nopNode{})

	const frames = 200000
	stopReading := make(chan struct{})
	read := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			read <- err
			return
		}
		defer conn.Close()
		time.Sleep(300 * time.Millisecond)
		br := bufio.NewReader(conn)
		if _, err := wire.ReadFrame(br); err != nil { // the hello
			read <- err
			return
		}
		for want := uint64(1); want <= frames; want++ {
			body, err := wire.ReadFrame(br)
			if err != nil {
				read <- err
				return
			}
			_, msg, err := wire.Decode(body)
			if err != nil {
				read <- err
				return
			}
			if got := msg.(core.SignShareMsg).Seq; got != want {
				read <- fmt.Errorf("frame %d arrived as number %d", got, want)
				return
			}
		}
		read <- nil
		<-stopReading // hold the connection open, reading nothing
	}()
	defer close(stopReading)

	var slowest time.Duration
	send := func(msg core.Message) {
		start := time.Now()
		sh.Send(2, msg)
		slowest = max(slowest, time.Since(start))
	}
	for seq := uint64(1); seq <= frames; seq++ {
		send(core.SignShareMsg{Seq: seq, View: 1, Replica: 1})
	}
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the late reader did not get every frame")
	}
	if d := sh.SendDrops(); d != 0 {
		t.Fatalf("%d frames refused below the bound", d)
	}

	// The reader has stopped: fill the socket and the backlog.
	big := core.ReplyMsg{Client: core.ClientBase, Val: make([]byte, 256<<10)}
	for i := 0; i < 4*maxBacklog/len(big.Val) && sh.SendDrops() == 0; i++ {
		send(big)
	}
	if sh.SendDrops() == 0 {
		t.Fatal("no frame refused past the backlog bound")
	}
	// A send that waited for the reader took its whole 300 ms delay.
	bound := 50 * time.Millisecond
	if raceBuild {
		bound *= 3
	}
	if slowest > bound {
		t.Fatalf("a send took %v", slowest)
	}
	fired := make(chan struct{})
	sh.After(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("the shell stopped serving timers past the bound")
	}
	ran := false
	sh.Do(func() { ran = true })
	if !ran {
		t.Fatal("Do did not run past the bound")
	}
}

// TestNowIsMonotonicFromTheWallClock: Now starts at the wall clock, so a
// restarted client's request timestamps outrank its predecessor's, and
// then reads the monotonic clock, so a step of the system clock moves no
// interval the node measures.
func TestNowIsMonotonicFromTheWallClock(t *testing.T) {
	sh, err := NewShell(core.ClientBase, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if d := time.Duration(time.Now().UnixNano()) - sh.Now(); d.Abs() > time.Second {
		t.Fatalf("Now is %v off the wall clock at creation", d)
	}
	prev := sh.Now()
	for i := 0; i < 100000; i++ {
		now := sh.Now()
		if now < prev {
			t.Fatalf("Now went back from %v to %v", prev, now)
		}
		prev = now
	}
}
