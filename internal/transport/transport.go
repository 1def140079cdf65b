// Package transport runs SBFT nodes over real TCP connections: the
// deployment path of the paper's evaluation (authenticated point-to-point
// channels, §V-B; production deployments wrap the listener in TLS 1.2 —
// the handshake here authenticates by announced node id, which matches the
// simulation trust model and keeps the module dependency-free).
//
// Messages travel as internal/wire frames. Each Shell owns one protocol
// node (replica or client) and implements core.Env over wall-clock time.
// Every node callback — a delivered frame, a fired timer, a Do — runs on
// the goroutine that holds its input, under one mutex per shell, so the
// node sees one callback at a time. A Send never waits for the network:
// it writes what the socket takes at once, and a per-peer goroutine, alive
// only while bytes are pending, dials and writes the rest.
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sbft/internal/core"
	"sbft/internal/wire"
)

// The first frame on every outbound connection is a hello (wire.AppendHello)
// announcing the sender's id and listen address, so the receiver can dial
// back even when the sender is absent from its static peers file — without
// this, a client (never listed in the replicas' peers files) commits blocks
// it can never hear about: requests flow in over its inbound connections
// while every reply is dropped as "unknown peer". The cmd-level
// 4×sbft-node + sbft-client deployment hung exactly this way after its
// first block.

// peerConn is one outbound connection. mu orders writers — Send is safe
// for concurrent callers — and guards the rest. While pending is false
// the connection is dialed and a send writes its frame inline, encoded
// into buf, which is reused from one send to the next. While pending is
// true one drain goroutine owns the socket's writes, and every frame is
// appended to out behind the bytes already there: order is kept because
// nothing bypasses the backlog while it is non-empty.
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn // nil until dialed; set under Shell.mu and mu
	raw  syscall.RawConn
	buf  []byte

	// out holds the bytes the socket has not taken yet, in order, in
	// blocks of about backlogBlock bytes, so that queueing a frame costs
	// its own length and never a copy of the backlog.
	out     [][]byte
	queued  int // bytes in out and in the drain's write
	pending bool

	// The inline write's argument and results, and writeFD bound once as
	// a method value, so that a send allocates no closure.
	wb      []byte
	wn      int
	werr    error
	writeFn func(fd uintptr) bool

	ready chan struct{} // closed once the first dial has succeeded or failed
}

const (
	// maxKeptBuf is the largest buffer a connection keeps between sends;
	// the rare frame beyond it (a snapshot chunk, a new-view) is released
	// after its write instead of staying pinned per peer.
	maxKeptBuf = 64 << 10
	// maxBacklog bounds the bytes one peer may have waiting behind its
	// socket. A frame that would pass it is refused and counted in
	// SendDrops; §II's loss model covers the drop. It is several times
	// the largest legitimate frame below wire.MaxFrame (a new-view at
	// n=9, a 1 MiB snapshot chunk).
	maxBacklog = 16 << 20
	// backlogBlock is the size at which the backlog starts a new block.
	backlogBlock = 64 << 10
	// writeTimeout is how long the drain may spend on one write of the
	// backlog; a peer that reads slower than that loses the connection.
	writeTimeout = 10 * time.Second
	// dialTimeout bounds one dial. The dial runs on the drain goroutine,
	// never on a sender and never under Shell.mu.
	dialTimeout = 3 * time.Second
	// After a failed dial, frames to that peer are refused for a backoff
	// that starts at redialMin and doubles up to redialMax; a hello from
	// the peer ends it early.
	redialMin = 50 * time.Millisecond
	redialMax = 2 * time.Second
	// readBufSize is the per-connection read buffer: a busy connection
	// drains this many bytes of small frames per read call, and a frame
	// larger than it is read straight into its own allocation.
	readBufSize = 16 << 10
)

// errBacklogFull is a refusal: the frame would pass maxBacklog.
var errBacklogFull = errors.New("transport: peer backlog full")

// Node is a protocol event machine (core.Replica, core.Client,
// pbft.Replica).
type Node interface {
	Deliver(from int, msg any)
}

// redial is a peer's backoff after a failed dial.
type redial struct {
	at   time.Time // frames are refused until then
	wait time.Duration
}

// Shell hosts one node over TCP. Every node callback runs under run, on
// the goroutine that has its input: a frame on its connection's readLoop,
// a timer on the runtime's timer goroutine, a Do on its caller. That
// keeps the sans-io single-threaded contract without a queue between the
// socket and the node. Lock order: run, then mu, then a peerConn's mu;
// a callback must not call Do.
type Shell struct {
	id    int
	peers map[int]string // node id → address (static book; not mutated)
	start time.Time      // Now's anchor

	run     sync.Mutex // held by every node callback; by NewShell until Start
	stopped bool       // under run: set by Close, after which no callback runs
	node    Node

	mu      sync.Mutex
	learned map[int]string // addresses announced by inbound hellos
	faults  *shellFaults
	conns   map[int]*peerConn
	redial  map[int]redial
	inbound map[net.Conn]struct{}
	// timers holds the After timers that have neither fired nor been
	// cancelled. Close stops them: a pending runtime timer keeps its
	// callback, and through it the node and all its state, reachable
	// until it fires.
	timers  map[*timer]struct{}
	started bool
	closed  bool

	drops  atomic.Uint64
	dialer net.Dialer
	ctx    context.Context // cancelled by Close: aborts the dials in flight
	cancel context.CancelFunc
	wg     sync.WaitGroup
	ln     net.Listener
}

// NewShell creates a shell for node id listening on listenAddr, with a
// static peer address book.
func NewShell(id int, listenAddr string, peers map[int]string) (*Shell, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	s := &Shell{
		id:      id,
		peers:   peers,
		start:   time.Now(),
		learned: make(map[int]string),
		conns:   make(map[int]*peerConn),
		redial:  make(map[int]redial),
		inbound: make(map[net.Conn]struct{}),
		timers:  make(map[*timer]struct{}),
		dialer:  net.Dialer{Timeout: dialTimeout},
		ln:      ln,
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	// No callback runs before the node exists: a timer armed while it is
	// being built, or a Do, waits for Start.
	s.run.Lock()
	return s, nil
}

// Addr reports the bound listen address.
func (s *Shell) Addr() string { return s.ln.Addr().String() }

// Start attaches the node and begins serving. The node must have been
// constructed with this shell as its Env.
func (s *Shell) Start(node Node) {
	s.node = node
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	s.run.Unlock()
	s.wg.Add(1)
	go s.acceptLoop()
}

func (s *Shell) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.inbound[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.readLoop(conn)
	}
}

// readLoop reads one inbound connection and delivers each frame on this
// goroutine.
func (s *Shell) readLoop(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.inbound, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readBufSize)
	body, err := wire.ReadFrame(br)
	if err != nil {
		return
	}
	from, addr, err := wire.DecodeHello(body)
	if err != nil || from < 1 {
		return // node ids are positive
	}
	// The peer is up: a backoff from a failed dial to it ends. With an
	// address, learn a dial-back route for peers absent from the static
	// book (clients announce themselves this way). A new address under a
	// known id is a new process: the connection cached to the old one
	// goes with the old route, or the next reply is written to a dead
	// socket and lost.
	s.mu.Lock()
	delete(s.redial, from)
	_, static := s.peers[from]
	moved := addr != "" && !static && s.learned[from] != addr
	if moved {
		s.learned[from] = addr
	}
	s.mu.Unlock()
	if moved {
		s.dropConn(from, nil)
	}
	for {
		// Any malformed frame closes the connection; the peer redials.
		body, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		sender, msg, err := wire.Decode(body)
		if err != nil || sender != from {
			return // channel authenticity: sender id is fixed per conn
		}
		if !s.deliver(from, msg) {
			return
		}
	}
}

// deliver runs one Deliver under the node lock; false once Close has run.
func (s *Shell) deliver(from int, msg any) bool {
	s.run.Lock()
	defer s.run.Unlock()
	if s.stopped {
		return false
	}
	s.node.Deliver(from, msg)
	return true
}

// AnnounceAll eagerly dials every peer in the static book and sends the
// hello frame. Replicas learn the caller's dial-back address immediately,
// instead of on the first protocol message that happens to reach them —
// without this, a client's first reply arrives only after replicas learn
// its route from a forwarded request, which can cost a full retry timeout
// (clients are never listed in the replicas' peers files). It returns once
// every dial has ended; a failed one starts the peer's backoff.
func (s *Shell) AnnounceAll() {
	var dialing []*peerConn
	for id := range s.peers {
		if pc := s.peer(id); pc != nil {
			dialing = append(dialing, pc)
		}
	}
	for _, pc := range dialing {
		<-pc.ready
	}
}

// peer returns the connection to a peer. When there is none it creates
// one whose backlog starts with the hello, and a drain goroutine that
// dials it, so the caller never waits for the dial. It returns nil for a
// closed shell and an unknown peer, and refuses (and counts) during the
// peer's backoff.
func (s *Shell) peer(to int) *peerConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if pc, ok := s.conns[to]; ok {
		return pc
	}
	addr, ok := s.peers[to]
	if !ok {
		addr, ok = s.learned[to]
	}
	if !ok {
		return nil
	}
	if b, ok := s.redial[to]; ok && time.Now().Before(b.at) {
		s.drops.Add(1)
		return nil
	}
	hello := wire.AppendHello(nil, s.id, s.Addr())
	pc := &peerConn{out: [][]byte{hello}, queued: len(hello), pending: true, ready: make(chan struct{})}
	pc.writeFn = pc.writeFD
	s.conns[to] = pc
	s.wg.Add(1)
	go s.drain(to, pc, addr)
	return pc
}

// connect dials pc's peer and installs the connection, or, on failure,
// forgets pc and starts the peer's backoff. A pc dropped while its dial
// was in flight (a re-announced route, Close) gets nothing.
func (s *Shell) connect(to int, pc *peerConn, addr string) bool {
	defer close(pc.ready)
	conn, err := s.dialer.DialContext(s.ctx, "tcp", addr)
	var raw syscall.RawConn
	if err == nil {
		if raw, err = conn.(syscall.Conn).SyscallConn(); err != nil {
			conn.Close()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.conns[to] == pc {
			delete(s.conns, to)
			wait := min(max(2*s.redial[to].wait, redialMin), redialMax)
			s.redial[to] = redial{at: time.Now().Add(wait), wait: wait}
		}
		return false
	}
	if s.closed || s.conns[to] != pc {
		conn.Close()
		return false
	}
	delete(s.redial, to)
	pc.mu.Lock()
	pc.conn, pc.raw = conn, raw
	pc.mu.Unlock()
	s.wg.Add(1)
	go s.watchConn(to, pc)
	return true
}

// drain owns pc's writes while bytes are pending: it dials first when
// given an address, then writes out until it is empty, each write under
// writeTimeout, and exits. A failed write drops the connection; what was
// queued on it is lost, as the bytes in a dead socket's buffer always were.
func (s *Shell) drain(to int, pc *peerConn, addr string) {
	defer s.wg.Done()
	if addr != "" && !s.connect(to, pc, addr) {
		return
	}
	for {
		pc.mu.Lock()
		bufs := net.Buffers(pc.out)
		if len(bufs) == 0 {
			// An expired deadline would fail the next inline write.
			pc.conn.SetWriteDeadline(time.Time{})
			pc.pending = false
			pc.mu.Unlock()
			return
		}
		pc.out = nil
		n := pc.queued
		pc.mu.Unlock()
		pc.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := bufs.WriteTo(pc.conn)
		pc.mu.Lock()
		pc.queued -= n
		pc.mu.Unlock()
		if err != nil {
			s.dropConn(to, pc)
			return
		}
	}
}

// watchConn parks one reader on an outbound connection. Connections are
// one-way — the dialer writes, the peer's readLoop never does — so the
// read returns only when the connection is gone: the peer's process went
// away, or this shell dropped or closed it. The cached entry goes with it
// and the next send redials. Without the reader the first message to a
// restarted peer is written into the dead socket, which TCP accepts, and is
// lost.
func (s *Shell) watchConn(to int, pc *peerConn) {
	defer s.wg.Done()
	var b [1]byte
	_, _ = pc.conn.Read(b[:]) // returning at all is the signal
	s.dropConn(to, pc)
}

// dropConn closes and forgets the cached connection to a peer — pc if it
// still is the cached one, whichever is cached when pc is nil.
func (s *Shell) dropConn(to int, pc *peerConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.conns[to]; ok && (pc == nil || cur == pc) {
		if cur.conn != nil {
			cur.conn.Close()
		}
		delete(s.conns, to)
	}
}

var _ core.Env = (*Shell)(nil)

// ShellFaults configures seeded outbound fault injection on a Shell —
// the transport-level counterpart of the simulator's link faults, letting
// the real-TCP integration test run chaos scenarios. Faults apply before
// the codec: a dropped message never reaches the encoder, a delayed one
// is sent from a timer (which also reorders it relative to later sends).
type ShellFaults struct {
	// Drop is the probability an outbound message is silently dropped.
	Drop float64
	// MaxDelay, when positive, delays each outbound message by a uniform
	// random duration in [0, MaxDelay).
	MaxDelay time.Duration
	// Seed drives the fault randomness.
	Seed int64
}

type shellFaults struct {
	cfg ShellFaults
	rng *rand.Rand
}

// SetFaults installs outbound fault injection; a zero value clears it.
func (s *Shell) SetFaults(f ShellFaults) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.Drop <= 0 && f.MaxDelay <= 0 {
		s.faults = nil
		return
	}
	s.faults = &shellFaults{cfg: f, rng: rand.New(rand.NewSource(f.Seed))}
}

// faultDecision draws the fate of one outbound message.
func (s *Shell) faultDecision() (drop bool, delay time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.faults
	if f == nil {
		return false, 0
	}
	if f.cfg.Drop > 0 && f.rng.Float64() < f.cfg.Drop {
		return true, 0
	}
	if f.cfg.MaxDelay > 0 {
		return false, time.Duration(f.rng.Int63n(int64(f.cfg.MaxDelay)))
	}
	return false, 0
}

// Send implements core.Env. It never waits for the network. Failures are
// dropped silently (the protocol's re-transmit and view-change layers
// handle loss, §II); refusals are counted in SendDrops.
func (s *Shell) Send(to int, msg core.Message) {
	drop, delay := s.faultDecision()
	if drop {
		return
	}
	if delay > 0 {
		s.After(delay, func() { s.sendNow(to, msg) })
		return
	}
	s.sendNow(to, msg)
}

// sendNow encodes one message and hands it to the socket. With nothing
// pending that is one write attempt that does not wait, which in the
// common case takes the whole frame; what the socket does not take starts
// the backlog and its drain. With bytes pending the frame joins the
// backlog. A message the codec refuses is dropped, a frame that would
// pass maxBacklog is refused, and a failed write drops the connection, so
// the next send redials.
func (s *Shell) sendNow(to int, msg core.Message) {
	pc := s.peer(to)
	if pc == nil {
		return
	}
	pc.mu.Lock()
	if pc.pending {
		err := pc.enqueue(s.id, msg)
		pc.mu.Unlock()
		if err == errBacklogFull {
			s.drops.Add(1)
		}
		return
	}
	frame, err := wire.AppendFrame(pc.buf[:0], s.id, msg)
	if err == nil && len(frame) > maxBacklog {
		err = errBacklogFull
		s.drops.Add(1)
	}
	if err != nil {
		pc.mu.Unlock()
		return
	}
	n, err := pc.writeNow(frame)
	if err == nil && n < len(frame) {
		rest := append(make([]byte, 0, max(backlogBlock, len(frame)-n)), frame[n:]...)
		pc.out, pc.queued, pc.pending = append(pc.out, rest), len(rest), true
	}
	if pc.buf = frame; cap(frame) > maxKeptBuf {
		pc.buf = nil
	}
	started := pc.pending
	pc.mu.Unlock()
	switch {
	case err != nil:
		s.dropConn(to, pc)
	case started:
		s.mu.Lock()
		if !s.closed {
			s.wg.Add(1)
			go s.drain(to, pc, "")
		}
		s.mu.Unlock()
	}
}

// enqueue appends one frame to the backlog, or refuses it when the bytes
// pending would pass maxBacklog.
func (pc *peerConn) enqueue(sender int, msg core.Message) error {
	if n := len(pc.out); n == 0 || len(pc.out[n-1]) >= backlogBlock {
		pc.out = append(pc.out, make([]byte, 0, backlogBlock))
	}
	last := &pc.out[len(pc.out)-1]
	start := len(*last)
	b, err := wire.AppendFrame(*last, sender, msg)
	if err == nil && pc.queued+len(b)-start > maxBacklog {
		b, err = b[:start], errBacklogFull
	}
	*last = b
	if err == nil {
		pc.queued += len(b) - start
	}
	return err
}

// writeNow makes one write attempt that does not wait for the socket and
// reports how many bytes of b it took: all of them, some, or none when its
// buffer is full. Called under pc.mu with nothing pending.
func (pc *peerConn) writeNow(b []byte) (int, error) {
	pc.wb = b
	err := pc.raw.Write(pc.writeFn)
	n := pc.wn
	if err == nil {
		err = pc.werr
	}
	pc.wb, pc.werr = nil, nil
	return n, err
}

// writeFD is writeNow's raw write; returning true tells the runtime not
// to wait for the socket to become writable.
func (pc *peerConn) writeFD(fd uintptr) bool {
	n, err := syscall.Write(int(fd), pc.wb)
	for err == syscall.EINTR {
		n, err = syscall.Write(int(fd), pc.wb)
	}
	if err == syscall.EAGAIN {
		n, err = 0, nil
	}
	pc.wn, pc.werr = max(n, 0), err
	return true
}

// SendDrops counts the frames Send refused: to a peer whose backlog would
// pass maxBacklog, or whose last dial failed within its backoff.
func (s *Shell) SendDrops() uint64 { return s.drops.Load() }

// Now implements core.Env: the wall clock read at NewShell plus the
// monotonic time since, so a step of the system clock moves no interval
// the node measures, while a restarted process still reads later than its
// predecessor (core.NewClient seeds request timestamps from it).
func (s *Shell) Now() time.Duration {
	return time.Duration(s.start.UnixNano()) + time.Since(s.start)
}

// timer is one After: the callback, the runtime timer that runs it, and
// the cancellation flag read under the node lock before running it.
type timer struct {
	s         *Shell
	fn        func()
	t         *time.Timer
	cancelled atomic.Bool
}

// After implements core.Env: the callback runs under the node lock on the
// runtime's timer goroutine.
func (s *Shell) After(d time.Duration, fn func()) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return func() {}
	}
	tm := &timer{s: s, fn: fn}
	tm.t = time.AfterFunc(d, tm.fire)
	s.timers[tm] = struct{}{}
	return tm.cancel
}

// fire runs on the runtime's timer goroutine.
func (tm *timer) fire() {
	s := tm.s
	s.mu.Lock()
	delete(s.timers, tm)
	s.mu.Unlock()
	s.run.Lock()
	defer s.run.Unlock()
	if !s.stopped && !tm.cancelled.Load() {
		tm.fn()
	}
}

// cancel is idempotent; a timer that fired and waits for the node lock
// sees the flag and does not run.
func (tm *timer) cancel() {
	if tm.cancelled.Swap(true) {
		return
	}
	tm.t.Stop()
	s := tm.s
	s.mu.Lock()
	delete(s.timers, tm)
	s.mu.Unlock()
}

// Do runs fn under the node lock on the caller's goroutine (external
// access to node state). After Close it returns without running fn.
func (s *Shell) Do(fn func()) {
	s.run.Lock()
	defer s.run.Unlock()
	if !s.stopped {
		fn()
	}
}

// Close shuts the shell down: once it returns no callback runs, and every
// goroutine the shell started has exited.
func (s *Shell) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	started := s.started
	for _, pc := range s.conns {
		if pc.conn != nil {
			pc.conn.Close()
		}
	}
	for c := range s.inbound {
		c.Close()
	}
	for tm := range s.timers {
		tm.t.Stop()
	}
	s.timers = nil
	s.mu.Unlock()
	s.cancel()
	if started {
		s.run.Lock() // NewShell's hold otherwise
	}
	s.stopped = true
	s.run.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
