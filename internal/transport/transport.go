// Package transport runs SBFT nodes over real TCP connections: the
// deployment path of the paper's evaluation (authenticated point-to-point
// channels, §V-B; production deployments wrap the listener in TLS 1.2 —
// the handshake here authenticates by announced node id, which matches the
// simulation trust model and keeps the module dependency-free).
//
// Messages travel as internal/wire frames, one Write per message. Each
// Shell owns one protocol node (replica or client), serializes all Deliver
// and timer callbacks through a single event loop, and implements core.Env
// over wall-clock time.
package transport

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
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
// for concurrent callers — and guards buf, the frame being written, which
// is reused from one send to the next.
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

// maxKeptBuf is the largest write buffer a connection keeps between sends;
// the rare frame beyond it (a snapshot chunk, a new-view) is released after
// its write instead of staying pinned per peer.
const maxKeptBuf = 64 << 10

// readBufSize is the per-connection read buffer: a busy connection drains
// this many bytes of small frames per read call, and a frame larger than
// it is read straight into its own allocation.
const readBufSize = 16 << 10

// Node is a protocol event machine (core.Replica, core.Client,
// pbft.Replica).
type Node interface {
	Deliver(from int, msg any)
}

// Shell hosts one node over TCP. All node callbacks run on the shell's
// event loop goroutine, preserving the sans-io single-threaded contract.
type Shell struct {
	id    int
	peers map[int]string // node id → address (static book; not mutated)

	mu      sync.Mutex
	learned map[int]string // addresses announced by inbound hellos
	faults  *shellFaults
	conns   map[int]*peerConn
	inbound map[net.Conn]struct{}
	// timers holds the After timers that have neither fired nor been
	// cancelled. Close stops them: a pending runtime timer keeps its
	// callback, and through it the node and all its state, reachable
	// until it fires.
	timers map[*time.Timer]struct{}

	events chan func()
	done   chan struct{}
	wg     sync.WaitGroup
	ln     net.Listener
	node   Node
	closed bool
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
		learned: make(map[int]string),
		conns:   make(map[int]*peerConn),
		inbound: make(map[net.Conn]struct{}),
		timers:  make(map[*time.Timer]struct{}),
		events:  make(chan func(), 4096),
		done:    make(chan struct{}),
		ln:      ln,
	}
	return s, nil
}

// Addr reports the bound listen address.
func (s *Shell) Addr() string { return s.ln.Addr().String() }

// Start attaches the node and begins serving. The node must have been
// constructed with this shell as its Env.
func (s *Shell) Start(node Node) {
	s.node = node
	s.wg.Add(2)
	go s.acceptLoop()
	go s.eventLoop()
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
	if err != nil {
		return
	}
	if addr != "" {
		// Learn a dial-back route for peers absent from the static book
		// (clients announce themselves this way). A new address under a
		// known id is a new process: the connection cached to the old one
		// goes with the old route, or the next reply is written to a dead
		// socket and lost.
		s.mu.Lock()
		_, static := s.peers[from]
		moved := !static && s.learned[from] != addr
		if moved {
			s.learned[from] = addr
		}
		s.mu.Unlock()
		if moved {
			s.dropConn(from, nil)
		}
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
		select {
		case s.events <- func() { s.node.Deliver(from, msg) }:
		case <-s.done:
			return
		}
	}
}

func (s *Shell) eventLoop() {
	defer s.wg.Done()
	for {
		select {
		case fn := <-s.events:
			fn()
		case <-s.done:
			return
		}
	}
}

// AnnounceAll eagerly dials every peer in the static book and sends the
// hello frame. Replicas learn the caller's dial-back address immediately,
// instead of on the first protocol message that happens to reach them —
// without this, a client's first reply arrives only after replicas learn
// its route from a forwarded request, which can cost a full retry timeout
// (clients are never listed in the replicas' peers files). Dial failures
// are ignored: the peer will be dialed again on the first real send.
func (s *Shell) AnnounceAll() {
	s.mu.Lock()
	ids := make([]int, 0, len(s.peers))
	for id := range s.peers {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, _ = s.dial(id)
		}(id)
	}
	wg.Wait()
}

// dial returns (creating if needed) the connection to a peer.
func (s *Shell) dial(to int) (*peerConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("transport: shell closed")
	}
	if pc, ok := s.conns[to]; ok {
		return pc, nil
	}
	addr, ok := s.peers[to]
	if !ok {
		addr, ok = s.learned[to]
	}
	if !ok {
		return nil, fmt.Errorf("transport: unknown peer %d", to)
	}
	conn, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %d (%s): %w", to, addr, err)
	}
	if _, err := conn.Write(wire.AppendHello(nil, s.id, s.Addr())); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: handshake with %d: %w", to, err)
	}
	pc := &peerConn{conn: conn}
	s.conns[to] = pc
	s.wg.Add(1)
	go s.watchConn(to, pc)
	return pc, nil
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
		cur.conn.Close()
		delete(s.conns, to)
	}
}

var _ core.Env = (*Shell)(nil)

// ShellFaults configures seeded outbound fault injection on a Shell —
// the transport-level counterpart of the simulator's link faults, letting
// the real-TCP integration test run chaos scenarios. Faults apply before
// the codec: a dropped message never reaches the encoder, a delayed one
// is re-enqueued through the event loop (which also reorders it relative
// to later sends).
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

// Send implements core.Env. Failures are dropped silently (the protocol's
// re-transmit and view-change layers handle loss, §II).
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

// sendNow encodes one message into the connection's buffer and writes it:
// one Write per message. A message the codec refuses is dropped; a failed
// write drops the connection, and the next send redials.
func (s *Shell) sendNow(to int, msg core.Message) {
	pc, err := s.dial(to)
	if err != nil {
		return
	}
	pc.mu.Lock()
	frame, err := wire.AppendFrame(pc.buf[:0], s.id, msg)
	if err != nil {
		pc.mu.Unlock()
		return
	}
	_, err = pc.conn.Write(frame)
	if pc.buf = frame; cap(frame) > maxKeptBuf {
		pc.buf = nil
	}
	pc.mu.Unlock()
	if err != nil {
		s.dropConn(to, pc)
	}
}

// Now implements core.Env over wall-clock time (monotonic since process
// start is unnecessary; only differences are used).
func (s *Shell) Now() time.Duration {
	return time.Duration(time.Now().UnixNano())
}

// After implements core.Env: the callback runs on the event loop.
func (s *Shell) After(d time.Duration, fn func()) func() {
	var once sync.Once
	cancelled := make(chan struct{})
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return func() {}
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		s.mu.Lock() // also orders reading t after its assignment below
		delete(s.timers, t)
		s.mu.Unlock()
		select {
		case <-cancelled:
			return
		case <-s.done:
			return
		case s.events <- func() {
			select {
			case <-cancelled:
			default:
				fn()
			}
		}:
		}
	})
	s.timers[t] = struct{}{}
	return func() {
		once.Do(func() {
			close(cancelled)
			t.Stop()
			s.mu.Lock()
			delete(s.timers, t)
			s.mu.Unlock()
		})
	}
}

// Do runs fn on the event loop and waits for it (external access to node
// state).
func (s *Shell) Do(fn func()) {
	doneCh := make(chan struct{})
	select {
	case s.events <- func() { fn(); close(doneCh) }:
		<-doneCh
	case <-s.done:
	}
}

// Close shuts the shell down.
func (s *Shell) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, pc := range s.conns {
		pc.conn.Close()
	}
	for c := range s.inbound {
		c.Close()
	}
	for t := range s.timers {
		t.Stop()
	}
	s.timers = nil
	s.mu.Unlock()
	close(s.done)
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
