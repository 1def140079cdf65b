package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"sbft/internal/wire"
)

// NodeID identifies a simulated node (replica or client).
type NodeID int

// Handler receives delivered messages.
type Handler interface {
	// Deliver is invoked when a message arrives. Implementations run on
	// the simulator's single logical thread; no locking is needed.
	Deliver(from NodeID, msg any)
}

// event is a scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // FIFO tiebreaker for equal timestamps → determinism
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler is a deterministic virtual-time event loop.
type Scheduler struct {
	pq   eventHeap
	now  time.Duration
	seq  uint64
	rng  *rand.Rand
	nrun uint64
}

// NewScheduler returns a scheduler seeded for reproducibility.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now reports current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Events reports how many events have run.
func (s *Scheduler) Events() uint64 { return s.nrun }

// Schedule runs fn after delay d of virtual time. It returns a cancel
// function; cancelling after the event fired is a no-op.
func (s *Scheduler) Schedule(d time.Duration, fn func()) (cancel func()) {
	if d < 0 {
		d = 0
	}
	e := &event{at: s.now + d, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.pq, e)
	return func() { e.fn = nil }
}

// Step runs the next event. It reports false when no events remain.
func (s *Scheduler) Step() bool {
	for s.pq.Len() > 0 {
		e := heap.Pop(&s.pq).(*event)
		if e.fn == nil {
			continue // cancelled
		}
		s.now = e.at
		s.nrun++
		e.fn()
		return true
	}
	return false
}

// Run processes events until the queue is empty, virtual time passes
// `until`, or maxEvents fire (0 = no event cap). It returns the number of
// events processed.
func (s *Scheduler) Run(until time.Duration, maxEvents uint64) uint64 {
	var n uint64
	for s.pq.Len() > 0 {
		if maxEvents > 0 && n >= maxEvents {
			break
		}
		// Peek: do not cross the time horizon.
		next := s.pq[0]
		if next.fn == nil {
			heap.Pop(&s.pq)
			continue
		}
		if until > 0 && next.at > until {
			s.now = until
			break
		}
		if !s.Step() {
			break
		}
		n++
	}
	return n
}

// Config describes the network model.
type Config struct {
	// Seed drives all randomness (latency jitter, drops).
	Seed int64
	// Regions is the number of regions; nodes are assigned on Register.
	Regions int
	// BaseLatency[i][j] is the one-way propagation delay between regions
	// i and j. Must be Regions×Regions.
	BaseLatency [][]time.Duration
	// Jitter is the maximum uniform extra delay added per message.
	Jitter time.Duration
	// BandwidthBps is per-link bandwidth in bytes/second, charged for
	// each delivery's frame; 0 disables serialization delay.
	BandwidthBps float64
	// SendCost models per-message CPU time at the sender (serialization,
	// signing): a node's sends are serialized on its CPU, so an n-wide
	// broadcast occupies the sender for n×SendCost. Nil = free.
	SendCost func(msg any) time.Duration
	// RecvCost models per-message CPU time at the receiver (signature
	// verification, handling). A node processes arrivals serially; this
	// is what makes quadratic protocols saturate replicas at scale — the
	// effect behind the paper's Figure 2 (see DESIGN.md). Nil = free.
	RecvCost func(msg any) time.Duration
}

// AnyNode is a wildcard endpoint for link-fault rules: a rule keyed with
// AnyNode on one side applies to every node on that side.
const AnyNode NodeID = -1

// LinkFault describes adversarial behavior injected on a directed link
// (the chaos harness's per-link drop/duplicate/reorder windows).
type LinkFault struct {
	// Drop is the probability a message on the link is silently dropped.
	Drop float64
	// Duplicate is the probability a message is delivered twice; the
	// copy takes an independent jittered delay, so duplicates also
	// arrive reordered relative to the original.
	Duplicate float64
	// ReorderJitter adds a uniform random extra delay in [0,ReorderJitter)
	// per message, scrambling delivery order on the link.
	ReorderJitter time.Duration
	// ExtraDelay is a fixed additional delay (link degradation).
	ExtraDelay time.Duration
}

// zero reports whether the fault injects nothing.
func (f LinkFault) zero() bool {
	return f.Drop == 0 && f.Duplicate == 0 && f.ReorderJitter == 0 && f.ExtraDelay == 0
}

// Injection is one delivery produced by a Corrupter in place of an
// intercepted send. To may differ from the original recipient (redirect),
// Msg may differ from the original payload (mutation, equivocation), and
// Delay postpones the delivery relative to normal send timing (replay of
// stale messages).
type Injection struct {
	To    NodeID
	Msg   any
	Delay time.Duration
}

// Corrupter models a Byzantine node at the boundary between the process
// and the wire: the protocol engine stays honest, but every outbound
// message passes through the corrupter, which decides what actually goes
// on the network. Returning nil suppresses the message (silent-but-alive
// replica), a single unchanged entry passes it through, several entries
// replay or multicast it, and per-recipient payload differences
// equivocate. Corrupt runs on the simulator's single logical thread, at
// the virtual time of the send.
type Corrupter interface {
	Corrupt(to NodeID, msg any) []Injection
}

// CorruptFunc adapts a function to the Corrupter interface.
type CorruptFunc func(to NodeID, msg any) []Injection

// Corrupt implements Corrupter.
func (f CorruptFunc) Corrupt(to NodeID, msg any) []Injection {
	return f(to, msg)
}

// PassThrough is the identity injection list for an intercepted send:
// deliver the original message to the original recipient unchanged.
func PassThrough(to NodeID, msg any) []Injection {
	return []Injection{{To: to, Msg: msg}}
}

// Network delivers messages between registered nodes over the modeled WAN.
type Network struct {
	sched    *Scheduler
	cfg      Config
	handlers map[NodeID]Handler
	regionOf map[NodeID]int
	crashed  map[NodeID]bool
	straggle map[NodeID]time.Duration
	partOf   map[NodeID]int           // partition group; groups can't talk
	busy     map[NodeID]time.Duration // CPU-busy horizon per node
	faults   map[[2]NodeID]LinkFault  // directed link → injected fault
	corrupt  map[NodeID]Corrupter     // Byzantine outbound interception
	observe  map[NodeID]Observer      // compromised-process inbound taps
	buf      []byte                   // encoding scratch, cloned per frame

	// Stats.
	MsgsSent      uint64
	MsgsDropped   uint64
	MsgsDuped     uint64
	BytesSent     uint64
	MsgsCorrupted uint64 // sends intercepted by a Corrupter
}

// NewNetwork builds a network over a scheduler.
func NewNetwork(sched *Scheduler, cfg Config) (*Network, error) {
	if cfg.Regions <= 0 {
		return nil, fmt.Errorf("sim: Regions must be positive")
	}
	if len(cfg.BaseLatency) != cfg.Regions {
		return nil, fmt.Errorf("sim: BaseLatency is %d rows, want %d", len(cfg.BaseLatency), cfg.Regions)
	}
	for i, row := range cfg.BaseLatency {
		if len(row) != cfg.Regions {
			return nil, fmt.Errorf("sim: BaseLatency row %d has %d cols, want %d", i, len(row), cfg.Regions)
		}
	}
	return &Network{
		sched:    sched,
		cfg:      cfg,
		handlers: make(map[NodeID]Handler),
		regionOf: make(map[NodeID]int),
		crashed:  make(map[NodeID]bool),
		straggle: make(map[NodeID]time.Duration),
		partOf:   make(map[NodeID]int),
		busy:     make(map[NodeID]time.Duration),
		faults:   make(map[[2]NodeID]LinkFault),
		corrupt:  make(map[NodeID]Corrupter),
		observe:  make(map[NodeID]Observer),
	}, nil
}

// Register attaches a handler for a node placed in a region.
func (n *Network) Register(id NodeID, region int, h Handler) error {
	if region < 0 || region >= n.cfg.Regions {
		return fmt.Errorf("sim: region %d out of range [0,%d)", region, n.cfg.Regions)
	}
	if _, dup := n.handlers[id]; dup {
		return fmt.Errorf("sim: node %d already registered", id)
	}
	n.handlers[id] = h
	n.regionOf[id] = region
	return nil
}

// Reattach replaces the handler of an already-registered node, keeping its
// region. It is the restart hook: a replica rebuilt from storage takes over
// its predecessor's network identity. Messages already in flight to the
// node deliver to the new handler.
func (n *Network) Reattach(id NodeID, h Handler) error {
	if _, ok := n.handlers[id]; !ok {
		return fmt.Errorf("sim: node %d not registered", id)
	}
	n.handlers[id] = h
	return nil
}

// Crash marks a node as crashed: it neither sends nor receives.
func (n *Network) Crash(id NodeID) { n.crashed[id] = true }

// Recover clears the crash flag.
func (n *Network) Recover(id NodeID) { delete(n.crashed, id) }

// Crashed reports whether a node is crashed.
func (n *Network) Crashed(id NodeID) bool { return n.crashed[id] }

// SetStraggler adds a fixed extra delay to every message to or from id,
// modeling the paper's slow replicas (ingredient 4 evaluation).
func (n *Network) SetStraggler(id NodeID, extra time.Duration) {
	if extra <= 0 {
		delete(n.straggle, id)
		return
	}
	n.straggle[id] = extra
}

// SetPartition places a node into a partition group; messages between
// different non-zero groups are dropped. Group 0 talks to everyone.
func (n *Network) SetPartition(id NodeID, group int) {
	if group == 0 {
		delete(n.partOf, id)
		return
	}
	n.partOf[id] = group
}

// HealPartitions returns every node to partition group 0.
func (n *Network) HealPartitions() {
	n.partOf = make(map[NodeID]int)
}

// SetLinkFault installs a fault rule on the directed link from → to.
// Either endpoint may be AnyNode as a wildcard. A zero fault clears the
// rule. The most specific rule wins: (from,to) before (from,Any) before
// (Any,to).
func (n *Network) SetLinkFault(from, to NodeID, f LinkFault) {
	key := [2]NodeID{from, to}
	if f.zero() {
		delete(n.faults, key)
		return
	}
	n.faults[key] = f
}

// ClearLinkFaults removes every link-fault rule.
func (n *Network) ClearLinkFaults() {
	n.faults = make(map[[2]NodeID]LinkFault)
}

// linkFaultFor resolves the active fault rule for a directed link.
func (n *Network) linkFaultFor(from, to NodeID) (LinkFault, bool) {
	if len(n.faults) == 0 {
		return LinkFault{}, false
	}
	for _, key := range [...][2]NodeID{{from, to}, {from, AnyNode}, {AnyNode, to}, {AnyNode, AnyNode}} {
		if f, ok := n.faults[key]; ok {
			return f, true
		}
	}
	return LinkFault{}, false
}

// Latency returns the modeled one-way delay for a message of `size` bytes
// from one node to another, excluding jitter.
func (n *Network) Latency(from, to NodeID, size int) time.Duration {
	d := n.cfg.BaseLatency[n.regionOf[from]][n.regionOf[to]]
	if n.cfg.BandwidthBps > 0 {
		d += time.Duration(float64(size) / n.cfg.BandwidthBps * float64(time.Second))
	}
	d += n.straggle[from] + n.straggle[to]
	return d
}

// SetCorrupter installs a Byzantine outbound interceptor on a node; every
// subsequent Send from that node is replaced by whatever the corrupter
// returns. A nil corrupter clears the interception (the node's outbound
// traffic is honest again; its internal state was never touched).
func (n *Network) SetCorrupter(id NodeID, c Corrupter) {
	if c == nil {
		delete(n.corrupt, id)
		return
	}
	n.corrupt[id] = c
}

// Corrupted reports whether a node currently has a corrupter installed.
func (n *Network) Corrupted(id NodeID) bool { return n.corrupt[id] != nil }

// Observer is a read-only inbound wiretap on a node: it sees every message
// the node receives, at arrival time, before the node's handler runs.
// Corrupters model a compromised process at its outbound boundary; the
// observer is the inbound half of the same compromise — a colluding
// adversary that extracts what the victim process learns (e.g. threshold
// signature shares addressed to a corrupted collector). Observers must not
// mutate the message.
type Observer func(from NodeID, msg any)

// SetObserver installs (or, with nil, clears) the inbound wiretap on a
// node. Observation runs at delivery time even while the message is still
// queued behind the receiver's CPU — the wire is tapped, not the handler.
func (n *Network) SetObserver(id NodeID, o Observer) {
	if o == nil {
		delete(n.observe, id)
		return
	}
	n.observe[id] = o
}

// Inject sends a fabricated message from → to through the physical network
// model, bypassing any corrupter on the sender. It is the adversary's raw
// transmit path: a colluder coordinator uses it to emit jointly-forged
// artifacts (combined threshold signatures) as one of its members. The
// injection is still subject to crash, partition, link-fault, CPU-cost and
// latency modeling, so forged traffic competes with honest traffic on
// equal footing.
func (n *Network) Inject(from, to NodeID, msg any) {
	n.sendRaw(from, to, msg, 0)
}

// Send schedules delivery of msg from → to. If the sender has a Corrupter
// installed, the corrupter's injections are sent instead (each subject to
// the same crash/partition/link-fault model; injections do not re-enter
// the corrupter).
func (n *Network) Send(from, to NodeID, msg any) {
	if c := n.corrupt[from]; c != nil && !n.crashed[from] {
		n.MsgsCorrupted++
		for _, inj := range c.Corrupt(to, msg) {
			n.sendRaw(from, inj.To, inj.Msg, inj.Delay)
		}
		return
	}
	n.sendRaw(from, to, msg, 0)
}

// sendRaw is the physical send path: the network model applied to one
// delivery, bypassing any corrupter on the sender. It travels as the frame
// a deployment would write to its socket, and is charged that length.
func (n *Network) sendRaw(from, to NodeID, msg any, extra time.Duration) {
	if n.crashed[from] || n.crashed[to] {
		n.MsgsDropped++
		return
	}
	if gf, gt := n.partOf[from], n.partOf[to]; gf != 0 && gt != 0 && gf != gt {
		n.MsgsDropped++
		return
	}
	fault, faulty := n.linkFaultFor(from, to)
	if faulty && fault.Drop > 0 && n.sched.rng.Float64() < fault.Drop {
		n.MsgsDropped++
		return
	}
	b, err := wire.AppendFrame(n.buf[:0], int(from), msg)
	if err != nil {
		panic(fmt.Sprintf("sim: encoding %T: %v", msg, err))
	}
	n.buf = b
	frame := slices.Clone(b) // a decoded message aliases its frame
	n.MsgsSent++
	n.BytesSent += uint64(len(frame))

	// Sender CPU: sends serialize on the sender, so a broadcast's k-th
	// message departs after k send costs.
	now := n.sched.Now()
	departure := now
	if n.cfg.SendCost != nil {
		if n.busy[from] > departure {
			departure = n.busy[from]
		}
		departure += n.cfg.SendCost(msg)
		n.busy[from] = departure
	}

	base := departure - now + n.Latency(from, to, len(frame)) + extra
	if faulty {
		base += fault.ExtraDelay
	}
	n.scheduleDelivery(from, to, msg, frame, n.perturb(base, fault, faulty))
	if faulty && fault.Duplicate > 0 && n.sched.rng.Float64() < fault.Duplicate {
		// The copy takes an independent jittered delay: duplicated AND
		// possibly reordered relative to the original. It is a frame of
		// its own, as a second copy read off a socket would be.
		n.MsgsDuped++
		n.scheduleDelivery(from, to, msg, slices.Clone(frame), n.perturb(base, fault, faulty))
	}
}

// perturb adds the configured network jitter plus any link reorder jitter
// to a base delay.
func (n *Network) perturb(d time.Duration, fault LinkFault, faulty bool) time.Duration {
	if n.cfg.Jitter > 0 {
		d += time.Duration(n.sched.rng.Int63n(int64(n.cfg.Jitter)))
	}
	if faulty && fault.ReorderJitter > 0 {
		d += time.Duration(n.sched.rng.Int63n(int64(fault.ReorderJitter)))
	}
	return d
}

// scheduleDelivery schedules one delivery attempt of a frame after delay
// d, decoding it and applying receiver crash state and CPU cost at
// delivery time. sent names the type if decoding fails.
func (n *Network) scheduleDelivery(from, to NodeID, sent any, frame []byte, d time.Duration) {
	n.sched.Schedule(d, func() {
		if n.crashed[to] {
			return
		}
		h, ok := n.handlers[to]
		if !ok {
			return
		}
		_, msg, err := wire.Decode(frame[4:])
		if err != nil {
			panic(fmt.Sprintf("sim: decoding %T from %d: %v", sent, from, err))
		}
		if o := n.observe[to]; o != nil {
			o(from, msg)
		}
		if n.cfg.RecvCost == nil {
			h.Deliver(from, msg)
			return
		}
		// Receiver CPU: arrivals queue behind the node's busy horizon.
		start := n.sched.Now()
		if n.busy[to] > start {
			start = n.busy[to]
		}
		fin := start + n.cfg.RecvCost(msg)
		n.busy[to] = fin
		n.sched.Schedule(fin-n.sched.Now(), func() {
			if n.crashed[to] {
				return
			}
			h.Deliver(from, msg)
		})
	})
}

// Scheduler exposes the underlying scheduler (for timers).
func (n *Network) Scheduler() *Scheduler { return n.sched }
