// Package pbft implements the paper's baseline: a scale-optimized PBFT
// (Castro & Liskov, OSDI '99) with the classic quadratic all-to-all
// prepare and commit phases and f+1 direct client replies. SBFT's
// evaluation (§IX) measures each of its four ingredients against this
// baseline; the cluster harness runs both engines under identical network
// models and workloads.
//
// The implementation reuses the core package's Request/Reply messages and
// Env abstraction so clients and harnesses are shared. n = 3f + 1.
package pbft

import (
	"fmt"
	"sort"
	"time"

	"sbft/internal/core"
)

// Config parameterizes a PBFT deployment of n = 3f + 1 replicas.
type Config struct {
	F                  int
	Win                uint64
	Batch              int
	BatchTimeout       time.Duration
	ViewChangeTimeout  time.Duration
	CheckpointInterval uint64
	// GapRepairTimeout is how long a replica waits on an execution gap
	// before asking peers to retransmit the missing decision (the §II
	// re-transmit layer; what lets a restarted-from-storage replica catch
	// up). Zero disables repair.
	GapRepairTimeout time.Duration
}

// DefaultConfig mirrors the SBFT defaults for a fair comparison.
func DefaultConfig(f int) Config {
	return Config{
		F:                 f,
		Win:               256,
		Batch:             64,
		BatchTimeout:      20 * time.Millisecond,
		ViewChangeTimeout: 2 * time.Second,
		GapRepairTimeout:  250 * time.Millisecond,
	}
}

// Validate checks invariants.
func (c Config) Validate() error {
	if c.F < 1 {
		return fmt.Errorf("pbft: F must be ≥ 1, got %d", c.F)
	}
	if c.Win < 4 {
		return fmt.Errorf("pbft: Win must be ≥ 4")
	}
	if c.Batch < 1 {
		return fmt.Errorf("pbft: Batch must be ≥ 1")
	}
	return nil
}

// N is 3f + 1.
func (c Config) N() int { return 3*c.F + 1 }

// Quorum is 2f + 1.
func (c Config) Quorum() int { return 2*c.F + 1 }

// Primary is the round-robin primary of a view.
func (c Config) Primary(view uint64) int { return int(view%uint64(c.N())) + 1 }

func (c Config) checkpointEvery() uint64 {
	if c.CheckpointInterval > 0 {
		return c.CheckpointInterval
	}
	return c.Win / 2
}

// PrePrepareMsg is PBFT's ⟨PRE-PREPARE, v, n, m⟩.
type PrePrepareMsg struct {
	Seq  uint64
	View uint64
	Reqs []core.Request
}

// PrepareMsg is ⟨PREPARE, v, n, d, i⟩, broadcast all-to-all.
type PrepareMsg struct {
	Seq     uint64
	View    uint64
	Hash    core.Digest
	Replica int
}

// CommitMsg is ⟨COMMIT, v, n, d, i⟩, broadcast all-to-all.
type CommitMsg struct {
	Seq     uint64
	View    uint64
	Hash    core.Digest
	Replica int
}

// CheckpointMsg is ⟨CHECKPOINT, n, d, i⟩.
type CheckpointMsg struct {
	Seq     uint64
	Digest  []byte
	Replica int
}

// PreparedProof summarizes a prepared certificate in a view change
// (sender authenticity comes from the channel; the deployment model signs
// messages, §IX).
type PreparedProof struct {
	Seq  uint64
	View uint64
	Hash core.Digest
	Reqs []core.Request
}

// ViewChangeMsg is ⟨VIEW-CHANGE, v+1, n, C, P, i⟩ (C omitted: stable
// checkpoints are re-proven via CheckpointMsg gossip).
type ViewChangeMsg struct {
	NewView    uint64
	LastStable uint64
	Prepared   []PreparedProof
	Replica    int
}

// NewViewMsg is ⟨NEW-VIEW, v+1, V, O⟩.
type NewViewMsg struct {
	View        uint64
	ViewChanges []ViewChangeMsg
	PrePrepares []PrePrepareMsg
}

// FetchCommitMsg asks peers to retransmit the decision at a sequence
// number (the §II re-transmit layer, needed once restart-from-storage can
// rejoin a replica whose log trails the cluster).
type FetchCommitMsg struct {
	Replica int
	Seq     uint64
}

// CommitInfoMsg retransmits a committed decision block. PBFT's baseline
// certificates are per-sender channel-authenticated rather than
// self-contained, so a catching-up replica adopts a block only once f+1
// distinct peers retransmit an identical one (at least one is honest).
type CommitInfoMsg struct {
	Seq     uint64
	Replica int
	Reqs    []core.Request
}

type slot struct {
	seq      uint64
	view     uint64
	hasPP    bool
	reqs     []core.Request
	hash     core.Digest
	prepares map[int]bool
	commits  map[int]bool
	prepared bool
	// preparedView/Reqs retain the highest prepared certificate across
	// views for the view-change P set.
	preparedView uint64
	preparedReqs []core.Request
	preparedHash core.Digest
	hasPrepared  bool
	committed    bool
	executed     bool
	sentPrepare  bool
	sentCommit   bool
	// pendingPrepares/pendingCommits buffer messages that raced ahead of
	// this replica's pre-prepare or view entry; replayed by
	// acceptPrePrepare. Without this, an exact quorum (all alive replicas)
	// livelocks on view-entry races at scale.
	pendingPrepares []PrepareMsg
	pendingCommits  []CommitMsg
}

// Metrics mirrors core.Metrics for the shared harness.
type Metrics struct {
	Commits     uint64
	Executions  uint64
	ViewChanges uint64
	Checkpoints uint64
	GapRepairs  uint64
}

// Replica is a PBFT replica event machine; drive it exactly like
// core.Replica.
type Replica struct {
	id    int
	cfg   Config
	app   core.Application
	env   core.Env
	store core.BlockStore // nil disables persistence

	view         uint64
	inViewChange bool
	lastStable   uint64
	lastExecuted uint64
	slots        map[uint64]*slot

	pending    []core.Request
	seen       map[int]uint64
	nextSeq    uint64
	batchTimer func()

	replyCache map[int]replyEntry
	watch      map[int]uint64

	ckpts map[uint64]map[int]string

	vcMsgs        map[uint64]map[int]*ViewChangeMsg
	vcBackoff     uint64
	progressTimer func()
	vcTimer       func()

	// ppBuffer holds pre-prepares that arrived from a future view's
	// primary before this replica installed that view (the new primary's
	// first proposals race its NEW-VIEW broadcast on jittery links);
	// replayed on view installation.
	ppBuffer map[uint64][]PrePrepareMsg

	// Gap repair (catch-up after restart-from-storage): votes collects
	// per-sequence retransmitted blocks keyed by block identity; a block
	// is adopted at f+1 matching retransmissions.
	gapTimer    func()
	behindHint  bool // saw traffic suggesting the cluster is ahead of us
	fruitless   int
	lastFetchAt uint64
	fetchVotes  map[uint64]map[string]map[int]bool
	fetchReqs   map[uint64]map[string][]core.Request

	Metrics Metrics
}

type replyEntry struct {
	timestamp uint64
	seq       uint64
	l         int
	val       []byte
}

// NewReplica constructs a PBFT replica. store persists committed blocks
// for restart-from-storage (nil disables persistence).
func NewReplica(id int, cfg Config, app core.Application, env core.Env, store core.BlockStore) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 1 || id > cfg.N() {
		return nil, fmt.Errorf("pbft: replica id %d out of range [1,%d]", id, cfg.N())
	}
	return &Replica{
		id:         id,
		cfg:        cfg,
		app:        app,
		env:        env,
		store:      store,
		slots:      make(map[uint64]*slot),
		seen:       make(map[int]uint64),
		nextSeq:    1,
		replyCache: make(map[int]replyEntry),
		watch:      make(map[int]uint64),
		ckpts:      make(map[uint64]map[int]string),
		vcMsgs:     make(map[uint64]map[int]*ViewChangeMsg),
		ppBuffer:   make(map[uint64][]PrePrepareMsg),
		fetchVotes: make(map[uint64]map[string]map[int]bool),
		fetchReqs:  make(map[uint64]map[string][]core.Request),
	}, nil
}

// ID reports the replica id.
func (r *Replica) ID() int { return r.id }

// View reports the current view.
func (r *Replica) View() uint64 { return r.view }

// LastExecuted reports the execution frontier.
func (r *Replica) LastExecuted() uint64 { return r.lastExecuted }

func (r *Replica) isPrimary() bool { return r.cfg.Primary(r.view) == r.id }

func (r *Replica) getSlot(seq uint64) *slot {
	s, ok := r.slots[seq]
	if !ok {
		s = &slot{seq: seq, prepares: make(map[int]bool), commits: make(map[int]bool)}
		r.slots[seq] = s
	}
	return s
}

func (r *Replica) broadcast(msg core.Message) {
	for i := 1; i <= r.cfg.N(); i++ {
		if i != r.id {
			r.env.Send(i, msg)
		}
	}
}

// Deliver dispatches an incoming message.
func (r *Replica) Deliver(from int, msg any) {
	switch m := msg.(type) {
	case core.RequestMsg:
		r.onRequest(from, m)
	case PrePrepareMsg:
		r.onPrePrepare(from, m)
	case PrepareMsg:
		r.onPrepare(from, m)
	case CommitMsg:
		r.onCommit(from, m)
	case CheckpointMsg:
		r.onCheckpoint(from, m)
	case FetchCommitMsg:
		r.onFetchCommit(from, m)
	case CommitInfoMsg:
		r.onCommitInfo(from, m)
	case ViewChangeMsg:
		r.onViewChange(from, m)
	case NewViewMsg:
		r.onNewView(from, m)
	}
}

func (r *Replica) onRequest(from int, m core.RequestMsg) {
	req := m.Req
	if ent, ok := r.replyCache[req.Client]; ok && ent.timestamp >= req.Timestamp {
		if ent.timestamp == req.Timestamp {
			r.env.Send(req.Client, core.ReplyMsg{
				Seq: ent.seq, L: ent.l, Replica: r.id, View: r.view,
				Client: req.Client, Timestamp: ent.timestamp, Val: ent.val,
			})
		}
		return
	}
	if ts := r.watch[req.Client]; ts < req.Timestamp {
		r.watch[req.Client] = req.Timestamp
	}
	if !r.isPrimary() {
		if core.IsClient(from) {
			r.env.Send(r.cfg.Primary(r.view), m)
		}
		r.notePending(req)
		r.armProgressTimer()
		return
	}
	r.notePending(req)
	r.armProgressTimer()
	r.proposeIfReady(false)
}

func (r *Replica) notePending(req core.Request) {
	if ts, ok := r.seen[req.Client]; ok && ts >= req.Timestamp {
		return
	}
	r.seen[req.Client] = req.Timestamp
	r.pending = append(r.pending, req)
	r.armBatchTimer()
}

// armBatchTimer ensures pending-but-unproposed requests cannot starve.
func (r *Replica) armBatchTimer() {
	if !r.isPrimary() || len(r.pending) == 0 || r.batchTimer != nil || r.cfg.BatchTimeout <= 0 {
		return
	}
	r.batchTimer = r.env.After(r.cfg.BatchTimeout, func() {
		r.batchTimer = nil
		r.proposeIfReady(true)
	})
}

func (r *Replica) outstanding() uint64 {
	var n uint64
	for seq := r.lastStable + 1; seq < r.nextSeq; seq++ {
		if s, ok := r.slots[seq]; !ok || !s.committed {
			n++
		}
	}
	return n
}

func (r *Replica) proposeIfReady(timerFired bool) {
	if !r.isPrimary() || r.inViewChange {
		return
	}
	defer r.armBatchTimer()
	for {
		if len(r.pending) == 0 {
			return
		}
		if !timerFired && len(r.pending) < r.cfg.Batch {
			return
		}
		if r.outstanding() >= r.cfg.Win/2 || r.nextSeq > r.lastStable+r.cfg.Win {
			return
		}
		batch := r.cfg.Batch
		if len(r.pending) < batch {
			batch = len(r.pending)
		}
		reqs := make([]core.Request, batch)
		copy(reqs, r.pending[:batch])
		r.pending = r.pending[batch:]
		seq := r.nextSeq
		r.nextSeq++
		pp := PrePrepareMsg{Seq: seq, View: r.view, Reqs: reqs}
		r.broadcast(pp)
		r.acceptPrePrepare(pp)
		timerFired = false
	}
}

func (r *Replica) onPrePrepare(from int, m PrePrepareMsg) {
	if m.View != r.view || r.inViewChange {
		// A future view's primary may propose before our NEW-VIEW arrives
		// (its first pre-prepares race the install on jittery links):
		// buffer and replay at installation instead of dropping. Bounded
		// to one primary rotation of future views and one entry per
		// sequence, so neither a Byzantine future-primary nor a
		// duplicating link can exhaust the buffer.
		if m.View >= r.view && m.View <= r.view+uint64(r.cfg.N()) &&
			from == r.cfg.Primary(m.View) {
			r.bufferPP(m)
		} else if m.View > r.view+uint64(r.cfg.N()) {
			// More than a primary rotation ahead: this replica (likely
			// restarted from storage) missed whole views and cannot learn
			// them from NEW-VIEW replays. Catch up on committed blocks
			// through gap repair; a future genuine view change resyncs
			// the view number.
			r.noteBehind()
		}
		return
	}
	if from != r.cfg.Primary(r.view) {
		return
	}
	if m.Seq <= r.lastStable || m.Seq <= r.lastExecuted || m.Seq > r.lastStable+r.cfg.Win {
		if m.Seq > r.lastStable+r.cfg.Win && m.Seq > r.lastExecuted+r.cfg.Win {
			r.noteBehind()
		}
		return
	}
	s := r.getSlot(m.Seq)
	if s.hasPP && s.view == m.View {
		return
	}
	r.acceptPrePrepare(m)
}

// bufferPP stores a racing pre-prepare for replay at view installation,
// capped at Win entries per view with one entry per sequence (duplicated
// deliveries must not evict distinct sequences).
func (r *Replica) bufferPP(m PrePrepareMsg) {
	buf := r.ppBuffer[m.View]
	for _, b := range buf {
		if b.Seq == m.Seq {
			return
		}
	}
	if uint64(len(buf)) < r.cfg.Win {
		r.ppBuffer[m.View] = append(buf, m)
	}
}

func (r *Replica) acceptPrePrepare(m PrePrepareMsg) {
	s := r.getSlot(m.Seq)
	s.hasPP = true
	s.view = m.View
	s.reqs = m.Reqs
	s.hash = core.BlockHash(m.Seq, m.View, m.Reqs)
	for _, req := range m.Reqs {
		if ts := r.seen[req.Client]; ts < req.Timestamp {
			r.seen[req.Client] = req.Timestamp
		}
	}
	if s.committed {
		return
	}
	r.armProgressTimer()
	if !s.sentPrepare {
		s.sentPrepare = true
		msg := PrepareMsg{Seq: m.Seq, View: m.View, Hash: s.hash, Replica: r.id}
		r.broadcast(msg)
		r.onPrepare(r.id, msg)
	}
	// Replay messages that raced ahead of this pre-prepare or view entry.
	if len(s.pendingPrepares) > 0 {
		buf := s.pendingPrepares
		s.pendingPrepares = nil
		for _, pm := range buf {
			r.onPrepare(pm.Replica, pm)
		}
	}
	if len(s.pendingCommits) > 0 {
		buf := s.pendingCommits
		s.pendingCommits = nil
		for _, cm := range buf {
			r.onCommit(cm.Replica, cm)
		}
	}
}

func (r *Replica) onPrepare(_ int, m PrepareMsg) {
	if m.View < r.view {
		return
	}
	s := r.getSlot(m.Seq)
	if m.View > r.view || r.inViewChange || !s.hasPP || s.view != m.View {
		if len(s.pendingPrepares) < 2*r.cfg.N() {
			s.pendingPrepares = append(s.pendingPrepares, m)
		}
		return
	}
	if s.hash != m.Hash {
		return
	}
	s.prepares[m.Replica] = true
	// Prepared: pre-prepare + 2f prepares from distinct replicas
	// (counting our own share of the broadcast).
	if !s.prepared && len(s.prepares) >= r.cfg.Quorum() {
		s.prepared = true
		s.hasPrepared = true
		s.preparedView = m.View
		s.preparedReqs = s.reqs
		s.preparedHash = s.hash
		if !s.sentCommit {
			s.sentCommit = true
			msg := CommitMsg{Seq: m.Seq, View: m.View, Hash: s.hash, Replica: r.id}
			r.broadcast(msg)
			r.onCommit(r.id, msg)
		}
	}
}

func (r *Replica) onCommit(_ int, m CommitMsg) {
	if m.View < r.view {
		return
	}
	s := r.getSlot(m.Seq)
	if m.View > r.view || r.inViewChange || !s.hasPP || s.view != m.View {
		if len(s.pendingCommits) < 2*r.cfg.N() {
			s.pendingCommits = append(s.pendingCommits, m)
		}
		return
	}
	if s.hash != m.Hash {
		return
	}
	s.commits[m.Replica] = true
	if !s.committed && s.prepared && len(s.commits) >= r.cfg.Quorum() {
		r.commit(s, s.reqs)
	}
}

func (r *Replica) commit(s *slot, reqs []core.Request) {
	if s.committed {
		return
	}
	s.committed = true
	s.reqs = reqs
	r.Metrics.Commits++
	r.executeReady()
	r.armProgressTimer()
	r.armGapTimer()
}

func (r *Replica) executeReady() {
	advanced := false
	defer func() {
		if advanced {
			r.resetProgressTimer()
		}
	}()
	for {
		next := r.lastExecuted + 1
		s, ok := r.slots[next]
		if !ok || !s.committed || s.executed {
			return
		}
		advanced = true
		delete(r.fetchVotes, next)
		delete(r.fetchReqs, next)
		// Exactly-once: skip requests whose client already saw an equal or
		// newer execution (re-proposed across a view change or retried).
		exec := s.reqs[:0:0]
		for _, req := range s.reqs {
			if ent, ok := r.replyCache[req.Client]; ok && ent.timestamp >= req.Timestamp {
				continue
			}
			dup := false
			for _, e := range exec {
				if e.Client == req.Client && e.Timestamp >= req.Timestamp {
					dup = true
					break
				}
			}
			if !dup {
				exec = append(exec, req)
			}
		}
		ops := make([][]byte, len(exec))
		for i, req := range exec {
			ops[i] = req.Op
		}
		results := r.app.ExecuteBlock(next, ops)
		s.executed = true
		r.lastExecuted = next
		r.Metrics.Executions++
		if r.store != nil {
			if err := r.store.Append(next, core.EncodeBlockPayload(exec, results)); err != nil {
				// Persistence is best-effort in-simulation; the replica
				// keeps serving from memory (matching core.Replica).
				_ = err
			}
		}
		for i, req := range exec {
			r.replyCache[req.Client] = replyEntry{timestamp: req.Timestamp, seq: next, l: i, val: results[i]}
			if ts, ok := r.watch[req.Client]; ok && ts <= req.Timestamp {
				delete(r.watch, req.Client)
			}
			// Every replica replies; the client waits for f+1 (§V-A of
			// the SBFT paper describes this as the classic behavior).
			r.env.Send(req.Client, core.ReplyMsg{
				Seq: next, L: i, Replica: r.id, View: r.view,
				Client: req.Client, Timestamp: req.Timestamp, Val: results[i],
			})
		}
		if len(r.pending) > 0 {
			kept := r.pending[:0]
			for _, req := range r.pending {
				if ent, ok := r.replyCache[req.Client]; ok && ent.timestamp >= req.Timestamp {
					continue
				}
				kept = append(kept, req)
			}
			r.pending = kept
		}
		if next%r.cfg.checkpointEvery() == 0 {
			msg := CheckpointMsg{Seq: next, Digest: r.app.Digest(), Replica: r.id}
			r.broadcast(msg)
			r.onCheckpoint(r.id, msg)
		}
	}
}

func (r *Replica) onCheckpoint(_ int, m CheckpointMsg) {
	if m.Seq <= r.lastStable {
		return
	}
	if r.ckpts[m.Seq] == nil {
		r.ckpts[m.Seq] = make(map[int]string)
	}
	r.ckpts[m.Seq][m.Replica] = string(m.Digest)
	// Stable when 2f+1 matching digests are known.
	count := make(map[string]int)
	for _, d := range r.ckpts[m.Seq] {
		count[d]++
	}
	for _, c := range count {
		if c >= r.cfg.Quorum() {
			r.Metrics.Checkpoints++
			r.lastStable = m.Seq
			if r.lastExecuted >= m.Seq {
				r.app.GarbageCollect(m.Seq)
			}
			// Drop slot state below the stable point — but never ahead of
			// local execution, or committed-but-unexecuted blocks on a
			// lagging replica would be lost before it catches up.
			gcTo := m.Seq
			if r.lastExecuted < gcTo {
				gcTo = r.lastExecuted
			}
			for seq := range r.slots {
				if seq <= gcTo {
					delete(r.slots, seq)
				}
			}
			for seq := range r.ckpts {
				if seq <= m.Seq {
					delete(r.ckpts, seq)
				}
			}
			if r.lastStable > r.lastExecuted {
				r.armGapTimer()
			}
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Gap repair / restart catch-up (§II re-transmit layer).

// noteBehind records evidence that the cluster has moved past this
// replica (pre-prepares from views or sequences far ahead) and arms the
// repair timer. A replica restarted from storage rejoins here: committed
// blocks are fetched from peers even while its view number trails.
func (r *Replica) noteBehind() {
	r.behindHint = true
	r.armGapTimer()
}

// hasGap reports whether execution is stalled behind committed progress.
func (r *Replica) hasGap() bool {
	next := r.lastExecuted + 1
	if s, ok := r.slots[next]; ok && s.committed {
		return false // executeReady will handle it
	}
	for seq, s := range r.slots {
		if seq > next && s.committed {
			return true
		}
	}
	return r.behindHint || r.lastStable > r.lastExecuted
}

// armGapTimer schedules a repair round if none is pending. Rounds that
// repeatedly adopt nothing drop the behind hint so an idle replica
// quiesces; genuine gaps (committed slots above the frontier) keep the
// timer armed, and fresh future-view traffic re-hints.
func (r *Replica) armGapTimer() {
	if r.gapTimer != nil || r.cfg.GapRepairTimeout <= 0 || !r.hasGap() {
		return
	}
	r.gapTimer = r.env.After(r.cfg.GapRepairTimeout, func() {
		r.gapTimer = nil
		if !r.hasGap() {
			r.fruitless = 0
			return
		}
		if r.lastExecuted == r.lastFetchAt {
			r.fruitless++
		} else {
			r.fruitless = 0
		}
		r.lastFetchAt = r.lastExecuted
		if r.fruitless >= 4 {
			r.behindHint = false
			r.fruitless = 0
			if !r.hasGap() {
				return
			}
		}
		r.broadcast(FetchCommitMsg{Replica: r.id, Seq: r.lastExecuted + 1})
		r.armGapTimer()
	})
}

// onFetchCommit serves a small batch of committed blocks starting at the
// requested sequence.
func (r *Replica) onFetchCommit(from int, m FetchCommitMsg) {
	if from != m.Replica || m.Replica == r.id {
		return
	}
	for seq, sent := m.Seq, 0; sent < 8; seq, sent = seq+1, sent+1 {
		s, ok := r.slots[seq]
		if !ok || !s.committed {
			return
		}
		r.env.Send(m.Replica, CommitInfoMsg{Seq: seq, Replica: r.id, Reqs: s.reqs})
	}
}

// blockIdent is a view-independent identity for a retransmitted block.
func blockIdent(seq uint64, reqs []core.Request) string {
	h := core.BlockHash(seq, 0, reqs)
	return string(h[:])
}

// onCommitInfo adopts a retransmitted block once f+1 distinct peers sent
// an identical one (at least one of them is honest; PBFT's baseline
// certificates are channel-authenticated, not self-contained).
func (r *Replica) onCommitInfo(from int, m CommitInfoMsg) {
	if from != m.Replica || m.Seq <= r.lastExecuted {
		return
	}
	if m.Seq > r.lastExecuted+r.cfg.Win {
		return // bound the vote table against far-future spam
	}
	if s, ok := r.slots[m.Seq]; ok && s.committed {
		return
	}
	key := blockIdent(m.Seq, m.Reqs)
	if r.fetchVotes[m.Seq] == nil {
		r.fetchVotes[m.Seq] = make(map[string]map[int]bool)
		r.fetchReqs[m.Seq] = make(map[string][]core.Request)
	}
	if r.fetchVotes[m.Seq][key] == nil {
		r.fetchVotes[m.Seq][key] = make(map[int]bool)
		r.fetchReqs[m.Seq][key] = m.Reqs
	}
	r.fetchVotes[m.Seq][key][m.Replica] = true
	if len(r.fetchVotes[m.Seq][key]) <= r.cfg.F {
		return
	}
	reqs := r.fetchReqs[m.Seq][key]
	delete(r.fetchVotes, m.Seq)
	delete(r.fetchReqs, m.Seq)
	s := r.getSlot(m.Seq)
	s.hasPP = true
	s.reqs = reqs
	s.hash = core.BlockHash(m.Seq, 0, reqs) // identity only; never signed
	r.Metrics.GapRepairs++
	r.commit(s, reqs)
}

// ---------------------------------------------------------------------------
// View change (crash-fault grade; see package comment).

func (r *Replica) vcTimeout() time.Duration {
	shift := r.vcBackoff
	if shift > 6 {
		shift = 6
	}
	return r.cfg.ViewChangeTimeout << shift
}

func (r *Replica) hasOutstandingWork() bool {
	if len(r.watch) > 0 {
		return true
	}
	for _, s := range r.slots {
		if s.hasPP && !s.committed {
			return true
		}
	}
	return false
}

// armProgressTimer arms the liveness timer if it is not already running.
// It deliberately does NOT reset a pending timer: a client retrying every
// RequestTimeout would otherwise postpone the view change forever.
func (r *Replica) armProgressTimer() {
	if r.progressTimer != nil || r.inViewChange || !r.hasOutstandingWork() {
		return
	}
	r.progressTimer = r.env.After(r.vcTimeout(), func() {
		r.progressTimer = nil
		if !r.inViewChange && r.hasOutstandingWork() {
			r.startViewChange(r.view + 1)
		}
	})
}

// resetProgressTimer restarts the liveness timer after real progress.
func (r *Replica) resetProgressTimer() {
	if r.progressTimer != nil {
		r.progressTimer()
		r.progressTimer = nil
	}
	r.armProgressTimer()
}

func (r *Replica) startViewChange(target uint64) {
	if target <= r.view && r.inViewChange {
		return
	}
	if target <= r.view {
		target = r.view + 1
	}
	r.inViewChange = true
	r.view = target
	r.Metrics.ViewChanges++
	if r.batchTimer != nil {
		r.batchTimer()
		r.batchTimer = nil
	}
	vc := ViewChangeMsg{NewView: target, LastStable: r.lastStable, Replica: r.id}
	seqs := make([]uint64, 0, len(r.slots))
	for seq := range r.slots {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		s := r.slots[seq]
		if s.hasPrepared || s.committed {
			view := s.preparedView
			reqs := s.preparedReqs
			hash := s.preparedHash
			if s.committed {
				view, reqs, hash = s.view, s.reqs, s.hash
			}
			vc.Prepared = append(vc.Prepared, PreparedProof{Seq: seq, View: view, Hash: hash, Reqs: reqs})
		}
	}
	r.broadcast(vc)
	r.onViewChange(r.id, vc)
	r.vcBackoff++
	if r.vcTimer != nil {
		r.vcTimer()
	}
	r.vcTimer = r.env.After(r.vcTimeout(), func() {
		r.vcTimer = nil
		if r.inViewChange {
			r.startViewChange(r.view + 1)
		}
	})
}

func (r *Replica) onViewChange(from int, m ViewChangeMsg) {
	if from != m.Replica {
		return
	}
	if m.NewView <= r.view && !(m.NewView == r.view && r.inViewChange) {
		return
	}
	if r.vcMsgs[m.NewView] == nil {
		r.vcMsgs[m.NewView] = make(map[int]*ViewChangeMsg)
	}
	r.vcMsgs[m.NewView][m.Replica] = &m

	// f+1 join rule.
	distinct := make(map[int]bool)
	minAbove := uint64(0)
	for tv, senders := range r.vcMsgs {
		if tv <= r.view {
			continue
		}
		for id := range senders {
			distinct[id] = true
		}
		if minAbove == 0 || tv < minAbove {
			minAbove = tv
		}
	}
	if len(distinct) > r.cfg.F && minAbove > r.view {
		r.startViewChange(minAbove)
	}

	if r.cfg.Primary(m.NewView) != r.id {
		return
	}
	msgs := r.vcMsgs[m.NewView]
	if len(msgs) < r.cfg.Quorum() {
		return
	}
	if m.NewView < r.view || (m.NewView == r.view && !r.inViewChange) {
		return
	}
	ids := make([]int, 0, len(msgs))
	for id := range msgs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ids = ids[:r.cfg.Quorum()]
	nv := NewViewMsg{View: m.NewView}
	maxStable := uint64(0)
	for _, id := range ids {
		nv.ViewChanges = append(nv.ViewChanges, *msgs[id])
		if msgs[id].LastStable > maxStable {
			maxStable = msgs[id].LastStable
		}
	}
	// O set: for each slot above the stable point, re-propose the
	// highest-view prepared value, else a null block.
	best := make(map[uint64]PreparedProof)
	maxSeq := maxStable
	for _, vc := range nv.ViewChanges {
		for _, p := range vc.Prepared {
			if p.Seq <= maxStable {
				continue
			}
			if cur, ok := best[p.Seq]; !ok || p.View > cur.View {
				best[p.Seq] = p
			}
			if p.Seq > maxSeq {
				maxSeq = p.Seq
			}
		}
	}
	for seq := maxStable + 1; seq <= maxSeq; seq++ {
		reqs := []core.Request{}
		if p, ok := best[seq]; ok {
			reqs = p.Reqs
		}
		nv.PrePrepares = append(nv.PrePrepares, PrePrepareMsg{Seq: seq, View: m.NewView, Reqs: reqs})
	}
	r.broadcast(nv)
	r.onNewView(r.id, nv)
}

func (r *Replica) onNewView(from int, m NewViewMsg) {
	if from != r.cfg.Primary(m.View) {
		return
	}
	if m.View < r.view || (m.View == r.view && !r.inViewChange) {
		return
	}
	if len(m.ViewChanges) < r.cfg.Quorum() {
		return
	}
	r.view = m.View
	r.inViewChange = false
	r.vcBackoff = 0
	if r.vcTimer != nil {
		r.vcTimer()
		r.vcTimer = nil
	}
	for tv := range r.vcMsgs {
		if tv <= m.View {
			delete(r.vcMsgs, tv)
		}
	}
	maxSeq := r.lastStable
	for _, s := range r.slots {
		if s.committed {
			continue
		}
		// Requests stuck in an uncommitted slot would be lost if the new
		// view does not re-propose that slot (the proposer's pending queue
		// already dropped them and the client-retry path is deduplicated
		// by `seen`): requeue them so some primary proposes them again.
		// Exactly-once execution makes a redundant re-proposal harmless.
		for _, req := range s.reqs {
			r.requeue(req)
		}
		s.sentPrepare = false
		s.sentCommit = false
		s.prepared = false
		s.hasPP = false
		s.prepares = make(map[int]bool)
		s.commits = make(map[int]bool)
	}
	inFlight := make(map[int]uint64) // client → highest ts re-proposed
	for _, pp := range m.PrePrepares {
		if pp.Seq <= r.lastStable {
			continue
		}
		if pp.Seq > maxSeq {
			maxSeq = pp.Seq
		}
		for _, req := range pp.Reqs {
			if ts := inFlight[req.Client]; ts < req.Timestamp {
				inFlight[req.Client] = req.Timestamp
			}
		}
		if s, ok := r.slots[pp.Seq]; ok && s.committed {
			continue
		}
		r.acceptPrePrepare(pp)
	}
	// Requests the new view already re-proposed must not also be proposed
	// from the retained pending queue (they would execute twice).
	if len(r.pending) > 0 {
		kept := r.pending[:0]
		for _, req := range r.pending {
			if ts, ok := inFlight[req.Client]; ok && ts >= req.Timestamp {
				continue
			}
			if ent, ok := r.replyCache[req.Client]; ok && ent.timestamp >= req.Timestamp {
				continue
			}
			kept = append(kept, req)
		}
		r.pending = kept
	}
	if r.isPrimary() {
		r.nextSeq = maxSeq + 1
		r.proposeIfReady(true)
	}
	// Replay pre-prepares that raced ahead of this view installation.
	if buf := r.ppBuffer[m.View]; len(buf) > 0 {
		delete(r.ppBuffer, m.View)
		for _, pp := range buf {
			r.onPrePrepare(r.cfg.Primary(m.View), pp)
		}
	}
	for v := range r.ppBuffer {
		if v <= m.View {
			delete(r.ppBuffer, v)
		}
	}
	r.resetProgressTimer()
}

// requeue re-adds a request to the pending queue unless it has already
// executed or is already queued, bypassing the `seen` dedup (which tracks
// proposed-but-possibly-lost requests).
func (r *Replica) requeue(req core.Request) {
	if ent, ok := r.replyCache[req.Client]; ok && ent.timestamp >= req.Timestamp {
		return
	}
	for _, p := range r.pending {
		if p.Client == req.Client && p.Timestamp >= req.Timestamp {
			return
		}
	}
	r.pending = append(r.pending, req)
	if ts := r.seen[req.Client]; ts < req.Timestamp {
		r.seen[req.Client] = req.Timestamp
	}
}
