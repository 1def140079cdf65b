package core

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"time"

	"sbft/internal/crypto/threshsig"
)

// ClientBase is the first node id used for clients; replicas are 1..n.
const ClientBase = 1_000_000

// IsClient reports whether a node id belongs to a client.
func IsClient(id int) bool { return id >= ClientBase }

// slot holds all per-sequence-number protocol state of one replica.
type slot struct {
	seq uint64

	// Highest accepted pre-prepare (fm source for view changes).
	hasPrePrepare  bool
	prePrepareView uint64
	reqs           []Request
	hash           Digest

	// Highest accepted prepare certificate (lm source).
	hasPrepare  bool
	prepareView uint64
	prepareTau  threshsig.Signature
	prepareReqs []Request
	prepareHash Digest

	// Commit certificates.
	commitProof     *FullCommitProofMsg
	commitProofView uint64
	commitSlow      *FullCommitProofSlowMsg
	commitSlowView  uint64

	committed     bool
	committedReqs []Request
	// execReqs is the exactly-once subset of committedReqs actually fed to
	// the application (requests already executed for their client at an
	// earlier sequence are skipped deterministically).
	execReqs []Request
	executed bool

	sentSignShare   bool
	sentCommitShare bool

	// C-collector state (when this replica collects for this slot). The
	// share tables hold one UNVERIFIED share per signer; the combine checks
	// them together (cryptosink.go).
	sigmaShares  map[int]threshsig.Share
	tauShares    map[int]threshsig.Share
	tautauShares map[int]threshsig.Share
	// tauQuorumAt records when the τ quorum was first reached; the gap to
	// the σ quorum feeds the adaptive fast-path timer (§V-E: "an adaptive
	// protocol based on past network profiling to control this timer").
	tauQuorumAt   time.Duration
	tauQuorumSeen bool
	// pendingShares buffers sign-shares that arrived before this
	// collector's own pre-prepare (they cannot be verified yet); replayed
	// by acceptPrePrepare. Without this, WAN reordering starves the fast
	// path of its 3f+c+1 quorum.
	pendingShares []SignShareMsg
	// pendingProofs buffers commit certificates that raced ahead of the
	// pre-prepare.
	pendingFast   *FullCommitProofMsg
	pendingSlow   *FullCommitProofSlowMsg
	collectorView uint64
	sentFastProof bool
	sentPrepare   bool
	sentSlowProof bool
	fastTimer     func() // cancel
	staggerTimer  func() // cancel

	// collectorEpoch is bumped whenever the collector state resets, so
	// sink completions of a dead collector round are dropped, not applied
	// to the fresh tables.
	collectorEpoch uint64

	// E-collector state. π shares are grouped by the digest they sign: a
	// Byzantine replica may send correctly-signed shares over a garbage
	// digest, and first-write-wins bookkeeping would let one such share
	// block the honest f+1 quorum. Per-digest groups make the garbage
	// digest inert (it can never gather f+1 signers, at least one of
	// which would have to be honest).
	piShares     map[string]map[int]threshsig.Share
	execDigest   []byte
	execPi       threshsig.Signature
	sentExecCert bool
	execAcked    bool
	// ackProofs are the clients' Merkle proofs for this block. The first
	// E-collector takes them when it executes the block (a checkpoint may
	// drop the proof material before its certificate completes), a
	// redundant one when it comes to send acks, which is rare.
	ackProofs [][]byte
	// execProofs holds the full-execute-proofs received for this slot, one
	// place per E-collector, UNVERIFIED until execCertified has to know.
	execProofs   []FullExecuteProofMsg
	execCertSeen bool
}

func (s *slot) resetCollector(view uint64) {
	s.sigmaShares = make(map[int]threshsig.Share)
	s.tauShares = make(map[int]threshsig.Share)
	s.tautauShares = make(map[int]threshsig.Share)
	s.collectorView = view
	s.sentFastProof = false
	s.sentPrepare = false
	s.sentSlowProof = false
	if s.fastTimer != nil {
		s.fastTimer()
		s.fastTimer = nil
	}
	if s.staggerTimer != nil {
		s.staggerTimer()
		s.staggerTimer = nil
	}
	s.collectorEpoch++
}

// watchEntry records the highest pending timestamp of a client and when
// it was first seen.
type watchEntry struct {
	ts    uint64
	since time.Duration
}

// replyCacheEntry remembers where a client's last request executed.
type replyCacheEntry struct {
	timestamp uint64
	seq       uint64
	l         int
	val       []byte
}

// Metrics counts observable protocol events for experiments.
type Metrics struct {
	FastCommits  uint64
	SlowCommits  uint64
	Executions   uint64
	ViewChanges  uint64
	Checkpoints  uint64
	StateFetches uint64
	NullBlocks   uint64
	GapRepairs   uint64
	// DedupSkips counts committed requests skipped at execution because
	// the client's request had already executed at an earlier sequence
	// (exactly-once enforcement across view changes and retries).
	DedupSkips uint64
	// SnapshotChunks counts snapshot chunks fetched and leaf-verified
	// during state transfer.
	SnapshotChunks uint64
	// SnapshotBlames counts snapshot servers blamed for serving metadata
	// or chunks that failed verification against the certified root.
	SnapshotBlames uint64
	// SnapshotChunkRetries counts chunk requests re-issued after their
	// per-chunk retry timer expired (a lost request or an unresponsive
	// server) — the windowed transfer's loss-recovery path.
	SnapshotChunkRetries uint64
	// SnapshotTimeoutExclusions counts servers excluded from a transfer
	// for repeated unanswered chunk requests (slow-trickling; distinct
	// from SnapshotBlames, which counts provable tampering).
	SnapshotTimeoutExclusions uint64
	// SnapshotPersists counts certified snapshots durably persisted,
	// synchronously or through the async SnapshotSink.
	SnapshotPersists uint64
	// CollectorTimeouts counts fast-path collector timer expirations: a
	// C-collector waited out its adaptive fast timer on a slot that had a
	// τ quorum but no σ quorum (§V-E). Every expiration is counted, even
	// when another collector's prepare made this one's redundant.
	CollectorTimeouts uint64
	// FastPathDowngrades counts fast→linear downgrades actually engaged:
	// the collector abandoned the σ fast path and broadcast a prepare,
	// sending the slot through the two-phase linear path (§V-E).
	FastPathDowngrades uint64
	// ExecFallbacks counts execution-fallback activations: no full execute
	// certificate arrived within ExecFallbackTimeout (crashed or targeted
	// E-collectors), so this replica answered its clients directly with
	// f+1-style individual replies (§V).
	ExecFallbacks uint64
	// ViewRejoins counts lone-view-changer rejoins: while stuck in a view
	// change, certified traffic for a lower view proved the cluster live
	// without this replica, and it stood back down (§VII liveness).
	ViewRejoins uint64
	// AdmissionRejects counts requests refused because the pending queue
	// was at its MaxPending bound (§V-C backpressure): the client got a
	// BusyMsg retry hint instead of a queue slot.
	AdmissionRejects uint64
	// Proposals and ProposedOps count the blocks this replica proposed and
	// the requests in them (their ratio is the block fill), Holds the times
	// the proposal rule left requests queued though the window had room,
	// TimerProposals the blocks the batch timer, not a commit, forced out.
	Proposals, ProposedOps, Holds, TimerProposals uint64
	// BadShares counts threshold-signature shares that failed
	// verification: blamed after a combine over them failed, rejected on
	// arrival from a signer blamed before, or in a checkpoint quorum's check.
	BadShares uint64
	// SnapshotTransferRestarts counts mid-transfer supersessions that
	// DISCARDED verified chunk progress. A supersession whose delta
	// prefill carried the already-fetched chunks forward is not a
	// restart (it counts under SnapshotDeltaTransfers), and neither is
	// a completed transfer followed by a fresh fetch for the remaining
	// gap.
	SnapshotTransferRestarts uint64
	// SnapshotDeltaTransfers counts transfers (including mid-transfer
	// supersessions) that seeded chunks from a base this replica
	// already held instead of fetching the full state.
	SnapshotDeltaTransfers uint64
	// SnapshotChunksReused counts chunks satisfied from a local base
	// during delta transfers — bytes that never crossed the wire.
	SnapshotChunksReused uint64
	// CheckpointDirtyChunks accumulates, across incremental checkpoint
	// captures, how many app chunk leaves had to be re-hashed because
	// their chunk changed since the previous capture. The complement
	// (total capture leaves minus this) is work the incremental path
	// skipped.
	CheckpointDirtyChunks uint64
	// ReadsServed counts certified reads answered ReadOK: value + Merkle
	// proofs against the latest π-certified snapshot root (read.go).
	ReadsServed uint64
	// ReadsBehind counts reads refused because the certified frontier was
	// below the client's freshness floor (the read-your-writes refusal).
	ReadsBehind uint64
	// ReadsUnavailable counts reads refused for lack of a certified
	// bucketed snapshot or an op→key mapping.
	ReadsUnavailable uint64
	// ReadBatches counts read-batch flushes; ReadsServed/ReadBatches is
	// the realized proof-generation amortization factor.
	ReadBatches uint64
	// TxPrepares / TxCommits / TxAborts mirror the application's
	// cumulative cross-shard 2PC counters (core.TwoPhaser): prepares
	// that locked and staged writes, commits that passed the
	// certificate-verifying commit rule, and aborts applied on refusal
	// evidence (ROADMAP item 5).
	TxPrepares uint64
	TxCommits  uint64
	TxAborts   uint64
	// TxCoordFailovers counts cross-shard transactions a RECOVERY
	// coordinator finished after the original coordinator crashed or
	// equivocated mid-2PC. Replicas never set it — coordination is
	// outside the replica — but it lives here so the sharded cluster's
	// aggregated Metrics carries the whole cross-shard story.
	TxCoordFailovers uint64
}

// BlockStore persists committed decision blocks (the paper persists
// transactions to disk via RocksDB; internal/storage provides the
// substitute). Nil disables persistence.
type BlockStore interface {
	Append(seq uint64, payload []byte) error
}

// Replica is one SBFT replica: a deterministic event machine driven by
// Deliver and timer callbacks. It is not safe for concurrent use; the
// runtime (simulator or transport shell) must serialize calls.
type Replica struct {
	id    int
	cfg   Config
	suite CryptoSuite
	keys  ReplicaKeys
	app   Application
	env   Env
	store BlockStore

	view         uint64
	inViewChange bool
	installing   bool // a new view's decisions are being applied (onNewView)
	// lastStable is the highest π-proven stable checkpoint (ls in §V-F);
	// windowBase additionally reflects the fast-path rule that advances
	// the window without a checkpoint quorum (ls := max(ls, s − win/4)).
	lastStable   uint64
	windowBase   uint64
	lastExecuted uint64 // le
	stableDigest []byte
	stablePi     threshsig.Signature
	slots        map[uint64]*slot
	// snapGens is the bounded chain of retained stable certified
	// snapshot generations, oldest first; the newest entry is the one
	// advertised to fetchers. Older generations stay servable (in
	// memory) so fetchers mid-transfer keep completing across
	// checkpoint supersessions, and each generation records which chunk
	// leaves changed from its chain predecessor so a laggard holding an
	// older retained generation fetches one base plus deltas instead of
	// the full state. Depth is Config.SnapshotRetain.
	snapGens []*snapGeneration
	// capCache carries chunk identities and leaf hashes between
	// consecutive checkpoint captures, so an application with an
	// incremental capture path (ChunkedSnapshotter) costs
	// O(chunks-changed) per checkpoint rather than O(state).
	capCache *CaptureCache
	// pendingSnap holds certified snapshots captured at the moment a
	// checkpoint sequence executed, keyed by that sequence. Stabilization
	// (the π quorum) arrives a round-trip later, when execution may have
	// pipelined past the checkpoint; capturing then would mislabel newer
	// state (and a newer reply table) with the older certified digest.
	pendingSnap map[uint64]*CertifiedSnapshot
	// fetch is the in-progress chunked state transfer, if any.
	fetch *stateFetch
	// snapshotBlames accumulates, per server id, how many times that
	// server was blamed for snapshot material failing verification.
	snapshotBlames map[int]int
	// sink, when set, receives adopted snapshots for asynchronous
	// persistence (see SnapshotSink); nil falls back to the synchronous
	// SnapshotStore path.
	sink SnapshotSink
	// durableSnap is the highest snapshot sequence known persisted (the
	// restart-survivable serving point, armed by the sink's completion).
	durableSnap uint64
	// csink runs threshold-share verification and combination, inline by
	// default or on a worker pool when SetCryptoSink installs one (see
	// cryptosink.go). Never nil.
	csink CryptoSink
	// suspects maps a signer a failed combine has blamed to the view it
	// was blamed in; for the rest of that view its shares are verified on
	// arrival.
	suspects map[int]uint64

	// Primary state.
	pending []Request
	// pendingIdx indexes pending by client → set of queued timestamps, so
	// requeue's already-queued check is O(1) instead of a full scan per
	// re-added request (O(n²) at view installation with a deep queue).
	// Inner sets are tiny: a client has at most a couple of in-flight
	// timestamps at once.
	pendingIdx    map[int]map[uint64]bool
	seen          map[int]uint64 // client → highest in-flight (unexecuted) timestamp
	nextSeq       uint64
	batchTimer    func()
	lastCommitted []Request // the block that committed last (threeClientsAlive)

	// Client bookkeeping.
	replyCache map[int]replyCacheEntry
	directReq  map[uint64]map[int]bool // seq → set of request indexes wanting direct replies
	// watch tracks client requests this replica knows about but has not
	// yet executed; non-empty watch arms the liveness timer (§VII).
	watch map[int]watchEntry

	// Checkpoint shares collected at checkpoint sequences, grouped by the
	// digest they sign (see the piShares comment: per-digest groups keep
	// a Byzantine replica's signed-garbage digest from blocking the
	// honest quorum).
	ckptShares map[uint64]map[string]map[int]threshsig.Share

	// ppBuffer holds pre-prepares that arrived from a future view's
	// primary before this replica installed that view (the new primary's
	// first proposals race its new-view broadcast on jittery links);
	// replayed on view installation.
	ppBuffer map[uint64][]PrePrepareMsg

	// View change state.
	vcMsgs        map[uint64]map[int]*ViewChangeMsg // target view → sender → msg
	vcSent        map[uint64]bool
	vcResent      map[uint64]bool // view-change re-unicast to a late primary
	vcBackoff     uint64
	progressTimer func()
	vcTimer       func()
	gapTimer      func()
	gapAttempt    int

	// Certified-read batching (read.go): queued reads and the flush timer
	// that bounds their wait.
	readQueue []readRequest
	readTimer func()

	// fastSpread is an EWMA of the observed τ-quorum → σ-quorum share
	// arrival gap, driving the adaptive fast-path timer (§V-E).
	fastSpread     time.Duration
	fastSpreadSeen bool

	Metrics Metrics

	// trace, when set, receives debug lines (tests).
	trace func(format string, args ...any)
}

// NewReplica constructs a replica. app must be at genesis (nothing
// executed); id is 1-based.
func NewReplica(id int, cfg Config, suite CryptoSuite, keys ReplicaKeys, app Application, env Env, store BlockStore) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 1 || id > cfg.N() {
		return nil, fmt.Errorf("core: replica id %d out of range [1,%d]", id, cfg.N())
	}
	r := &Replica{
		id:             id,
		cfg:            cfg,
		suite:          suite,
		keys:           keys,
		app:            app,
		env:            env,
		store:          store,
		slots:          make(map[uint64]*slot),
		pendingIdx:     make(map[int]map[uint64]bool),
		seen:           make(map[int]uint64),
		nextSeq:        1,
		replyCache:     make(map[int]replyCacheEntry),
		directReq:      make(map[uint64]map[int]bool),
		watch:          make(map[int]watchEntry),
		ckptShares:     make(map[uint64]map[string]map[int]threshsig.Share),
		vcMsgs:         make(map[uint64]map[int]*ViewChangeMsg),
		vcSent:         make(map[uint64]bool),
		vcResent:       make(map[uint64]bool),
		ppBuffer:       make(map[uint64][]PrePrepareMsg),
		pendingSnap:    make(map[uint64]*CertifiedSnapshot),
		snapshotBlames: make(map[int]int),
		suspects:       make(map[int]uint64),
	}
	r.csink = syncSink{suite}
	return r, nil
}

// ID reports the replica id.
func (r *Replica) ID() int { return r.id }

// View reports the current view.
func (r *Replica) View() uint64 { return r.view }

// LastExecuted reports le.
func (r *Replica) LastExecuted() uint64 { return r.lastExecuted }

// LastStable reports ls.
func (r *Replica) LastStable() uint64 { return r.lastStable }

// OldestSlot reports the lowest sequence this replica holds a slot for, 0
// with none: how far behind the stable point collection is running.
func (r *Replica) OldestSlot() (oldest uint64) {
	for seq := range r.slots {
		if oldest == 0 || seq < oldest {
			oldest = seq
		}
	}
	return oldest
}

// InViewChange reports whether the replica is between views.
func (r *Replica) InViewChange() bool { return r.inViewChange }

// SetTrace installs a debug trace sink.
func (r *Replica) SetTrace(fn func(string, ...any)) { r.trace = fn }

func (r *Replica) tracef(format string, args ...any) {
	if r.trace != nil {
		r.trace("[r%d v%d] "+format, append([]any{r.id, r.view}, args...)...)
	}
}

func (r *Replica) isPrimary() bool { return r.cfg.Primary(r.view) == r.id }

// getSlot returns the slot of seq, creating it above the collection point.
// At or below it only the slots recordStable kept exist: a straggler for
// another sequence gets a blank that is not filed, so nothing comes back.
func (r *Replica) getSlot(seq uint64) *slot {
	s, ok := r.slots[seq]
	if !ok {
		s = &slot{seq: seq}
		s.resetCollector(r.view)
		if seq > min(r.lastStable, r.lastExecuted) {
			r.slots[seq] = s
		}
	}
	return s
}

// broadcast sends msg to every replica except self.
func (r *Replica) broadcast(msg Message) {
	for i := 1; i <= r.cfg.N(); i++ {
		if i != r.id {
			r.env.Send(i, msg)
		}
	}
}

// Deliver dispatches an incoming message. It is the single entry point of
// the event machine.
func (r *Replica) Deliver(from int, msg any) {
	switch m := msg.(type) {
	case RequestMsg:
		r.onRequest(from, m)
	case PrePrepareMsg:
		r.onPrePrepare(from, m)
	case SignShareMsg:
		r.onSignShare(from, m)
	case FullCommitProofMsg:
		r.onFullCommitProof(from, m)
	case PrepareMsg:
		r.onPrepare(from, m)
	case CommitMsg:
		r.onCommit(from, m)
	case FullCommitProofSlowMsg:
		r.onFullCommitProofSlow(from, m)
	case SignStateMsg:
		r.onSignState(from, m)
	case FullExecuteProofMsg:
		r.onFullExecuteProof(from, m)
	case CheckpointShareMsg:
		r.onCheckpointShare(from, m)
	case CheckpointCertMsg:
		r.onCheckpointCert(from, m)
	case FetchCommitMsg:
		r.onFetchCommit(from, m)
	case CommitInfoMsg:
		r.onCommitInfo(from, m)
	case FetchStateMsg:
		r.onFetchState(from, m)
	case SnapshotMetaMsg:
		r.onSnapshotMeta(from, m)
	case FetchSnapshotChunkMsg:
		r.onFetchSnapshotChunk(from, m)
	case SnapshotChunkMsg:
		r.onSnapshotChunk(from, m)
	case ViewChangeMsg:
		r.onViewChange(from, m)
	case NewViewMsg:
		r.onNewView(from, m)
	case ReadMsg:
		r.onRead(from, m)
	}
}

// ---------------------------------------------------------------------------
// Fast path: pre-prepare → sign-share → full-commit-proof.

func (r *Replica) onPrePrepare(from int, m PrePrepareMsg) {
	if m.View != r.view || r.inViewChange {
		// A future view's primary may propose before our new-view message
		// arrives (its first pre-prepares race the install on jittery
		// links): buffer and replay at installation instead of dropping.
		// Bounded to one primary rotation of future views and one entry
		// per sequence, so neither a Byzantine future-primary nor a
		// duplicating link can exhaust the buffer.
		if m.View >= r.view && m.View <= r.view+uint64(r.cfg.N()) &&
			from == r.cfg.Primary(m.View) {
			r.bufferPP(m)
		}
		// View synchronizer: while escalating alone, keep the recent lower
		// views' pre-prepares too — paired with a certified commit proof
		// they are the evidence that lets the loner rejoin (bounded to one
		// primary rotation below, same anti-exhaustion cap as above).
		if r.inViewChange && m.View < r.view && m.View+uint64(r.cfg.N()) >= r.view &&
			from == r.cfg.Primary(m.View) {
			r.bufferPP(m)
		}
		return
	}
	if from != r.cfg.Primary(r.view) {
		return
	}
	if m.Seq <= r.windowBase || m.Seq > r.windowBase+r.cfg.Win {
		if m.Seq > r.windowBase+r.cfg.Win && m.Seq > r.lastExecuted+r.cfg.Win {
			// Too far behind to catch up through the pipeline (§VIII
			// state transfer trigger).
			r.maybeFetchState(r.lastExecuted + 1)
		}
		return
	}
	s := r.getSlot(m.Seq)
	if s.hasPrePrepare && s.prePrepareView == m.View {
		if s.hash != BlockHash(m.Seq, m.View, m.Reqs) {
			// Publicly verifiable equivocation by the primary (§V-G
			// trigger): start a view change immediately.
			r.tracef("equivocation detected at seq=%d", m.Seq)
			r.startViewChange(r.view + 1)
		}
		return
	}
	r.acceptPrePrepare(from, m)
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

func (r *Replica) acceptPrePrepare(_ int, m PrePrepareMsg) {
	s := r.getSlot(m.Seq)
	s.hasPrePrepare = true
	s.prePrepareView = m.View
	s.reqs = m.Reqs
	s.hash = BlockHash(m.Seq, m.View, m.Reqs)
	for i, req := range m.Reqs {
		if req.Direct {
			if r.directReq[m.Seq] == nil {
				r.directReq[m.Seq] = make(map[int]bool)
			}
			r.directReq[m.Seq][i] = true
		}
		if ts := r.seen[req.Client]; ts < req.Timestamp {
			r.seen[req.Client] = req.Timestamp
		}
	}
	if s.committed {
		return
	}
	r.armProgressTimer()
	r.sendSignShare(s)
	// Replay anything that raced ahead of this pre-prepare.
	if len(s.pendingShares) > 0 {
		buffered := s.pendingShares
		s.pendingShares = nil
		for _, sh := range buffered {
			r.onSignShare(sh.Replica, sh)
		}
	}
	if s.pendingFast != nil {
		pf := *s.pendingFast
		s.pendingFast = nil
		r.onFullCommitProof(r.id, pf)
	}
	if s.pendingSlow != nil {
		ps := *s.pendingSlow
		s.pendingSlow = nil
		r.onFullCommitProofSlow(r.id, ps)
	}
}

func (r *Replica) sendSignShare(s *slot) {
	if s.sentSignShare {
		return
	}
	s.sentSignShare = true
	tauShare, err := r.keys.Tau.Sign(s.hash[:])
	if err != nil {
		r.tracef("tau sign failed: %v", err)
		return
	}
	msg := SignShareMsg{Seq: s.seq, View: s.prePrepareView, Replica: r.id, TauSig: tauShare}
	// §V-F fast-path gate: only join the fast path near the execution
	// frontier so fast commits can advance ls without a checkpoint quorum.
	if r.cfg.FastPath && s.seq <= r.lastExecuted+r.cfg.fastGateWindow() {
		sigmaShare, err := r.keys.Sigma.Sign(s.hash[:])
		if err != nil {
			r.tracef("sigma sign failed: %v", err)
			return
		}
		msg.SigmaSig = sigmaShare
	}
	r.tracef("sign-share seq=%d sigma=%v", s.seq, len(msg.SigmaSig.Data) > 0)
	targets := r.cfg.CCollectors(s.seq, s.prePrepareView)
	sent := map[int]bool{}
	for _, c := range targets {
		if sent[c] {
			continue
		}
		sent[c] = true
		if c == r.id {
			r.onSignShare(r.id, msg)
		} else {
			r.env.Send(c, msg)
		}
	}
}

// collectorIndex reports this replica's position in the C-collector list
// for (seq, view), or -1.
func (r *Replica) collectorIndex(seq, view uint64) int {
	for i, c := range r.cfg.CCollectors(seq, view) {
		if c == r.id {
			return i
		}
	}
	return -1
}

func (r *Replica) onSignShare(from int, m SignShareMsg) {
	if m.View != r.view || r.inViewChange || from != m.Replica {
		return
	}
	idx := r.collectorIndex(m.Seq, m.View)
	if idx < 0 {
		return
	}
	s := r.getSlot(m.Seq)
	if s.collectorView != m.View {
		s.resetCollector(m.View)
	}
	if s.sentFastProof && s.sentSlowProof {
		return
	}
	// Shares arriving before our pre-prepare have no block hash to sign:
	// buffer and replay (bounded by one share per replica).
	if !s.hasPrePrepare || s.prePrepareView != m.View {
		if len(s.pendingShares) < r.cfg.N() {
			s.pendingShares = append(s.pendingShares, m)
		}
		return
	}
	epoch := s.collectorEpoch
	file := func(table map[int]threshsig.Share, share threshsig.Share) func() {
		return func() {
			if _, dup := table[m.Replica]; dup || !r.collecting(s, epoch, m.View) {
				return
			}
			table[m.Replica] = share
			r.collectorTryProgress(s, m.View, idx)
		}
	}
	r.admitShare(m.Replica, ShareTau, s.hash[:], m.TauSig, file(s.tauShares, m.TauSig))
	if len(m.SigmaSig.Data) > 0 {
		r.admitShare(m.Replica, ShareSigma, s.hash[:], m.SigmaSig, file(s.sigmaShares, m.SigmaSig))
	}
}

// collecting reports whether a collector round of s started at epoch in
// view is still the live one — the guard of every sink completion.
func (r *Replica) collecting(s *slot, epoch, view uint64) bool {
	return r.slots[s.seq] == s && s.collectorEpoch == epoch && r.view == view && !r.inViewChange
}

// collectorCombine combines the C-collector table of s over digest and
// hands the certificate to send, unless the round died or the slot
// committed meanwhile (a dead round's verdict is dropped with it: it was
// reached against that round's digest). After a verdict on the shares,
// retry rolls the caller's in-flight flag back and tries what is left.
func (r *Replica) collectorCombine(s *slot, view uint64, digest []byte, table map[int]threshsig.Share, kind ShareKind, retry func(), send func(threshsig.Signature)) {
	epoch := s.collectorEpoch
	r.csink.Combine(kind, append([]byte(nil), digest...), sharesList(table), func(sig threshsig.Signature, err error) {
		switch {
		case !r.collecting(s, epoch, view) || s.committed:
		case err == nil:
			send(sig)
		case r.blame(table, err):
			retry()
		}
	})
}

// observeFastSpread feeds the adaptive fast-path timer: collectors learn
// how long the σ quorum trails the τ quorum on their slots and extend the
// fallback timer to cover it (§V-E network profiling).
func (r *Replica) observeFastSpread(spread time.Duration) {
	if !r.fastSpreadSeen {
		r.fastSpread = spread
		r.fastSpreadSeen = true
		return
	}
	// EWMA with α = 1/4.
	r.fastSpread += (spread - r.fastSpread) / 4
}

// fastTimerDuration is the adaptive wait before abandoning the fast path:
// at least the configured floor, stretched to cover the recently observed
// share-arrival spread, and capped so crashed replicas cannot inflate
// latency unboundedly.
func (r *Replica) fastTimerDuration() time.Duration {
	d := r.cfg.FastPathTimeout
	if r.fastSpreadSeen {
		if adaptive := r.fastSpread * 2; adaptive > d {
			d = adaptive
		}
	}
	if limit := 6 * r.cfg.FastPathTimeout; d > limit {
		d = limit
	}
	return d
}

func (r *Replica) collectorTryProgress(s *slot, view uint64, idx int) {
	r.tracef("collector seq=%d idx=%d sigma=%d tau=%d fastSent=%v prepSent=%v",
		s.seq, idx, len(s.sigmaShares), len(s.tauShares), s.sentFastProof, s.sentPrepare)
	if !s.tauQuorumSeen && len(s.tauShares) >= r.cfg.QuorumSlow() {
		s.tauQuorumSeen = true
		s.tauQuorumAt = r.env.Now()
	}
	if s.tauQuorumSeen && len(s.sigmaShares) >= r.cfg.QuorumFast() {
		r.observeFastSpread(r.env.Now() - s.tauQuorumAt)
	}
	// Fast path: combine σ(h) once 3f+c+1 shares arrive. The flag is set
	// before the (staggered, possibly asynchronous) combination so
	// re-entrant progress calls cannot double-combine; a combine that
	// blames a share rolls it back.
	if r.cfg.FastPath && !s.sentFastProof && len(s.sigmaShares) >= r.cfg.QuorumFast() {
		s.sentFastProof = true
		if s.fastTimer != nil {
			s.fastTimer()
			s.fastTimer = nil
		}
		r.staggered(s, idx, func() {
			r.collectorCombine(s, view, s.hash[:], s.sigmaShares, ShareSigma, func() {
				s.sentFastProof = false
				r.collectorTryProgress(s, view, idx)
			}, func(sig threshsig.Signature) {
				msg := FullCommitProofMsg{Seq: s.seq, View: view, Sigma: sig}
				r.broadcast(msg)
				r.acceptFastProof(s, msg)
			})
		})
		return
	}
	// Slow-path trigger: τ quorum but no σ quorum → wait for the fast
	// timer (skipped when the fast path is disabled), then send prepare,
	// staggered so redundant collectors only act if earlier ones stall
	// (§V-E; the primary activates last).
	if !s.sentPrepare && len(s.tauShares) >= r.cfg.QuorumSlow() {
		var fire func()
		fire = func() {
			// A prepare already seen from another collector makes ours
			// redundant — but only a CURRENT-view prepare counts: stale
			// prepare evidence from an earlier view must not stop the slot
			// from re-preparing after a view change, or it deadlocks (the
			// chaos harness found exactly this under lossy links).
			if s.sentPrepare || s.sentFastProof || s.committed {
				return
			}
			if s.hasPrepare && s.prepareView >= view {
				return
			}
			s.sentPrepare = true // rolled back when the combine blames a share
			r.collectorCombine(s, view, s.hash[:], s.tauShares, ShareTau, func() {
				s.sentPrepare = false
				if len(s.tauShares) >= r.cfg.QuorumSlow() {
					fire() // the timer has run out already: retry at once
				}
			}, func(sig threshsig.Signature) {
				if r.cfg.FastPath {
					r.Metrics.FastPathDowngrades++
				}
				msg := PrepareMsg{Seq: s.seq, View: view, Tau: sig}
				r.broadcast(msg)
				r.acceptPrepare(s, msg)
			})
		}
		delay := time.Duration(idx) * r.cfg.CollectorStagger
		if r.cfg.FastPath {
			delay += r.fastTimerDuration()
		}
		if s.fastTimer == nil && !s.sentFastProof {
			if delay == 0 {
				fire()
				return
			}
			s.fastTimer = r.env.After(delay, func() {
				s.fastTimer = nil
				if r.cfg.FastPath && !s.committed && !s.sentFastProof {
					r.Metrics.CollectorTimeouts++
				}
				fire()
			})
		}
	}
}

// staggered runs act immediately for the first collector and after
// idx*CollectorStagger for redundant collectors, cancelling if the slot
// commits meanwhile (§V: staggered collectors monitor in idle). act is the
// combine itself, not just the send, so a redundant collector whose turn
// never comes does no crypto at all.
func (r *Replica) staggered(s *slot, idx int, act func()) {
	if idx <= 0 || r.cfg.CollectorStagger <= 0 {
		act()
		return
	}
	delay := time.Duration(idx) * r.cfg.CollectorStagger
	s.staggerTimer = r.env.After(delay, func() {
		s.staggerTimer = nil
		if !s.committed {
			act()
		}
	})
}

func sharesList(m map[int]threshsig.Share) []threshsig.Share {
	out := make([]threshsig.Share, 0, len(m))
	for _, sh := range m {
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Signer < out[j].Signer })
	return out
}

func (r *Replica) onFullCommitProof(_ int, m FullCommitProofMsg) {
	s := r.getSlot(m.Seq)
	if s.committed {
		return
	}
	if !s.hasPrePrepare || s.prePrepareView != m.View {
		if m.Seq > r.windowBase && m.Seq <= r.windowBase+r.cfg.Win {
			s.pendingFast = &m
			r.tryRejoinView(m.Seq, m.View)
		}
		return
	}
	if r.suite.Sigma.Verify(s.hash[:], m.Sigma) != nil {
		return
	}
	r.acceptFastProof(s, m)
}

// acceptFastProof commits s on a σ(h) known to be valid: verified on
// receipt, or combined — and checked inside the combine — by this very
// collector, which therefore does not verify it a second time.
func (r *Replica) acceptFastProof(s *slot, m FullCommitProofMsg) {
	if r.inViewChange && m.View < r.view {
		r.rejoinView(m.View)
	}
	s.commitProof = &m
	s.commitProofView = m.View
	r.Metrics.FastCommits++
	// §V-F: a fast commit advances the window without a checkpoint quorum.
	if m.Seq > r.cfg.fastGateWindow() {
		if nls := m.Seq - r.cfg.fastGateWindow(); nls > r.windowBase {
			r.windowBase = nls
		}
	}
	r.commit(s, s.reqs)
}

// ---------------------------------------------------------------------------
// Linear-PBFT slow path: prepare → commit → full-commit-proof-slow.

func (r *Replica) onPrepare(_ int, m PrepareMsg) {
	if m.View != r.view || r.inViewChange {
		return
	}
	s := r.getSlot(m.Seq)
	if !s.hasPrePrepare || s.prePrepareView != m.View {
		return
	}
	// With an equal-or-higher prepare already held there is nothing to
	// verify; the commit share may still go out once.
	if !(s.hasPrepare && s.prepareView >= m.View) && r.suite.Tau.Verify(s.hash[:], m.Tau) != nil {
		return
	}
	r.acceptPrepare(s, m)
}

// acceptPrepare records a τ(h) known to be valid — verified on receipt, or
// combined and checked by this very collector — and answers it with this
// replica's commit share.
func (r *Replica) acceptPrepare(s *slot, m PrepareMsg) {
	if !s.hasPrepare || s.prepareView < m.View {
		s.hasPrepare = true
		s.prepareView = m.View
		s.prepareTau = m.Tau
		s.prepareReqs = s.reqs
		s.prepareHash = s.hash
	}
	if s.committed || s.sentCommitShare {
		return
	}
	s.sentCommitShare = true
	share, err := r.keys.Tau.Sign(tauTauDigest(s.prepareTau))
	if err != nil {
		return
	}
	msg := CommitMsg{Seq: m.Seq, View: m.View, Replica: r.id, TauTau: share}
	sent := map[int]bool{}
	for _, c := range r.cfg.CCollectors(m.Seq, m.View) {
		if sent[c] {
			continue
		}
		sent[c] = true
		if c == r.id {
			r.onCommit(r.id, msg)
		} else {
			r.env.Send(c, msg)
		}
	}
}

func (r *Replica) onCommit(from int, m CommitMsg) {
	if m.View != r.view || r.inViewChange || from != m.Replica {
		return
	}
	if r.collectorIndex(m.Seq, m.View) < 0 {
		return
	}
	s := r.getSlot(m.Seq)
	// Only this view's prepare certificate names the digest commit shares
	// sign; against a stale one every honest share would look bad.
	if s.collectorView != m.View || s.sentSlowProof || !s.hasPrepare || s.prepareView != m.View {
		return
	}
	epoch := s.collectorEpoch
	r.admitShare(m.Replica, ShareTau, tauTauDigest(s.prepareTau), m.TauTau, func() {
		if _, dup := s.tautauShares[m.Replica]; dup || !r.collecting(s, epoch, m.View) {
			return
		}
		s.tautauShares[m.Replica] = m.TauTau
		r.trySlowProof(s, m.View)
	})
}

// trySlowProof combines and broadcasts the slow-path commit certificate
// τ(τ(h)) once 2f+c+1 commit shares are in (§V-E), staggered across the
// redundant collectors.
func (r *Replica) trySlowProof(s *slot, view uint64) {
	if len(s.tautauShares) < r.cfg.QuorumSlow() || s.sentSlowProof {
		return
	}
	s.sentSlowProof = true
	epoch := s.collectorEpoch
	fire := func() {
		if !r.collecting(s, epoch, view) || s.committed || s.commitSlow != nil {
			return // superseded, or another collector's proof already landed
		}
		r.collectorCombine(s, view, tauTauDigest(s.prepareTau), s.tautauShares, ShareTau, func() {
			s.sentSlowProof = false
			r.trySlowProof(s, view)
		}, func(sig threshsig.Signature) {
			if s.commitSlow != nil {
				return
			}
			msg := FullCommitProofSlowMsg{Seq: s.seq, View: view, Tau: s.prepareTau, TauTau: sig}
			r.broadcast(msg)
			r.acceptSlowProof(s, msg)
		})
	}
	idx := r.collectorIndex(s.seq, view)
	if idx <= 0 || r.cfg.CollectorStagger <= 0 {
		fire()
		return
	}
	r.env.After(time.Duration(idx)*r.cfg.CollectorStagger, fire)
}

func (r *Replica) onFullCommitProofSlow(_ int, m FullCommitProofSlowMsg) {
	s := r.getSlot(m.Seq)
	if s.committed {
		return
	}
	if !s.hasPrePrepare || s.prePrepareView != m.View {
		if m.Seq > r.windowBase && m.Seq <= r.windowBase+r.cfg.Win {
			s.pendingSlow = &m
			r.tryRejoinView(m.Seq, m.View)
		}
		return
	}
	// Verify the chain: τ(h) over our block hash — unless it is the very
	// prepare certificate onPrepare accepted for this block — then τ(τ(h)).
	held := s.hasPrepare && s.prepareView == m.View && s.prepareHash == s.hash &&
		bytes.Equal(s.prepareTau.Data, m.Tau.Data)
	if !held && r.suite.Tau.Verify(s.hash[:], m.Tau) != nil {
		return
	}
	if r.suite.Tau.Verify(tauTauDigest(m.Tau), m.TauTau) != nil {
		return
	}
	r.acceptSlowProof(s, m)
}

// acceptSlowProof commits s on a τ(τ(h)) chain known to be valid (see
// acceptFastProof).
func (r *Replica) acceptSlowProof(s *slot, m FullCommitProofSlowMsg) {
	if r.inViewChange && m.View < r.view {
		r.rejoinView(m.View)
	}
	s.commitSlow = &m
	s.commitSlowView = m.View
	if !s.hasPrepare || s.prepareView < m.View {
		s.hasPrepare = true
		s.prepareView = m.View
		s.prepareTau = m.Tau
		s.prepareReqs = s.reqs
		s.prepareHash = s.hash
	}
	r.Metrics.SlowCommits++
	r.commit(s, s.reqs)
}

// ---------------------------------------------------------------------------
// Commit, execution and acknowledgement.

func (r *Replica) commit(s *slot, reqs []Request) {
	if s.committed {
		return
	}
	s.committed = true
	s.committedReqs = reqs
	if s.fastTimer != nil {
		s.fastTimer()
		s.fastTimer = nil
	}
	if s.staggerTimer != nil {
		s.staggerTimer()
		s.staggerTimer = nil
	}
	r.tracef("commit seq=%d (%d reqs)", s.seq, len(reqs))
	r.executeReady()
	r.armProgressTimer()
	r.checkGap()
	// A commit is the clock of the proposal rule: it releases what the
	// primary held behind this slot, or queued behind a full window.
	r.lastCommitted = reqs
	r.proposeIfReady(true)
}

// checkGap detects an execution gap — a committed block above an
// uncommitted one — and arms the repair timer (§II re-transmit layer).
func (r *Replica) checkGap() {
	if r.gapTimer != nil || r.cfg.GapRepairTimeout <= 0 {
		return
	}
	if !r.hasGap() {
		return
	}
	r.gapTimer = r.env.After(r.cfg.GapRepairTimeout, func() {
		r.gapTimer = nil
		if !r.hasGap() {
			r.gapAttempt = 0
			return
		}
		missing := r.lastExecuted + 1
		// Rotate through peers across attempts.
		peer := (int(missing)+r.gapAttempt)%r.cfg.N() + 1
		if peer == r.id {
			peer = peer%r.cfg.N() + 1
		}
		r.gapAttempt++
		r.tracef("gap repair: fetching decision %d from %d", missing, peer)
		r.env.Send(peer, FetchCommitMsg{Replica: r.id, Seq: missing})
		r.checkGap()
	})
}

// hasGap reports whether execution is stalled behind a committed block.
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
	return r.lastStable > r.lastExecuted
}

func (r *Replica) onFetchCommit(_ int, m FetchCommitMsg) {
	s, ok := r.slots[m.Seq]
	if !ok || !s.committed {
		// Possibly garbage-collected: offer the snapshot instead.
		if r.SnapshotSeq() >= m.Seq {
			r.onFetchState(m.Replica, FetchStateMsg{Replica: m.Replica, Seq: m.Seq})
		}
		return
	}
	info := CommitInfoMsg{Seq: m.Seq, Reqs: s.committedReqs}
	switch {
	case s.commitProof != nil:
		info.HasFast = true
		info.View = s.commitProofView
		info.Sigma = s.commitProof.Sigma
	case s.commitSlow != nil:
		info.View = s.commitSlowView
		info.Tau = s.commitSlow.Tau
		info.TauTau = s.commitSlow.TauTau
	default:
		// Committed through a new-view decision without a retained
		// certificate; the requester will try another peer.
		return
	}
	r.env.Send(m.Replica, info)
}

func (r *Replica) onCommitInfo(_ int, m CommitInfoMsg) {
	if m.Seq <= r.lastExecuted {
		return
	}
	s := r.getSlot(m.Seq)
	if s.committed {
		return
	}
	h := BlockHash(m.Seq, m.View, m.Reqs)
	if m.HasFast {
		if r.suite.Sigma.Verify(h[:], m.Sigma) != nil {
			return
		}
		s.commitProof = &FullCommitProofMsg{Seq: m.Seq, View: m.View, Sigma: m.Sigma}
		s.commitProofView = m.View
	} else {
		if r.suite.Tau.Verify(h[:], m.Tau) != nil {
			return
		}
		if r.suite.Tau.Verify(tauTauDigest(m.Tau), m.TauTau) != nil {
			return
		}
		s.commitSlow = &FullCommitProofSlowMsg{Seq: m.Seq, View: m.View, Tau: m.Tau, TauTau: m.TauTau}
		s.commitSlowView = m.View
	}
	if !s.hasPrePrepare {
		s.hasPrePrepare = true
		s.prePrepareView = m.View
	}
	s.reqs = m.Reqs
	s.hash = h
	r.Metrics.GapRepairs++
	r.commit(s, m.Reqs)
}

// executeReady executes committed blocks in sequence order (§V-D execute
// trigger).
func (r *Replica) executeReady() {
	advanced := false
	defer func() {
		if advanced {
			r.resetProgressTimer()
			r.checkGap()
			r.dropStaleFetch()
		}
	}()
	for {
		next := r.lastExecuted + 1
		s, ok := r.slots[next]
		if !ok || !s.committed || s.executed {
			return
		}
		advanced = true
		// Exactly-once execution: the same request can legitimately commit
		// at two sequence numbers (a retried request re-proposed across a
		// view change, or a Byzantine primary double-proposing); replicas
		// skip the second occurrence deterministically, keyed on the reply
		// cache — the classic PBFT last-reply-timestamp rule.
		s.execReqs = s.committedReqs[:0:0]
		for _, req := range s.committedReqs {
			if ent, ok := r.replyCache[req.Client]; ok && ent.timestamp >= req.Timestamp {
				r.Metrics.DedupSkips++
				continue
			}
			dup := false
			for _, e := range s.execReqs {
				if e.Client == req.Client && e.Timestamp >= req.Timestamp {
					dup = true
					break
				}
			}
			if dup {
				r.Metrics.DedupSkips++
				continue
			}
			s.execReqs = append(s.execReqs, req)
		}
		ops := make([][]byte, len(s.execReqs))
		for i, req := range s.execReqs {
			ops[i] = req.Op
		}
		results := r.app.ExecuteBlock(next, ops)
		s.executed = true
		r.lastExecuted = next
		r.Metrics.Executions++
		if tp, ok := r.app.(TwoPhaser); ok {
			r.Metrics.TxPrepares, r.Metrics.TxCommits, r.Metrics.TxAborts = tp.TxStats()
		}
		if len(s.committedReqs) == 0 {
			r.Metrics.NullBlocks++
		}
		if r.store != nil {
			if err := r.store.Append(next, EncodeBlockPayload(s.execReqs, results)); err != nil {
				r.tracef("block store append failed: %v", err)
			}
		}
		digest := r.app.Digest()

		// Cache replies and serve direct-path replies.
		for i, req := range s.execReqs {
			r.replyCache[req.Client] = replyCacheEntry{
				timestamp: req.Timestamp, seq: next, l: i, val: results[i],
			}
			// The reply cache now covers every timestamp ≤ this one, so the
			// `seen` dedup entry is redundant — drop it. Without this GC,
			// seen grows one entry per client forever (unbounded memory
			// under churning client populations); with it, seen holds only
			// clients with genuinely in-flight requests.
			if ts, ok := r.seen[req.Client]; ok && ts <= req.Timestamp {
				delete(r.seen, req.Client)
			}
			if w, ok := r.watch[req.Client]; ok && w.ts <= req.Timestamp {
				delete(r.watch, req.Client)
			}
			if !r.cfg.ExecCollectors || req.Direct {
				r.env.Send(req.Client, ReplyMsg{
					Seq: next, L: i, Replica: r.id, View: r.view,
					Client: req.Client, Timestamp: req.Timestamp, Val: results[i],
				})
			}
		}
		// Drop executed requests retained for future primaries.
		if len(r.pending) > 0 {
			kept := r.pending[:0]
			for _, req := range r.pending {
				if ent, ok := r.replyCache[req.Client]; ok && ent.timestamp >= req.Timestamp {
					r.pendingIdxDel(req)
					continue
				}
				kept = append(kept, req)
			}
			r.pending = kept
		}

		// Sign-state phase (§V-D) — only useful when exec collectors are
		// enabled.
		if r.cfg.ExecCollectors {
			if r.cfg.ECollectors(next, 0)[0] == r.id {
				s.ackProofs = r.proveBlock(s)
			}
			share, err := r.keys.Pi.Sign(stateSigDigest(next, digest))
			if err == nil {
				msg := SignStateMsg{Seq: next, Replica: r.id, Digest: digest, PiSig: share}
				for _, c := range r.cfg.ECollectors(next, 0) {
					if c == r.id {
						r.onSignState(r.id, msg)
					} else {
						r.env.Send(c, msg)
					}
				}
			}
			// If this replica is an E-collector that combined the π
			// certificate before executing locally, release the acks now.
			r.sendExecuteAcks(s)
			// Fallback: if every E-collector of this sequence is crashed,
			// serve clients directly after a timeout so the single
			// correct-collector liveness assumption degrades gracefully.
			if r.cfg.ExecFallbackTimeout > 0 && len(s.execReqs) > 0 {
				seq := next
				r.env.After(r.cfg.ExecFallbackTimeout, func() {
					r.execFallback(seq)
				})
			}
		}

		// Periodic checkpoint (§V-F). Capture the certified snapshot NOW,
		// while application state and reply table are exactly at this
		// sequence; the π shares sign its Merkle root, which commits to
		// both, so a single honest snapshot server suffices for verified
		// state transfer. The stable certificate adopts the capture when
		// it arrives.
		if next%r.cfg.checkpointEvery() == 0 {
			cs, err := r.buildSnapshot(next, digest)
			if err != nil {
				// The certified root cannot be computed without the
				// snapshot bytes, so this replica abstains from this
				// checkpoint (the π quorum needs only f+1 of n; a
				// deterministic app's Snapshot failing on a quorum of
				// replicas is an application bug, not a protocol state).
				r.tracef("checkpoint snapshot at %d failed: %v", next, err)
			} else {
				r.pendingSnap[next] = cs
				r.initiateCheckpoint(next, cs.Root())
			}
		}
	}
}

func (r *Replica) isECollector(seq uint64) bool {
	for _, c := range r.cfg.ECollectors(seq, 0) {
		if c == r.id {
			return true
		}
	}
	return false
}

func (r *Replica) onSignState(from int, m SignStateMsg) {
	if from != m.Replica || !r.isECollector(m.Seq) {
		return
	}
	s := r.getSlot(m.Seq)
	if len(s.execPi.Data) > 0 {
		return
	}
	r.admitShare(m.Replica, SharePi, stateSigDigest(m.Seq, m.Digest), m.PiSig, func() {
		if len(s.execPi.Data) > 0 {
			return
		}
		if s.piShares == nil {
			s.piShares = make(map[string]map[int]threshsig.Share)
		}
		if fileByDigest(s.piShares, m.Digest, m.PiSig) != nil {
			r.tryExecCert(s, m.Digest)
		}
	})
}

// fileByDigest files a π share under the digest it signs and returns that
// digest's table, or nil for a signer already on file. Grouping by digest
// means only a digest f+1 distinct replicas vouch for (at least one
// honest) can be certified, so a Byzantine replica's signed-garbage digest
// can never block or hijack the certificate. One share per replica ACROSS
// the groups bounds them at n entries and keeps duplicate deliveries
// cheap; a Byzantine double-voter merely wastes its place on its first
// digest.
func fileByDigest(groups map[string]map[int]threshsig.Share, digest []byte, share threshsig.Share) map[int]threshsig.Share {
	for _, g := range groups {
		if _, dup := g[share.Signer]; dup {
			return nil
		}
	}
	group := groups[string(digest)]
	if group == nil {
		group = make(map[int]threshsig.Share)
		groups[string(digest)] = group
	}
	group[share.Signer] = share
	return group
}

// tryExecCert combines and broadcasts the f+1 execution certificate π(d)
// for an executed sequence (§V-D), staggered across redundant
// E-collectors. Its completion works on the slot it was started for: a
// checkpoint may collect the slot while the combine is in flight, and the
// clients of that block still get their execute-acks.
func (r *Replica) tryExecCert(s *slot, digest []byte) {
	group := s.piShares[string(digest)]
	if s.sentExecCert || len(group) < r.cfg.QuorumExec() {
		return
	}
	s.sentExecCert = true
	s.execDigest = digest
	fire := func() {
		if r.execCertified(s) {
			return // another E-collector already certified this sequence
		}
		r.csink.Combine(SharePi, stateSigDigest(s.seq, digest), sharesList(group), func(pi threshsig.Signature, err error) {
			if r.blame(group, err) {
				s.sentExecCert = false
				r.tryExecCert(s, digest)
			}
			if err != nil {
				return
			}
			s.execPi = pi
			r.broadcast(FullExecuteProofMsg{Seq: s.seq, Digest: digest, Pi: pi})
			r.sendExecuteAcks(s)
		})
	}
	// Stagger redundant E-collectors like C-collectors (§V).
	idx := slices.Index(r.cfg.ECollectors(s.seq, 0), r.id)
	if idx <= 0 || r.cfg.CollectorStagger <= 0 {
		fire()
		return
	}
	r.env.After(time.Duration(idx)*r.cfg.CollectorStagger, fire)
}

// sendExecuteAcks sends each client of block s its single execute-ack
// with a Merkle proof (§V-D). It requires both the combined π certificate
// and local execution of the block; whichever happens last triggers the
// acks (executeReady re-invokes it after executing).
func (r *Replica) sendExecuteAcks(s *slot) {
	if s.execAcked || len(s.execPi.Data) == 0 || !s.executed {
		return
	}
	s.execAcked = true
	if s.ackProofs == nil {
		s.ackProofs = r.proveBlock(s)
	}
	for i, proof := range s.ackProofs {
		req := s.execReqs[i]
		ent, ok := r.replyCache[req.Client]
		if proof == nil || !ok || ent.seq != s.seq {
			continue
		}
		r.env.Send(req.Client, ExecuteAckMsg{
			Seq: s.seq, L: i, Val: ent.val,
			Client: req.Client, Timestamp: req.Timestamp, View: r.view,
			Digest: s.execDigest, Pi: s.execPi, Proof: proof,
		})
	}
}

// proveBlock returns the Merkle proof of each client operation in the
// executed block s, nil where there is none to send.
func (r *Replica) proveBlock(s *slot) [][]byte {
	proofs := make([][]byte, len(s.execReqs))
	for i, req := range s.execReqs {
		if req.Direct {
			continue // direct requests already got PBFT-style replies
		}
		proof, err := r.app.ProveOperation(s.seq, i)
		if err != nil {
			r.tracef("prove op %d/%d: %v", s.seq, i, err)
		}
		proofs[i] = proof
	}
	return proofs
}

// execFallback sends direct replies to the clients of block seq when no
// full-execute-proof arrived in time (crashed E-collectors).
func (r *Replica) execFallback(seq uint64) {
	s, ok := r.slots[seq]
	if !ok || !s.executed || r.execCertified(s) {
		return
	}
	r.Metrics.ExecFallbacks++
	for i, req := range s.execReqs {
		ent, ok := r.replyCache[req.Client]
		if !ok || ent.seq != seq || ent.timestamp != req.Timestamp {
			continue
		}
		r.env.Send(req.Client, ReplyMsg{
			Seq: seq, L: i, Replica: r.id, View: r.view,
			Client: req.Client, Timestamp: req.Timestamp, Val: ent.val,
		})
	}
}

// onFullExecuteProof keeps an E-collector's proof for execCertified; it
// is not verified here because in the common case nothing ever asks.
func (r *Replica) onFullExecuteProof(from int, m FullExecuteProofMsg) {
	s, ok := r.slots[m.Seq]
	if !ok || s.execCertSeen {
		return
	}
	ecs := r.cfg.ECollectors(m.Seq, 0)
	if i := slices.Index(ecs, from); i >= 0 {
		if s.execProofs == nil {
			s.execProofs = make([]FullExecuteProofMsg, len(ecs))
		}
		s.execProofs[i] = m
	}
	// Execution certificates cover only the application digest; checkpoint
	// stability now requires the certified execution-state root (which
	// also commits the last-reply table), carried by checkpoint shares —
	// the two certificate families are domain-separated and cannot stand
	// in for each other.
}

// execCertified reports whether a valid π(d) for s is known to exist. The
// proofs received are verified only here, where the answer decides
// something — and not even here once every client of the block has been
// served: with nobody left to answer, a held proof is taken at its word.
func (r *Replica) execCertified(s *slot) bool {
	if s.execCertSeen || len(s.execProofs) == 0 {
		return s.execCertSeen
	}
	waiting := false
	for _, req := range s.execReqs {
		ent, ok := r.replyCache[req.Client]
		waiting = waiting || ok && ent.seq == s.seq && ent.timestamp == req.Timestamp
	}
	if !waiting {
		return true
	}
	for _, m := range s.execProofs {
		if len(m.Pi.Data) > 0 && r.suite.Pi.Verify(stateSigDigest(m.Seq, m.Digest), m.Pi) == nil {
			s.execCertSeen = true
			break
		}
	}
	s.execProofs = nil
	return s.execCertSeen
}

// ---------------------------------------------------------------------------
// Checkpoints, garbage collection, state transfer.

// initiateCheckpoint broadcasts this replica's π share over the certified
// execution-state root at a checkpoint sequence. Shares go to all replicas
// so everyone can assemble the stable certificate locally even when
// collectors are crashed; at one checkpoint per win/2 blocks the quadratic
// cost is amortized away (§V-F).
func (r *Replica) initiateCheckpoint(seq uint64, root []byte) {
	share, err := r.keys.Pi.Sign(CheckpointSigDigest(seq, root))
	if err != nil {
		return
	}
	msg := CheckpointShareMsg{Seq: seq, Replica: r.id, Digest: root, PiSig: share}
	r.broadcast(msg)
	r.onCheckpointShare(r.id, msg)
}

func (r *Replica) onCheckpointShare(from int, m CheckpointShareMsg) {
	if m.Seq <= r.lastStable || from != m.Replica || !r.signedBy(from, m.PiSig) {
		return
	}
	if r.ckptShares[m.Seq] == nil {
		r.ckptShares[m.Seq] = make(map[string]map[int]threshsig.Share)
	}
	// Exactly at the quorum, so shares arriving while its check is in flight
	// do not start a second one.
	if group := fileByDigest(r.ckptShares[m.Seq], m.Digest, m.PiSig); len(group) == r.cfg.QuorumExec() {
		r.certifyCheckpoint(m.Seq, m.Digest, group)
	}
}

// certifyCheckpoint assembles the stable-checkpoint certificate from a
// quorum of checkpoint shares: verified as one batched job, then combined
// (cryptosink.go says why these shares are checked first). Shares that
// fail are dropped, and what is left is tried again while it is a quorum.
func (r *Replica) certifyCheckpoint(seq uint64, digest []byte, group map[int]threshsig.Share) {
	job := VerifyJob{Kind: SharePi, Digest: CheckpointSigDigest(seq, digest), Shares: sharesList(group)}
	r.csink.VerifyShares([]VerifyJob{job}, func(ok [][]threshsig.Share) {
		switch good := ok[0]; {
		case seq <= r.lastStable: // stabilized while the shares were in flight
		case len(good) == len(job.Shares):
			r.csink.Combine(SharePi, job.Digest, good, func(pi threshsig.Signature, err error) {
				if err == nil && seq > r.lastStable {
					r.recordStable(seq, digest, pi)
				}
			})
		default:
			r.Metrics.BadShares += uint64(len(job.Shares) - len(good))
			for _, sh := range job.Shares {
				delete(group, sh.Signer)
			}
			for _, sh := range good {
				group[sh.Signer] = sh
			}
			if len(group) >= r.cfg.QuorumExec() {
				r.certifyCheckpoint(seq, digest, group)
			}
		}
	})
}

func (r *Replica) onCheckpointCert(_ int, m CheckpointCertMsg) {
	if m.Seq <= r.lastStable {
		return
	}
	if r.suite.Pi.Verify(CheckpointSigDigest(m.Seq, m.Digest), m.Pi) != nil {
		return
	}
	r.recordStable(m.Seq, m.Digest, m.Pi)
	if r.lastExecuted < m.Seq {
		// We are behind a stable checkpoint: fetch state if the gap is
		// not recoverable through the normal pipeline.
		r.maybeFetchState(m.Seq)
	}
}

func (r *Replica) recordStable(seq uint64, digest []byte, pi threshsig.Signature) {
	if seq <= r.lastStable && r.stableDigest != nil {
		// Even when the checkpoint itself is old news, pending captures
		// at or below the stable frontier are dead. A checkpoint whose
		// sequence was skipped by state-transfer catch-up re-enters here
		// (finishStateFetch → recordStable at the transferred seq) and
		// used to leak its captured snapshot forever: the GC below only
		// ran on the first recording, which had returned early while the
		// replica was still behind.
		r.gcPendingSnap(r.lastStable)
		return
	}
	r.Metrics.Checkpoints++
	prevStable := r.lastStable
	r.lastStable = seq
	if seq > r.windowBase {
		r.windowBase = seq
	}
	r.stableDigest = digest
	r.stablePi = pi
	if r.lastExecuted >= seq {
		// Adopt the certified snapshot captured when seq executed; if none
		// exists (restart, state transfer) capture now — but only when
		// execution has not pipelined past seq, or current state would be
		// mislabeled with the older certified digest and rejected by every
		// receiver. A capture whose root disagrees with the quorum-proven
		// digest must not be served: this replica has diverged and its
		// chunks would (correctly) be blamed by every fetcher.
		cs, ok := r.pendingSnap[seq]
		if !ok && r.lastExecuted == seq && r.SnapshotSeq() < seq {
			if built, err := r.buildSnapshot(seq, r.app.Digest()); err == nil {
				cs, ok = built, true
			}
		}
		if ok {
			if bytes.Equal(cs.Root(), digest) {
				cs.Pi = pi
				r.adoptSnapshot(cs)
			} else {
				r.tracef("checkpoint %d: local root disagrees with certified digest", seq)
			}
		}
		r.app.GarbageCollect(seq)
	}
	// Captures at or below the stable point are dead regardless of whether
	// this replica adopted one: unconditional, or a capture whose
	// stabilization is learned while the replica is behind (and whose
	// sequence is then skipped by catch-up) is never collected.
	r.gcPendingSnap(seq)
	// Drop slot state below the stable point — but never ahead of local
	// execution, or committed-but-unexecuted blocks would be lost. A slot
	// whose clients this E-collector has yet to ack outlives one stable
	// point: the checkpoint quorum can form before the slot's π quorum,
	// and the shares still to come must find the executed slot.
	gcTo := min(seq, r.lastExecuted)
	for n, s := range r.slots {
		owesAcks := n > prevStable && s.executed && !s.execAcked && r.cfg.ExecCollectors && r.isECollector(n)
		if n <= gcTo && !owesAcks {
			delete(r.slots, n)
		}
	}
	for s := range r.ckptShares {
		if s <= seq {
			delete(r.ckptShares, s)
		}
	}
	for s := range r.directReq {
		if s <= gcTo {
			delete(r.directReq, s)
		}
	}
	if r.lastExecuted < seq {
		// The network proved a stable state we have not reached: catch up
		// via state transfer (§VIII).
		r.maybeFetchState(seq)
	}
}

// buildSnapshot captures the certified execution state at seq: the
// application snapshot plus the canonical last-reply table, chunked and
// Merkle-committed. Valid only while app state and reply table are exactly
// at seq. Applications exposing the incremental capture path
// (ChunkedSnapshotter) are captured chunk-by-chunk through the capture
// cache: clean chunks (recognized by slice identity, per the interface
// contract) reuse their previous leaf hashes, so the capture stall is
// proportional to writes since the last checkpoint, not to state size.
func (r *Replica) buildSnapshot(seq uint64, appDigest []byte) (*CertifiedSnapshot, error) {
	if ca, ok := r.app.(ChunkedSnapshotter); ok {
		chunks, supported, err := ca.SnapshotChunks()
		if err != nil {
			return nil, err
		}
		if supported {
			if r.capCache == nil {
				r.capCache = &CaptureCache{}
			}
			cs := NewCertifiedSnapshotChunked(seq, appDigest, chunks, encodeReplyTable(r.replyCache), r.capCache)
			r.Metrics.CheckpointDirtyChunks += uint64(r.capCache.DirtyChunks())
			return cs, nil
		}
	}
	appSnap, err := r.app.Snapshot()
	if err != nil {
		return nil, err
	}
	return NewCertifiedSnapshot(seq, appDigest, appSnap, encodeReplyTable(r.replyCache)), nil
}

// snapGeneration is one retained certified snapshot plus the delta that
// produced it: the 1-based chunk indexes whose commitment leaves differ
// from the chain predecessor's. deltaKnown is false when the predecessor
// was unknown at adoption (first checkpoint, restart, state transfer) —
// such a generation still serves chunks and acts as a delta BASE, but
// cannot appear in the middle of a delta computation.
type snapGeneration struct {
	cs         *CertifiedSnapshot
	delta      []int
	deltaKnown bool
}

// curSnap returns the newest retained certified snapshot (nil when none):
// the snapshot advertised to fetchers.
func (r *Replica) curSnap() *CertifiedSnapshot {
	if len(r.snapGens) == 0 {
		return nil
	}
	return r.snapGens[len(r.snapGens)-1].cs
}

// genAt returns the retained generation at exactly seq, or nil.
func (r *Replica) genAt(seq uint64) *snapGeneration {
	for _, g := range r.snapGens {
		if g.cs.Seq == seq {
			return g
		}
	}
	return nil
}

// retainsSnapshot reports whether the generation at seq is still within
// the retention chain.
func (r *Replica) retainsSnapshot(seq uint64) bool { return r.genAt(seq) != nil }

// deltaSince returns the chunk indexes (1-based, in the CURRENT
// snapshot's numbering, sorted) a fetcher holding the complete retained
// generation at base must fetch to reach the current snapshot: the union
// of every later generation's delta, clipped to the current chunk count
// (indexes past it no longer exist). ok is false when base is not
// retained or an intermediate delta is unknown — the fetcher then needs
// a full transfer. Chunk indexes are stable across generations (leaf i
// commits chunk i), so an index absent from every delta has an unchanged
// leaf, and the base's copy of that chunk is bit-identical to the
// current one.
func (r *Replica) deltaSince(base uint64) ([]int, bool) {
	bi := -1
	for i, g := range r.snapGens {
		if g.cs.Seq == base {
			bi = i
			break
		}
	}
	if bi < 0 {
		return nil, false
	}
	cur := r.curSnap()
	n := cur.Header.NumChunks()
	set := make(map[int]bool)
	for _, g := range r.snapGens[bi+1:] {
		if !g.deltaKnown {
			return nil, false
		}
		for _, idx := range g.delta {
			if idx >= 1 && idx <= n {
				set[idx] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for idx := range set {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out, true
}

// snapshotDelta lists the 1-based chunk indexes whose commitment leaves
// differ between a snapshot and its successor: common indexes whose leaf
// hashes changed, plus every index the successor grew past the
// predecessor. O(chunks) hash comparisons; no chunk bytes are touched.
func snapshotDelta(prev, cur *CertifiedSnapshot) []int {
	np, nc := prev.Header.NumChunks(), cur.Header.NumChunks()
	common := np
	if nc < common {
		common = nc
	}
	var delta []int
	for i := 1; i <= common; i++ {
		ph, perr := prev.LeafHashAt(i)
		ch, cerr := cur.LeafHashAt(i)
		if perr != nil || cerr != nil || ph != ch {
			delta = append(delta, i)
		}
	}
	for i := common + 1; i <= nc; i++ {
		delta = append(delta, i)
	}
	return delta
}

// gcPendingSnap drops pending checkpoint captures at or below the stable
// frontier. Must run on EVERY stability recording — including re-entries
// for already-stable sequences — so captures whose checkpoint was skipped
// by state-transfer catch-up cannot leak.
func (r *Replica) gcPendingSnap(stable uint64) {
	for s := range r.pendingSnap {
		if s <= stable {
			delete(r.pendingSnap, s)
		}
	}
}

// adoptSnapshot appends a stable certified snapshot to the retention
// chain and hands it off for durable persistence so a restarted replica
// can serve state transfer immediately. In-memory serving arms at once
// (the capture is already chunked and Merkle-committed); the delta
// against the previous generation is computed here (leaf-hash diff) so
// laggards can fetch increments. Persistence goes through the async
// SnapshotSink when one is installed — encode+write of a large state
// would otherwise stall the event loop every win/2 executions — and
// falls back to the synchronous SnapshotStore path otherwise. The sink's
// completion callback arms the restart-survivable serving point
// (durableSnap) once the bytes are actually on disk, but only while the
// persisted generation is still retained: a slow persist completing
// after retention evicted its generation must not advertise a serving
// point whose chunks (and, after a later prune, whose durable file) are
// gone.
func (r *Replica) adoptSnapshot(cs *CertifiedSnapshot) {
	cur := r.curSnap()
	if cur != nil && cur.Seq >= cs.Seq {
		return
	}
	gen := &snapGeneration{cs: cs}
	if cur != nil {
		gen.delta = snapshotDelta(cur, cs)
		gen.deltaKnown = true
	}
	r.snapGens = append(r.snapGens, gen)
	if keep := r.cfg.snapshotRetain(); len(r.snapGens) > keep {
		// Copy into a fresh slice so the shrinking window cannot pin
		// evicted generations through the old backing array.
		trimmed := make([]*snapGeneration, keep)
		copy(trimmed, r.snapGens[len(r.snapGens)-keep:])
		r.snapGens = trimmed
	}
	keepFrom := r.snapGens[0].cs.Seq
	if r.sink != nil {
		seq := cs.Seq
		r.sink.PersistSnapshot(cs, keepFrom, func(err error) {
			if err != nil {
				r.tracef("async snapshot persist %d failed: %v", seq, err)
				return
			}
			if seq > r.durableSnap && r.retainsSnapshot(seq) {
				r.durableSnap = seq
				r.Metrics.SnapshotPersists++
			}
		})
		return
	}
	if ss, ok := r.store.(SnapshotStore); ok && r.store != nil {
		if err := PersistCertified(ss, cs, keepFrom); err != nil {
			r.tracef("persisting snapshot %d failed: %v", cs.Seq, err)
		} else if cs.Seq > r.durableSnap {
			r.durableSnap = cs.Seq
			r.Metrics.SnapshotPersists++
		}
	}
}

// SetSnapshotSink installs the asynchronous snapshot persistence hook.
// Call before the replica starts processing messages.
func (r *Replica) SetSnapshotSink(s SnapshotSink) { r.sink = s }

// DurableSnapshotSeq reports the highest snapshot sequence known to be
// durably persisted (0 when none): the serving point that survives a
// restart, as opposed to SnapshotSeq, which arms immediately on adoption.
func (r *Replica) DurableSnapshotSeq() uint64 { return r.durableSnap }

// SnapshotSeq reports the sequence of the newest certified snapshot this
// replica can serve (0 when none).
func (r *Replica) SnapshotSeq() uint64 {
	cs := r.curSnap()
	if cs == nil {
		return 0
	}
	return cs.Seq
}

// RetainedSnapshotSeqs lists the sequences of every retained snapshot
// generation, oldest first — observability for tests and operators.
func (r *Replica) RetainedSnapshotSeqs() []uint64 {
	out := make([]uint64, len(r.snapGens))
	for i, g := range r.snapGens {
		out[i] = g.cs.Seq
	}
	return out
}

// SnapshotBlameCounts reports, per server id, how many pieces of snapshot
// material from that server failed verification against a certified root.
func (r *Replica) SnapshotBlameCounts() map[int]int {
	out := make(map[int]int, len(r.snapshotBlames))
	for id, n := range r.snapshotBlames {
		out[id] = n
	}
	return out
}

// fetchTimeoutStrikes is how many consecutive unanswered chunk requests
// exclude a server from the rest of the transfer (soft exclusion — no
// tamper blame is recorded, but a slow-trickling server stops consuming
// window slots the way a tampering one stops serving chunks at all).
const fetchTimeoutStrikes = 3

// fetchStats accumulates one server's observed state-transfer service
// quality for the window scheduler: outstanding load, consecutive
// timeouts, and an EWMA of request→verified-chunk latency. Faster
// servers absorb more of the window; unresponsive ones lose share and
// are eventually excluded.
type fetchStats struct {
	outstanding int
	timeouts    int // consecutive unanswered requests
	ewma        time.Duration
	ewmaSet     bool
}

// observe folds one request→verified-chunk latency into the EWMA (α=1/4).
func (st *fetchStats) observe(d time.Duration) {
	if !st.ewmaSet {
		st.ewma, st.ewmaSet = d, true
		return
	}
	st.ewma += (d - st.ewma) / 4
}

// score ranks observed service quality (lower is better). Unknown
// servers score zero so every peer gets probed; each consecutive timeout
// doubles the effective latency, steering the window away from
// slow-trickling servers well before the exclusion threshold.
func (st *fetchStats) score() time.Duration {
	s := st.ewma
	strikes := st.timeouts
	if strikes > 8 {
		strikes = 8
	}
	for i := 0; i < strikes; i++ {
		s = 2*s + 10*time.Millisecond
	}
	return s
}

// chunkReq is one in-flight chunk request of the bounded window.
type chunkReq struct {
	server int
	sentAt time.Duration
}

// stateFetch tracks one in-progress chunked state transfer.
type stateFetch struct {
	target uint64 // minimum acceptable snapshot sequence
	// Meta collection: competing verified metas gathered for a short
	// window before the transfer commits to the HIGHEST certified
	// sequence among them — a Byzantine server racing a stale-but-valid
	// meta can no longer steer the transfer by answering first.
	bestMeta  *SnapshotMetaMsg
	metaTimer func() // cancel
	// Filled once a meta is adopted:
	seq     uint64
	root    []byte
	pi      threshsig.Signature
	header  SnapshotHeader
	chunks  [][]byte
	missing int
	next    int // refill scan cursor (1-based chunk index)
	// Delta-transfer state. prefilled lists the chunk indexes seeded
	// from a locally held base instead of fetched; deltaBase is that
	// base's sequence (0 = full transfer). The delta fields of a meta
	// ride OUTSIDE the π-certified root, so prefilled chunks are only
	// trusted once the fully assembled snapshot reproduces the certified
	// root (finishStateFetch); metaFrom remembers who supplied the delta
	// list so a mismatch blames the right server. fetched counts chunks
	// verified over the wire this transfer — the progress a restart
	// would discard.
	prefilled []int
	deltaBase uint64
	metaFrom  int
	fetched   int
	// bestFrom is the sender of bestMeta (meta under collection).
	bestFrom int
	// inflight is the bounded request window: chunk index → outstanding
	// request. Wiped whole when a newer meta restarts the transfer, so
	// stale accounting can never leak into the new window.
	inflight map[int]chunkReq
	// servers is the per-server accounting the scheduler steers by.
	servers map[int]*fetchStats
	// blamed servers are excluded from further requests this transfer.
	blamed  map[int]bool
	attempt int
	// lastProgress is when the transfer last advanced (created, meta
	// accepted, or a chunk verified): the signal separating a healthy
	// long transfer from a stalled one.
	lastProgress time.Duration
	// svc is the transfer-wide request→verified-chunk latency EWMA: the
	// retry deadline's fallback before a specific server's own EWMA is
	// seeded (early in a transfer the queue tail behind a full window
	// easily exceeds any fixed timeout; expiring it would churn).
	svc    time.Duration
	svcSet bool
	cancel func() // whole-transfer retry timer
	pacer  func() // per-chunk retry scan timer
}

// stats returns the accounting entry for a server, creating it lazily.
func (f *stateFetch) stats(id int) *fetchStats {
	st, ok := f.servers[id]
	if !ok {
		st = &fetchStats{}
		f.servers[id] = st
	}
	return st
}

// stopTimers cancels every timer owned by the transfer.
func (f *stateFetch) stopTimers() {
	if f.cancel != nil {
		f.cancel()
		f.cancel = nil
	}
	if f.pacer != nil {
		f.pacer()
		f.pacer = nil
	}
	if f.metaTimer != nil {
		f.metaTimer()
		f.metaTimer = nil
	}
}

// fetchPeers lists the servers still eligible for this transfer. If every
// peer has been excluded the set resets: with at most f Byzantine servers
// a full exclusion list means transient corruption or loss, not a hostile
// majority. The reset also forgives timeout strikes so every server gets
// a fresh probe instead of being instantly re-excluded.
func (r *Replica) fetchPeers(f *stateFetch) []int {
	peers := make([]int, 0, r.cfg.N()-1)
	for id := 1; id <= r.cfg.N(); id++ {
		if id != r.id && !f.blamed[id] {
			peers = append(peers, id)
		}
	}
	if len(peers) == 0 {
		f.blamed = make(map[int]bool)
		for _, st := range f.servers {
			st.timeouts = 0
		}
		for id := 1; id <= r.cfg.N(); id++ {
			if id != r.id {
				peers = append(peers, id)
			}
		}
	}
	return peers
}

// blameSnapshotServer records a server whose snapshot material failed
// verification against the certified root (§VIII: any single honest server
// suffices; a tampering one is excluded and provably at fault, since
// correct material is Merkle-provable against a threshold-signed root).
func (r *Replica) blameSnapshotServer(f *stateFetch, id int, why string) {
	r.tracef("blaming snapshot server %d: %s", id, why)
	f.blamed[id] = true
	r.snapshotBlames[id]++
	r.Metrics.SnapshotBlames++
}

func (r *Replica) maybeFetchState(target uint64) {
	if r.lastExecuted >= target {
		return
	}
	if r.fetch != nil {
		if target > r.fetch.target {
			r.fetch.target = target
		}
		return
	}
	r.fetch = &stateFetch{
		target:       target,
		blamed:       make(map[int]bool),
		servers:      make(map[int]*fetchStats),
		lastProgress: r.env.Now(),
	}
	r.Metrics.StateFetches++
	r.sendFetchState()
	r.armFetchRetry()
}

// sendFetchState asks every eligible peer for snapshot metadata. The
// request is tiny and the answers compete: the fetcher adopts the highest
// certified sequence it collects (see onSnapshotMeta). HaveSeq advertises
// the newest base this fetcher could apply a delta against: mid-transfer
// that is the snapshot being fetched (a delta against it carries the
// verified chunks forward through a supersession), otherwise the newest
// retained generation.
func (r *Replica) sendFetchState() {
	f := r.fetch
	have := uint64(0)
	if f.seq != 0 {
		have = f.seq
	} else if cs := r.curSnap(); cs != nil {
		have = cs.Seq
	}
	for _, peer := range r.fetchPeers(f) {
		r.env.Send(peer, FetchStateMsg{Replica: r.id, Seq: f.target, HaveSeq: have})
	}
}

// dropStaleFetch cancels an in-progress state transfer that can no longer
// deliver anything: local execution caught up with both the requested
// target and (if metadata was already accepted) the transfer's snapshot
// sequence. Without this, a replica that catches up through gap repair
// keeps an immortal retry timer and may later re-download a snapshot it
// does not need.
func (r *Replica) dropStaleFetch() {
	f := r.fetch
	if f == nil || r.lastExecuted < f.target || r.lastExecuted < f.seq {
		return
	}
	f.stopTimers()
	r.fetch = nil
}

// armFetchRetry re-drives a stalled transfer at the whole-transfer level:
// metadata requests repeat while no meta has been adopted, and every few
// attempts the metadata request repeats even mid-transfer — servers
// garbage-collect superseded snapshots, so a transfer locked to a
// checkpoint the whole cluster has advanced past must discover the newer
// one and restart rather than re-request dead chunks forever. Individual
// lost chunk requests recover much sooner through the per-chunk pacer.
func (r *Replica) armFetchRetry() {
	f := r.fetch
	f.cancel = r.env.After(4*r.cfg.ViewChangeTimeout/3, func() {
		if r.fetch != f {
			return
		}
		r.dropStaleFetch()
		if r.fetch != f {
			return
		}
		f.attempt++
		if f.seq == 0 {
			r.adoptBestMeta() // a meta under collection beats re-polling
		}
		if f.seq == 0 || f.attempt%3 == 0 {
			r.sendFetchState()
		}
		if f.seq != 0 {
			r.fillFetchWindow()
		}
		r.armFetchRetry()
	})
}

func (r *Replica) onFetchState(_ int, m FetchStateMsg) {
	cs := r.curSnap()
	if cs == nil || cs.Seq < m.Seq {
		return
	}
	hp, err := cs.ProveHeader()
	if err != nil {
		return
	}
	meta := SnapshotMetaMsg{
		Seq:         cs.Seq,
		Root:        cs.Root(),
		Pi:          cs.Pi,
		Header:      cs.Header,
		HeaderProof: hp,
	}
	// Delta advertisement: when the fetcher already holds a generation
	// this server retains, list the chunks that changed since — the
	// fetcher seeds the rest locally. Advisory only: the fetcher verifies
	// the reassembled root and falls back to refetching on any mismatch.
	if m.HaveSeq > 0 && m.HaveSeq < cs.Seq {
		if delta, ok := r.deltaSince(m.HaveSeq); ok {
			meta.DeltaBase = m.HaveSeq
			meta.DeltaChunks = delta
		}
	}
	r.env.Send(m.Replica, meta)
}

func (r *Replica) onSnapshotMeta(from int, m SnapshotMetaMsg) {
	r.dropStaleFetch()
	f := r.fetch
	if f == nil {
		return
	}
	if from < 1 || from > r.cfg.N() || from == r.id {
		return
	}
	if m.Seq <= r.lastExecuted || m.Seq < f.target || (f.seq != 0 && m.Seq < f.seq) {
		// Metadata BELOW what the transfer needs. The sender is a laggard
		// — an honest server behind the adopted checkpoint (say, freshly
		// restarted) answering chunk requests with the only snapshot it
		// has. It cannot serve this transfer's chunks, so demote it:
		// expire its in-flight requests and let the scheduler shift its
		// window share elsewhere immediately, instead of burning a full
		// retry timeout per request routed to it. Staleness is not
		// tampering — no blame — and a server can only demote itself, so
		// acting before certificate verification is safe.
		r.demoteLaggardServer(f, from, m.Seq)
		return
	}
	// Mid-transfer, only a strictly newer certified snapshot is
	// interesting: it means servers advanced past the one being fetched.
	// Metadata for the sequence already in flight is ignored.
	if f.seq != 0 && m.Seq == f.seq {
		return
	}
	// π over the certified root, then the header's membership proof: after
	// this every chunk is independently verifiable, from any server.
	if r.suite.Pi.Verify(CheckpointSigDigest(m.Seq, m.Root), m.Pi) != nil {
		r.blameSnapshotServer(f, from, "snapshot certificate invalid")
		return
	}
	if err := VerifySnapshotHeader(m.Root, m.Header, m.HeaderProof); err != nil {
		r.blameSnapshotServer(f, from, err.Error())
		return
	}
	// Sanitize the ADVISORY delta fields before they can influence the
	// transfer: indexes must name real chunks of THIS meta's snapshot and
	// the base must be one this fetcher can actually seed from. A lying
	// list that survives this (wrongly claiming chunks clean) is caught
	// by the whole-snapshot root check in finishStateFetch.
	if m.DeltaBase != 0 {
		ok := m.DeltaBase == f.seq || r.retainsSnapshot(m.DeltaBase)
		n := m.Header.NumChunks()
		if len(m.DeltaChunks) > n {
			ok = false
		}
		for _, idx := range m.DeltaChunks {
			if idx < 1 || idx > n {
				ok = false
				break
			}
		}
		if !ok {
			m.DeltaBase, m.DeltaChunks = 0, nil
		}
	}
	if f.seq != 0 {
		// Mid-transfer supersession. A delta against the in-flight base
		// carries every verified chunk forward, so adopting the newer
		// meta costs nothing and skips re-fetching state the transfer
		// already proved — take it immediately. Without that delta,
		// restarting throws away every chunk fetched so far, so an
		// advancing transfer ignores the newer meta and completes
		// (servers retain superseded generations precisely to let it);
		// only a STALLED transfer — its snapshot garbage-collected
		// everywhere, nothing arriving — restarts at the newer state.
		if m.DeltaBase == f.seq {
			r.tracef("state transfer advancing %d → %d via delta (%d changed chunks)", f.seq, m.Seq, len(m.DeltaChunks))
			r.adoptMeta(from, m)
			return
		}
		if !r.fetchStalled(f) {
			return
		}
		r.tracef("state transfer restarting at %d (superseded stalled %d)", m.Seq, f.seq)
		r.adoptMeta(from, m)
		return
	}
	// Initial choice: collect competing metas briefly and adopt the
	// highest certified sequence. Taking the first meta at or above the
	// target instead would let a Byzantine server race a STALE-but-valid
	// certified snapshot and win — pinning recovery to a checkpoint whose
	// chunks the honest servers may already have garbage-collected.
	if f.bestMeta == nil || m.Seq > f.bestMeta.Seq {
		mm := m
		f.bestMeta = &mm
		f.bestFrom = from
	}
	if f.metaTimer == nil {
		f.metaTimer = r.env.After(r.cfg.snapshotMetaWait(), func() {
			f.metaTimer = nil
			if r.fetch == f {
				r.adoptBestMeta()
			}
		})
	}
}

// expiryLimit is the adaptive per-request retry deadline: the configured
// age stretched to cover the observed service latency (the server's own
// EWMA, falling back to the transfer-wide one before it is seeded),
// bounded so a dead server still expires.
func expiryLimit(f *stateFetch, st *fetchStats, age time.Duration) time.Duration {
	limit := age
	ewma := f.svc
	if st != nil && st.ewmaSet && st.ewma > ewma {
		ewma = st.ewma
	}
	if adaptive := 4 * ewma; adaptive > limit {
		limit = adaptive
	}
	if bound := 8 * age; limit > bound {
		limit = bound
	}
	return limit
}

// fetchStalled reports whether the in-flight transfer has stopped
// advancing: no verified chunk (or accepted meta) within twice the
// (adaptive) retry deadline — a transfer merely waiting out slow-server
// retries is NOT stalled. Used to gate mid-transfer restarts and the
// progress-timeout suppression.
func (r *Replica) fetchStalled(f *stateFetch) bool {
	return r.env.Now()-f.lastProgress >= 2*expiryLimit(f, nil, r.cfg.chunkRetryTimeout())
}

// demoteLaggardServer reacts to snapshot metadata OLDER than the
// transfer in flight: the sender cannot serve the in-flight chunks (it
// does not have them), so its outstanding requests are expired at once
// and it takes a timeout strike, shifting its window share to servers
// with current material. Repeated stale answers accumulate strikes into
// a soft exclusion, exactly like unresponsiveness — and like
// unresponsiveness it is forgiven if the peer set resets.
func (r *Replica) demoteLaggardServer(f *stateFetch, from int, seq uint64) {
	if f.seq == 0 || seq >= f.seq {
		return
	}
	st := f.stats(from)
	var expired []int
	for idx, req := range f.inflight {
		if req.server == from {
			expired = append(expired, idx)
		}
	}
	sort.Ints(expired)
	for _, idx := range expired {
		delete(f.inflight, idx)
		st.outstanding--
	}
	st.timeouts++
	if st.timeouts >= fetchTimeoutStrikes && !f.blamed[from] {
		r.tracef("snapshot server %d serves only %d < %d; excluding from transfer", from, seq, f.seq)
		f.blamed[from] = true
		r.Metrics.SnapshotTimeoutExclusions++
	}
	if len(expired) > 0 {
		r.fillFetchWindow()
	}
}

// adoptBestMeta commits the transfer to the highest certified meta
// collected so far.
func (r *Replica) adoptBestMeta() {
	f := r.fetch
	if f == nil || f.seq != 0 || f.bestMeta == nil {
		return
	}
	m := *f.bestMeta
	from := f.bestFrom
	f.bestMeta = nil
	r.adoptMeta(from, m)
}

// deltaBaseChunks resolves the chunk source for a delta prefill: a
// complete retained generation at base, or — when the delta is against
// the very snapshot this transfer was fetching (mid-transfer
// supersession) — the superseded window's verified chunks, so fetched
// progress carries over instead of being discarded.
func (r *Replica) deltaBaseChunks(base, prevSeq uint64, prevChunks [][]byte) [][]byte {
	if g := r.genAt(base); g != nil {
		return g.cs.Chunks
	}
	if base != 0 && base == prevSeq {
		return prevChunks
	}
	return nil
}

// adoptMeta (re)starts the transfer at a verified meta. All in-flight
// accounting from a superseded window is wiped so it cannot leak into the
// new one: late chunks for the old sequence are dropped by the seq check
// in onSnapshotChunk, and per-server outstanding counters reset so the
// new window fills completely (a restart that inherited phantom
// outstanding requests would under-fill its window forever). When the
// meta carries a usable delta, the chunks it marks clean are seeded from
// the base this replica already holds — a laggard several checkpoint
// intervals behind then moves base + deltas over the wire instead of
// base × intervals, and a transfer superseded mid-flight keeps its
// verified chunks rather than restarting.
func (r *Replica) adoptMeta(from int, m SnapshotMetaMsg) {
	f := r.fetch
	if f.metaTimer != nil {
		f.metaTimer()
		f.metaTimer = nil
	}
	f.bestMeta = nil
	prevSeq, prevChunks, prevFetched := f.seq, f.chunks, f.fetched
	f.seq = m.Seq
	f.root = append([]byte(nil), m.Root...)
	f.pi = m.Pi
	f.header = m.Header
	f.chunks = make([][]byte, m.Header.NumChunks())
	f.missing = len(f.chunks)
	f.next = 1
	f.inflight = make(map[int]chunkReq)
	f.prefilled = nil
	f.deltaBase = 0
	f.metaFrom = 0
	f.fetched = 0
	for _, st := range f.servers {
		st.outstanding = 0
	}
	f.lastProgress = r.env.Now()
	if m.DeltaBase != 0 {
		if base := r.deltaBaseChunks(m.DeltaBase, prevSeq, prevChunks); base != nil {
			inDelta := make(map[int]bool, len(m.DeltaChunks))
			for _, idx := range m.DeltaChunks {
				inDelta[idx] = true
			}
			for i := 1; i <= len(f.chunks) && i <= len(base); i++ {
				if inDelta[i] || base[i-1] == nil {
					continue
				}
				f.chunks[i-1] = base[i-1]
				f.missing--
				f.prefilled = append(f.prefilled, i)
			}
			if len(f.prefilled) > 0 {
				f.deltaBase = m.DeltaBase
				f.metaFrom = from
				r.Metrics.SnapshotDeltaTransfers++
				r.Metrics.SnapshotChunksReused += uint64(len(f.prefilled))
			}
		}
	}
	if prevSeq != 0 && prevFetched > 0 && !(f.deltaBase == prevSeq && f.deltaBase != 0) {
		// This supersession discarded chunks already verified over the
		// wire — the restart the retention chain and delta path exist to
		// avoid. (Supersessions that carried progress forward, or hit
		// before anything was fetched, do not count.)
		r.Metrics.SnapshotTransferRestarts++
	}
	r.tracef("state transfer to %d: %d chunks to fetch, %d reused (window %d)", f.seq, f.missing, len(f.prefilled), r.cfg.fetchWindow())
	if f.missing == 0 {
		r.finishStateFetch()
		return
	}
	r.fillFetchWindow()
	r.armChunkPacer()
}

// pickFetchServer selects the server for the next chunk request: the
// non-excluded server with the fewest outstanding requests, ties broken
// by the better observed service score, then by id (determinism). Fast
// servers therefore absorb more of the window and slow or unresponsive
// ones naturally lose share (§VIII needs only one honest server; the
// scheduler just prefers the good ones).
func (r *Replica) pickFetchServer(f *stateFetch) int {
	best := -1
	var bestSt *fetchStats
	for _, id := range r.fetchPeers(f) {
		st := f.stats(id)
		if best < 0 || st.outstanding < bestSt.outstanding ||
			(st.outstanding == bestSt.outstanding && st.score() < bestSt.score()) {
			best, bestSt = id, st
		}
	}
	return best
}

// fillFetchWindow tops the bounded in-flight window up with requests for
// missing, not-yet-requested chunks, each routed through the per-server
// scheduler. This is the only place chunk requests are issued.
func (r *Replica) fillFetchWindow() {
	f := r.fetch
	if f == nil || f.seq == 0 || f.missing == 0 {
		return
	}
	win := r.cfg.fetchWindow()
	n := len(f.chunks)
	for scanned := 0; len(f.inflight) < win && scanned < n; scanned++ {
		idx := f.next
		f.next++
		if f.next > n {
			f.next = 1
		}
		if f.chunks[idx-1] != nil {
			continue
		}
		if _, ok := f.inflight[idx]; ok {
			continue
		}
		server := r.pickFetchServer(f)
		if server < 0 {
			return
		}
		f.inflight[idx] = chunkReq{server: server, sentAt: r.env.Now()}
		f.stats(server).outstanding++
		r.env.Send(server, FetchSnapshotChunkMsg{Replica: r.id, Seq: f.seq, Index: idx})
	}
}

// expireInflight removes in-flight requests older than their deadline,
// penalizing the assigned servers: consecutive timeouts shrink a
// server's scheduler share and eventually exclude it from the transfer.
// The deadline adapts to the assigned server's observed service latency
// — a loaded-but-honest server answering in 800ms must not be treated
// like a dead one by a fixed 500ms timer (the spurious retries would
// more than double the transferred bytes) — but stays bounded so an
// actually dead server still expires. Indexes are processed in sorted
// order so simulated runs stay deterministic.
func (r *Replica) expireInflight(f *stateFetch, age time.Duration) {
	now := r.env.Now()
	var expired []int
	for idx, req := range f.inflight {
		if now-req.sentAt >= expiryLimit(f, f.stats(req.server), age) {
			expired = append(expired, idx)
		}
	}
	sort.Ints(expired)
	struck := make(map[int]bool)
	for _, idx := range expired {
		req := f.inflight[idx]
		delete(f.inflight, idx)
		st := f.stats(req.server)
		st.outstanding--
		r.Metrics.SnapshotChunkRetries++
		// One strike per server per scan: a single tick expiring several
		// of one server's dropped replies is one observation of
		// unresponsiveness, not three.
		if !struck[req.server] {
			struck[req.server] = true
			st.timeouts++
			if st.timeouts >= fetchTimeoutStrikes && !f.blamed[req.server] {
				r.tracef("snapshot server %d unanswered %d scans; excluding from transfer", req.server, st.timeouts)
				f.blamed[req.server] = true
				r.Metrics.SnapshotTimeoutExclusions++
			}
		}
	}
}

// armChunkPacer runs the per-chunk retry scan: an outstanding request
// unanswered for ChunkRetryTimeout is treated as lost and its chunk
// re-enters the window toward a better server. A dropped SnapshotChunkMsg
// now costs one retry interval instead of a whole-transfer restart.
func (r *Replica) armChunkPacer() {
	f := r.fetch
	timeout := r.cfg.chunkRetryTimeout()
	if f.pacer != nil {
		return
	}
	tick := timeout / 2
	if tick <= 0 {
		tick = timeout
	}
	f.pacer = r.env.After(tick, func() {
		f.pacer = nil
		if r.fetch != f || f.seq == 0 {
			return
		}
		r.expireInflight(f, timeout)
		r.fillFetchWindow()
		if f.missing > 0 {
			r.armChunkPacer()
		}
	})
}

func (r *Replica) onFetchSnapshotChunk(_ int, m FetchSnapshotChunkMsg) {
	cur := r.curSnap()
	if cur == nil {
		return
	}
	var cs *CertifiedSnapshot
	if g := r.genAt(m.Seq); g != nil {
		// Any retained generation serves: in-flight transfers keep
		// completing across checkpoint supersessions for the whole
		// retention depth.
		cs = g.cs
	} else if cur.Seq > m.Seq {
		// Superseded beyond retention: the chunks are gone, but
		// re-offering the current metadata lets the fetcher restart
		// at the checkpoint this server can actually serve. (The
		// fetcher-side stall gate keeps an advancing transfer from
		// thrashing on this; only a dead one restarts.)
		r.onFetchState(m.Replica, FetchStateMsg{Replica: m.Replica, Seq: m.Seq})
		return
	} else {
		// The fetcher wants a NEWER snapshot than this server holds —
		// this server is the laggard (say, freshly restarted while the
		// fetcher adopted a later certified checkpoint). Dropping the
		// request silently would leave the fetcher burning a retry
		// timeout per request routed here; answering with current
		// metadata (below the requested sequence) lets the fetcher's
		// scheduler demote this server immediately instead.
		r.onFetchState(m.Replica, FetchStateMsg{Replica: m.Replica})
		return
	}
	if m.Index < 1 || m.Index > len(cs.Chunks) {
		return
	}
	proof, err := cs.ProveChunk(m.Index)
	if err != nil {
		return
	}
	r.env.Send(m.Replica, SnapshotChunkMsg{
		Seq:   m.Seq,
		Index: m.Index,
		Data:  cs.Chunks[m.Index-1],
		Proof: proof,
	})
}

func (r *Replica) onSnapshotChunk(from int, m SnapshotChunkMsg) {
	f := r.fetch
	if f == nil || f.seq == 0 || m.Seq != f.seq {
		return
	}
	if from < 1 || from > r.cfg.N() || from == r.id {
		return
	}
	if m.Index < 1 || m.Index > len(f.chunks) || f.chunks[m.Index-1] != nil {
		return
	}
	req, wasInflight := f.inflight[m.Index]
	if err := VerifySnapshotChunk(f.root, f.header, m.Index, m.Data, m.Proof); err != nil {
		// Tampered or corrupt: blame the sender, exclude it, and route the
		// chunk back through the scheduler. (The pre-windowed code
		// re-derived the retry peer from the PRE-blame rotation — after
		// fetchPeers shrank, `(index+attempt) % len(peers)` could land on
		// the very server just excluded, or on the same server again.)
		r.blameSnapshotServer(f, from, fmt.Sprintf("chunk %d: %v", m.Index, err))
		if wasInflight && req.server == from {
			delete(f.inflight, m.Index)
			f.stats(from).outstanding--
		}
		r.fillFetchWindow()
		return
	}
	if wasInflight {
		delete(f.inflight, m.Index)
		f.stats(req.server).outstanding--
	}
	st := f.stats(from)
	st.timeouts = 0
	if wasInflight && req.server == from {
		d := r.env.Now() - req.sentAt
		st.observe(d)
		if !f.svcSet {
			f.svc, f.svcSet = d, true
		} else {
			f.svc += (d - f.svc) / 4
		}
	}
	f.lastProgress = r.env.Now()
	f.chunks[m.Index-1] = m.Data
	f.missing--
	f.fetched++
	r.Metrics.SnapshotChunks++
	if f.missing == 0 {
		r.finishStateFetch()
		return
	}
	r.fillFetchWindow()
}

// finishStateFetch installs a fully transferred, chunk-verified snapshot:
// restore the application, replace the last-reply table with the CERTIFIED
// one (the exactly-once filter's state is now exactly what the π quorum
// signed), and resume from the restored frontier.
func (r *Replica) finishStateFetch() {
	f := r.fetch
	if r.lastExecuted >= f.seq {
		// Execution advanced past the transfer while chunks were in
		// flight (gap repair): installing now would ROLL BACK application
		// state and the reply table. Drop the transfer; if a raised
		// target still lies ahead, start over against it.
		f.stopTimers()
		r.fetch = nil
		r.maybeFetchState(f.target)
		return
	}
	// Rebuild the commitment over the assembled chunks and require the
	// certified root before installing anything. Chunks fetched over the
	// wire were leaf-verified individually, but chunks seeded from a
	// local base were vouched for only by the meta's ADVISORY delta list
	// — this whole-snapshot check is what makes that list safe to act on.
	cs := &CertifiedSnapshot{Seq: f.seq, Header: f.header, Chunks: f.chunks, Pi: f.pi}
	cs.build()
	if !bytes.Equal(cs.Root(), f.root) {
		if len(f.prefilled) > 0 {
			// A lying delta list claimed changed chunks clean. Blame its
			// sender, drop ONLY the seeded chunks, and fetch them over
			// the wire — every individually verified chunk is kept, so
			// the lie costs the liar its service, not this transfer its
			// progress.
			r.blameSnapshotServer(f, f.metaFrom, "delta prefill mismatched certified root")
			for _, idx := range f.prefilled {
				f.chunks[idx-1] = nil
				f.missing++
			}
			f.prefilled = nil
			f.deltaBase = 0
			f.lastProgress = r.env.Now()
			r.fillFetchWindow()
			r.armChunkPacer()
			return
		}
		// Unreachable with leaf-verified chunks and no prefill.
		r.tracef("state transfer root mismatch at %d", f.seq)
		r.abortStateFetch()
		return
	}
	appBytes, tableBytes, err := AssembleSnapshot(f.header, f.chunks)
	if err != nil {
		// Unreachable with verified chunks; restart the transfer.
		r.tracef("state transfer assembly failed: %v", err)
		r.abortStateFetch()
		return
	}
	table, err := decodeReplyTable(tableBytes)
	if err != nil {
		// The certified table itself is malformed: the honest quorum never
		// signs one, so this replica's decoder and the cluster disagree —
		// do not install half a snapshot.
		r.tracef("state transfer reply table malformed: %v", err)
		r.abortStateFetch()
		return
	}
	if err := r.app.Restore(appBytes); err != nil {
		r.tracef("state transfer restore failed: %v", err)
		r.abortStateFetch()
		return
	}
	if !bytes.Equal(r.app.Digest(), f.header.AppDigest) {
		// Defense in depth: chunks were leaf-verified, so this indicates
		// local divergence, not a tampering server.
		r.tracef("state transfer: restored app digest mismatch")
		r.abortStateFetch()
		return
	}
	// The restore replaced application state wholesale; cached capture
	// identities no longer describe it. The next checkpoint re-hashes
	// every chunk and re-seeds the cache.
	r.capCache = nil
	r.replyCache = table
	for client, e := range table {
		if ts := r.seen[client]; ts < e.timestamp {
			r.seen[client] = e.timestamp
		}
		// Requests the certified table proves executed are no longer
		// pending: drop their watch entries, or the liveness timer keeps
		// firing (and spinning view changes) over work that finished
		// below the snapshot and will never execute locally.
		if w, ok := r.watch[client]; ok && w.ts <= e.timestamp {
			delete(r.watch, client)
		}
	}
	seq, root, pi := f.seq, f.root, f.pi
	f.stopTimers()
	r.fetch = nil
	r.lastExecuted = seq
	// Drop protocol state the snapshot supersedes: slots at or below the
	// restored frontier can never execute locally (their effects are IN
	// the snapshot) and an uncommitted one would read as outstanding work
	// forever, spinning progress-timeout view changes. recordStable has
	// typically already run for this checkpoint — that is what triggered
	// the transfer — and stopped its GC at the OLD execution frontier, so
	// it will not run again below.
	for s := range r.slots {
		if s <= seq {
			delete(r.slots, s)
		}
	}
	for s := range r.directReq {
		if s <= seq {
			delete(r.directReq, s)
		}
	}
	r.adoptSnapshot(cs)
	r.tracef("state transfer complete at %d (%d servers blamed)", seq, len(f.blamed))
	r.recordStable(seq, root, pi)
	r.executeReady()
}

// abortStateFetch cancels the current transfer; the protocol will retrigger
// state transfer from recordStable/maybeFetchState when still behind.
func (r *Replica) abortStateFetch() {
	if r.fetch == nil {
		return
	}
	target := r.fetch.target
	r.fetch.stopTimers()
	r.fetch = nil
	r.maybeFetchState(target)
}
