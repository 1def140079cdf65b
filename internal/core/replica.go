package core

import (
	"fmt"
	"time"

	"sbft/internal/crypto/threshsig"
)

// ClientBase is the first node id used for clients; replicas are 1..n.
const ClientBase = 1_000_000

// IsClient reports whether a node id belongs to a client.
func IsClient(id int) bool { return id >= ClientBase }

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
