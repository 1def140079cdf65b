package core

import (
	"fmt"
	"maps"
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
	// SnapshotPersists counts certified snapshots the SnapshotSink
	// reported durably persisted.
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
	// TauFetches counts the rounds of τ requests (fetchTau) collectors
	// sent: a fast timer ran out short of 2f+c+1 τ shares (then once a
	// period while they stay short), for a replica on a fast-path run
	// sends σ alone.
	TauFetches uint64
	// FallbackFetches counts the slots on which this replica, as primary,
	// asked every replica for its shares: its stagger and a fast timer ran
	// out with the slot uncommitted and no other collector's prepare held.
	FallbackFetches uint64
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
	// carried over no held chunk after something was fetched: verified
	// progress discarded. A supersession that carried a held chunk
	// forward under an equal leaf is not a restart (it counts under
	// SnapshotReuseTransfers), and neither is a completed transfer
	// followed by a fresh fetch for the remaining gap.
	SnapshotTransferRestarts uint64
	// SnapshotReuseTransfers counts transfers (including mid-transfer
	// supersessions) that reused chunks this replica already held
	// instead of fetching the full state.
	SnapshotReuseTransfers uint64
	// SnapshotChunksReused counts chunks taken from a retained generation
	// or a superseded transfer under an equal leaf — bytes that never
	// crossed the wire.
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
	// StoreErrors counts writes the durable store refused: a block append
	// (after any state transfer, every one — ROADMAP item 20) or a
	// certified snapshot's persist, a snapshot the async sink skipped
	// included. The replica carries on in memory; the counter is how an
	// operator learns its disk has stopped following.
	StoreErrors uint64
	// CaptureFailures counts certified material this replica could not
	// produce or could not stand behind: a checkpoint capture or an
	// operation proof the application failed to build, a share its key
	// failed to sign, a captured or fetched state whose root disagrees
	// with the certified digest, a fetched snapshot the application
	// refused to install. Zero on every run that is not a bug.
	CaptureFailures uint64
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
	// highPP is the highest sequence whose pre-prepare this replica has
	// accepted: no slot above it can be awaiting a commit.
	highPP uint64
	// snaps is the chain of certified snapshot generations (checkpoint.go);
	// fetcher is the client side of state transfer (statefetch.go).
	snaps   snapChain
	fetcher fetcher
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
	batchTimer    timer
	lastCommitted []Request // the block that committed last (threeClientsAlive)

	// Client bookkeeping.
	replyCache map[int]replyCacheEntry
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

	// View change state: vcs[i] holds replica i's view-change messages for
	// its vcKept lowest live views, sorted by view (entry 0 unused), and
	// vcResent records the one re-unicast of ours to a late primary in the
	// current view change.
	vcs           [][]ViewChangeMsg
	vcResent      bool
	vcBackoff     uint64
	progressTimer timer
	vcTimer       timer
	gapTimer      timer
	gapDue        time.Duration // when gapTimer fires
	gapLE         uint64        // lastExecuted when the current stall began
	gapAttempt    int           // probes sent in the current stall
	// fallbacks queues executed blocks for execFallback; fallbackTimer is
	// armed for its head (execute.go).
	fallbacks     []fallbackDue
	fallbackTimer timer

	// Certified-read batching (read.go): queued reads and the flush timer
	// that bounds their wait.
	readQueue []readRequest
	readTimer timer

	// fastSpread averages the gap from 2f+c+1 sign-shares to the σ quorum:
	// collectors learn how long the σ quorum trails the slow quorum on
	// their slots, and the adaptive fast-path timer covers it (§V-E).
	fastSpread ewma
	// eagerTau counts the fast-path commits still to come before this
	// replica holds τ_i(h) back (sendSignShare): activeWindow at the start
	// of each view and after each slow-path commit.
	eagerTau uint64

	Metrics Metrics
}

// NewReplica constructs a replica; id is 1-based and app must be at genesis
// (nothing executed). A store that can be read back (RecoverableStore) and
// holds history is replayed through app first (recovery.go), so a restart
// and a first start are the same call.
func NewReplica(id int, cfg Config, suite CryptoSuite, keys ReplicaKeys, app Application, env Env, store BlockStore) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 1 || id > cfg.N() {
		return nil, fmt.Errorf("core: replica id %d out of range [1,%d]", id, cfg.N())
	}
	r := &Replica{
		id:         id,
		cfg:        cfg,
		suite:      suite,
		keys:       keys,
		app:        app,
		env:        env,
		store:      store,
		slots:      make(map[uint64]*slot),
		pendingIdx: make(map[int]map[uint64]bool),
		seen:       make(map[int]uint64),
		nextSeq:    1,
		replyCache: make(map[int]replyCacheEntry),
		watch:      make(map[int]watchEntry),
		ckptShares: make(map[uint64]map[string]map[int]threshsig.Share),
		vcs:        make([][]ViewChangeMsg, cfg.N()+1),
		ppBuffer:   make(map[uint64][]PrePrepareMsg),
		suspects:   make(map[int]uint64),
		csink:      syncSink{suite},
	}
	r.eagerTau = r.activeWindow()
	r.snaps = newSnapChain(cfg.snapshotRetain(), env, &r.Metrics)
	r.fetcher = fetcher{
		id: id, cfg: cfg, env: env, pi: suite.Pi, host: r, snaps: &r.snaps,
		metrics: &r.Metrics, blames: make(map[int]int),
	}
	if rs, ok := store.(RecoverableStore); ok {
		if err := r.replay(rs); err != nil {
			return nil, err
		}
	}
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

// SnapshotBlameCounts reports, per server id, how many pieces of snapshot
// material from that server failed verification against a certified root.
func (r *Replica) SnapshotBlameCounts() map[int]int { return maps.Clone(r.fetcher.blames) }

func (r *Replica) isPrimary() bool { return r.cfg.Primary(r.view) == r.id }

// broadcast sends msg to every replica except self.
func (r *Replica) broadcast(msg Message) {
	for i := 1; i <= r.cfg.N(); i++ {
		if i != r.id {
			r.env.Send(i, msg)
		}
	}
}

// Deliver dispatches an incoming message. It is the single entry point of
// the event machine, and the one place that decides who may say what:
// requests and reads come from anyone, every other message only from a
// replica (ids 1..n), so no handler below sees a client or an unknown id.
func (r *Replica) Deliver(from int, msg any) {
	switch m := msg.(type) {
	case RequestMsg:
		r.onRequest(from, m)
		return
	case ReadMsg:
		r.onRead(from, m)
		return
	}
	if from < 1 || from > r.cfg.N() {
		return
	}
	switch m := msg.(type) {
	case PrePrepareMsg:
		r.onPrePrepare(from, m)
	case SignShareMsg:
		r.onSignShare(from, m)
	case FetchSharesMsg:
		r.onFetchShares(from, m)
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
		if m.Replica == from { // a fetch is answered to whoever asked
			r.onFetchCommit(from, m)
		}
	case CommitInfoMsg:
		r.onCommitInfo(from, m)
	case FetchStateMsg:
		if m.Replica == from {
			r.snaps.onFetchState(m)
		}
	case SnapshotMetaMsg:
		r.fetcher.onSnapshotMeta(from, m)
	case FetchSnapshotChunkMsg:
		if m.Replica == from {
			r.snaps.onFetchSnapshotChunk(m)
		}
	case SnapshotChunkMsg:
		r.fetcher.onSnapshotChunk(from, m)
	case ViewChangeMsg:
		r.onViewChange(from, m)
	case NewViewMsg:
		r.onNewView(from, m)
	}
}

// timer is one cancellable Env.After; the zero value is not armed.
type timer struct{ cancel func() }

func (t *timer) armed() bool { return t.cancel != nil }

// arm schedules fn after d. When fn runs the timer is no longer armed.
func (t *timer) arm(env Env, d time.Duration, fn func()) {
	t.cancel = env.After(d, func() {
		t.cancel = nil
		fn()
	})
}

// stop cancels the timer if it is armed.
func (t *timer) stop() {
	if t.cancel != nil {
		t.cancel()
		t.cancel = nil
	}
}

// ewma is an exponentially weighted moving average of durations with
// α = 1/4, seeded by its first sample.
type ewma struct {
	v   time.Duration
	set bool
}

func (e *ewma) observe(d time.Duration) {
	if !e.set {
		e.v, e.set = d, true
		return
	}
	e.v += (d - e.v) / 4
}

// dropThrough deletes every entry of m keyed at or below seq.
func dropThrough[V any](m map[uint64]V, seq uint64) {
	for k := range m {
		if k <= seq {
			delete(m, k)
		}
	}
}
