package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"sbft/internal/crypto/threshsig"
)

// Config describes one SBFT deployment of n = 3f + 2c + 1 replicas. The
// protocol-variant switches reproduce the paper's evaluation ladder
// (§IX): linear-PBFT (fast path off, exec collectors off) → +fast path →
// +execution collectors (SBFT c=0) → +redundant servers (SBFT c=8).
type Config struct {
	F int // tolerated Byzantine replicas
	C int // tolerated crashed/slow replicas on the fast path

	// Win bounds outstanding decision blocks (paper: 256).
	Win uint64
	// Batch is the most client operations a block carries — a maximum, not
	// a minimum: a queue that deep is proposed without waiting for a commit.
	Batch int
	// BatchTimeout is the longest a held request waits (propose.go).
	BatchTimeout time.Duration
	// MaxPending bounds the admission queue (§V-C backpressure): a request
	// arriving while len(pending) ≥ MaxPending is rejected with a BusyMsg
	// retry hint instead of growing the queue without bound under
	// open-loop overload. 0 derives 4 × Batch × activeWindow.
	MaxPending int
	// FastPath enables the σ fast path (ingredient 2).
	FastPath bool
	// FastPathTimeout is how long a collector waits for 3f+c+1 σ shares
	// before falling back to the prepare phase (§V-E trigger).
	FastPathTimeout time.Duration
	// ExecCollectors enables the single-message client acknowledgement
	// path through E-collectors (ingredient 3). When false, every replica
	// replies directly and clients wait for f+1 matching replies.
	ExecCollectors bool
	// ExecFallbackTimeout bounds how long a replica waits for the
	// E-collectors' full-execute-proof before sending clients direct
	// replies; it keeps clients served when all c+1 E-collectors of a
	// sequence are crashed (liveness needs one correct collector, §V).
	ExecFallbackTimeout time.Duration
	// GapRepairTimeout is how long a replica waits on an execution gap
	// (a committed block above an uncommitted one) before asking a peer
	// to retransmit the missing decision — the re-transmit layer the
	// system model assumes (§II).
	GapRepairTimeout time.Duration
	// ViewChangeTimeout is the base commit-progress timeout; it doubles
	// on every consecutive view change (exponential back-off, §VII).
	ViewChangeTimeout time.Duration
	// CollectorStagger is the delay between successive redundant
	// collectors activating (§V "we stagger the collectors").
	CollectorStagger time.Duration
	// CheckpointInterval is the stable-checkpoint period (paper: win/2).
	// Zero derives win/2.
	CheckpointInterval uint64
	// SnapshotRetain bounds the chain of certified snapshot generations a
	// replica keeps for serving state transfer. A deeper chain lets a
	// transfer spanning several checkpoint intervals finish against its
	// original generation instead of restarting, and gives the replica's
	// own transfers more chunks to reuse. Reuse needs no retention on the
	// server: a fetcher takes every chunk it holds under an equal leaf of
	// the certified leaf list. Zero derives 4; 1 reproduces
	// single-generation retention.
	SnapshotRetain int
}

// DefaultConfig returns the paper's defaults for a given f and c.
func DefaultConfig(f, c int) Config {
	return Config{
		F:                   f,
		C:                   c,
		Win:                 256,
		Batch:               64,
		BatchTimeout:        20 * time.Millisecond,
		FastPath:            true,
		FastPathTimeout:     150 * time.Millisecond,
		ExecCollectors:      true,
		ExecFallbackTimeout: 500 * time.Millisecond,
		GapRepairTimeout:    250 * time.Millisecond,
		ViewChangeTimeout:   2 * time.Second,
		CollectorStagger:    50 * time.Millisecond,
	}
}

// Validate checks invariants.
func (c Config) Validate() error {
	if c.F < 1 {
		return fmt.Errorf("core: F must be ≥ 1, got %d", c.F)
	}
	if c.C < 0 {
		return fmt.Errorf("core: C must be ≥ 0, got %d", c.C)
	}
	if c.Win < 4 {
		return fmt.Errorf("core: Win must be ≥ 4, got %d", c.Win)
	}
	if c.Batch < 1 {
		return fmt.Errorf("core: Batch must be ≥ 1, got %d", c.Batch)
	}
	// Zero means "derive the default" for both; a negative value would
	// size the admission queue or the snapshot chain below one.
	if c.MaxPending < 0 {
		return fmt.Errorf("core: MaxPending must be ≥ 0, got %d", c.MaxPending)
	}
	if c.SnapshotRetain < 0 {
		return fmt.Errorf("core: SnapshotRetain must be ≥ 0, got %d", c.SnapshotRetain)
	}
	return nil
}

// N is the replica count 3f + 2c + 1.
func (c Config) N() int { return 3*c.F + 2*c.C + 1 }

// QuorumFast is the σ threshold 3f + c + 1.
func (c Config) QuorumFast() int { return 3*c.F + c.C + 1 }

// QuorumSlow is the τ threshold 2f + c + 1.
func (c Config) QuorumSlow() int { return 2*c.F + c.C + 1 }

// QuorumExec is the π threshold f + 1.
func (c Config) QuorumExec() int { return c.F + 1 }

// QuorumViewChange is the view-change quorum 2f + 2c + 1 (§V-G).
func (c Config) QuorumViewChange() int { return 2*c.F + 2*c.C + 1 }

// checkpointEvery returns the effective checkpoint interval.
func (c Config) checkpointEvery() uint64 {
	if c.CheckpointInterval > 0 {
		return c.CheckpointInterval
	}
	return c.Win / 2
}

// fastGateWindow is the §V-F fast-path restriction: a replica only joins
// the fast path for s ∈ [le, le + win/4].
func (c Config) fastGateWindow() uint64 { return c.Win / 4 }

// fetchWindow bounds in-flight snapshot chunk requests during state
// transfer (flow control, §VIII): the window refills as verified chunks
// land.
const fetchWindow = 32

// chunkRetryTimeout is how long one outstanding snapshot-chunk request may
// stay unanswered before it is re-issued to another server (and the
// unresponsive server loses scheduler share): 2×GapRepairTimeout, 500ms
// when that is unset.
func (c Config) chunkRetryTimeout() time.Duration {
	if c.GapRepairTimeout > 0 {
		return 2 * c.GapRepairTimeout
	}
	return 500 * time.Millisecond
}

// snapshotRetain is the effective generation-retention depth (≥ 1).
func (c Config) snapshotRetain() int {
	if c.SnapshotRetain > 0 {
		return c.SnapshotRetain
	}
	return 4
}

// Primary returns the primary replica id (1-based) for a view, chosen
// round-robin (§V-B).
func (c Config) Primary(view uint64) int { return int(view%uint64(c.N())) + 1 }

// collectorSet deterministically selects count distinct non-primary
// replicas for (seq, view, kind) by hashing, the paper's pseudo-random
// collector groups (§V-B). The same function runs on every replica, so
// all agree on the groups.
func (c Config) collectorSet(seq, view uint64, kind string, count int) []int {
	n := c.N()
	primary := c.Primary(view)
	if count > n-1 {
		count = n - 1
	}
	// Room for CCollectors' fallback primary. De-duplication scans out:
	// count is c+1, a handful.
	out := make([]int, 0, count+1)
	var buf [64]byte
	msg := append(buf[:0], "sbft:collector:"...)
	msg = append(msg, kind...)
	msg = binary.BigEndian.AppendUint64(msg, seq)
	msg = binary.BigEndian.AppendUint64(msg, view)
	msg = binary.BigEndian.AppendUint64(msg, 0)
	ctr := msg[len(msg)-8:]
	for i := uint64(0); len(out) < count; i++ {
		binary.BigEndian.PutUint64(ctr, i)
		h := sha256.Sum256(msg)
		id := int(binary.BigEndian.Uint64(h[:8])%uint64(n)) + 1
		if id != primary && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// CCollectors returns the c+1 commit collectors for (seq, view). The
// primary is appended as the final staggered fallback collector (§V-E:
// "the c+1st collector to activate is always the primary").
func (c Config) CCollectors(seq, view uint64) []int {
	set := c.collectorSet(seq, view, "commit", c.C+1)
	return append(set, c.Primary(view))
}

// ECollectors returns the c+1 execution collectors for (seq, view).
func (c Config) ECollectors(seq, view uint64) []int {
	return c.collectorSet(seq, view, "exec", c.C+1)
}

// CryptoSuite bundles the three threshold schemes of a deployment (§V):
// σ (3f+c+1), τ (2f+c+1) and π (f+1).
type CryptoSuite struct {
	Sigma threshsig.Scheme
	Tau   threshsig.Scheme
	Pi    threshsig.Scheme
}

// ReplicaKeys holds one replica's three signers.
type ReplicaKeys struct {
	Sigma threshsig.Signer
	Tau   threshsig.Signer
	Pi    threshsig.Signer
}

// DealSuite generates a crypto suite and per-replica keys from a dealer.
func DealSuite(cfg Config, dealer threshsig.Dealer) (CryptoSuite, []ReplicaKeys, error) {
	n := cfg.N()
	sigma, sigmaSigners, err := dealer.Deal(cfg.QuorumFast(), n)
	if err != nil {
		return CryptoSuite{}, nil, fmt.Errorf("core: dealing σ: %w", err)
	}
	tau, tauSigners, err := dealer.Deal(cfg.QuorumSlow(), n)
	if err != nil {
		return CryptoSuite{}, nil, fmt.Errorf("core: dealing τ: %w", err)
	}
	pi, piSigners, err := dealer.Deal(cfg.QuorumExec(), n)
	if err != nil {
		return CryptoSuite{}, nil, fmt.Errorf("core: dealing π: %w", err)
	}
	keys := make([]ReplicaKeys, n)
	for i := 0; i < n; i++ {
		keys[i] = ReplicaKeys{Sigma: sigmaSigners[i], Tau: tauSigners[i], Pi: piSigners[i]}
	}
	return CryptoSuite{Sigma: sigma, Tau: tau, Pi: pi}, keys, nil
}

// InsecureSuite deals a test/simulation suite seeded deterministically.
func InsecureSuite(cfg Config, seed string) (CryptoSuite, []ReplicaKeys, error) {
	return DealSuite(cfg, threshsig.InsecureDealer{Seed: []byte(seed)})
}

// Env is the world interface of a sans-io node: message output, virtual or
// real time, and timers. Implementations must invoke timer callbacks on
// the same logical thread as Deliver calls.
type Env interface {
	// Send transmits a message to a node (replica id 1..n or client id).
	Send(to int, msg Message)
	// Now reports the current time.
	Now() time.Duration
	// After schedules fn to run once after d; the returned function
	// cancels it (idempotent, safe after firing).
	After(d time.Duration, fn func()) (cancel func())
}

// Application is the deterministic replicated service SBFT drives (§IV).
// kvstore.Store and evm.Ledger satisfy it via the adapters in
// internal/apps.
type Application interface {
	// ExecuteBlock applies the decision block with sequence seq and
	// returns one result value per operation.
	ExecuteBlock(seq uint64, ops [][]byte) [][]byte
	// Digest returns d = digest(D) after the last executed block.
	Digest() []byte
	// ProveOperation returns the encoded proof(o, l, s, D, val).
	ProveOperation(seq uint64, l int) ([]byte, error)
	// SnapshotChunks captures the state for checkpoints and state
	// transfer (§V-F, §VIII); Restore installs the concatenation of a
	// capture's chunks.
	ChunkedSnapshotter
	Restore([]byte) error
	// GarbageCollect drops proof material below keepFrom.
	GarbageCollect(keepFrom uint64)
}

// ChunkedSnapshotter is the capture half of Application. SnapshotChunks
// returns the state as a chunk list; every chunk is one leaf of the
// certified commitment tree. ok=false is a capture failure, like a
// non-nil err: the replica counts it in Metrics.CaptureFailures and sends
// no π share for that checkpoint.
//
// Incremental contract: a chunk whose content is unchanged since the
// previous SnapshotChunks call MUST be returned as the identical byte
// slice (same memory), and returned slices are never mutated afterwards.
// The capture layer detects clean chunks by slice identity and reuses
// their cached leaf hashes, making the per-checkpoint commitment cost
// O(writes-since-last-checkpoint + chunks) instead of O(state).
type ChunkedSnapshotter interface {
	SnapshotChunks() (chunks [][]byte, ok bool, err error)
}

// KeyReader is the optional read-path extension of Application (ROADMAP
// item 2). ReadKey maps an application-encoded read operation to the
// state key it would read, so a replica can serve it from its certified
// snapshot's bucketed chunk layout without ordering. Operations with side
// effects, or apps without a stable key mapping, return an error — the
// replica then answers ReadUnavailable and the client falls back to the
// ordering path. Wrappers must forward the call statically.
type KeyReader interface {
	ReadKey(op []byte) (string, error)
}

// TwoPhaser is what the retired cross-shard two-phase commit reported.
// Nothing in this module calls it; it is kept only so code that still
// embeds it in an interface keeps compiling.
//
// Deprecated: sharding and 2PC were removed; the replica no longer reads
// these counters.
type TwoPhaser interface {
	TxStats() (prepares, commits, aborts uint64)
}
