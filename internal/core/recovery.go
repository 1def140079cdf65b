package core

import (
	"bytes"
	"fmt"

	"sbft/internal/snapcodec"
)

// This file implements replica restart from durable storage. The paper's
// deployment persists committed transactions to disk (RocksDB, §IX);
// internal/storage provides the substitute log. A replica that crashes and
// restarts — NewReplica over the store it left — replays its block log
// through the application, recovering the exact pre-crash state because
// execution is deterministic, and then rejoins the protocol, catching up
// on anything it missed through the normal gap-repair and state-transfer
// paths (§II re-transmit layer, §VIII state transfer).

// BlockRecord is the durable form of one committed decision block: the
// requests and the per-request execution results. Records are
// self-contained so a restarted replica can rebuild both application state
// (by re-executing) and its client reply cache (from the stored results).
type BlockRecord struct {
	Reqs    []Request
	Results [][]byte
}

// recordVersion is the first byte of each record this package stores —
// block records and certified snapshots — ahead of fields written with
// the snapcodec primitives. Nothing is migrated: a record with another
// first byte (every gob stream of the builds before this format starts
// with a length, never with 1) is refused by version.
const recordVersion = 1

// openRecord checks a record's version byte and returns a reader over the
// fields behind it.
func openRecord(what string, data []byte) (snapcodec.Reader, error) {
	if len(data) == 0 {
		return snapcodec.Reader{}, fmt.Errorf("core: empty %s", what)
	}
	if data[0] != recordVersion {
		return snapcodec.Reader{}, fmt.Errorf("core: %s has format version %d, this build reads version %d (stores written by another build are not migrated)", what, data[0], recordVersion)
	}
	return snapcodec.NewReader(data[1:]), nil
}

// EncodeBlockPayload serializes a block record for the BlockStore (shared
// by the SBFT and PBFT engines so both logs recover the same way):
// version, the request block, then a count and each result.
func EncodeBlockPayload(reqs []Request, results [][]byte) []byte {
	return snapcodec.AppendByteSlices(AppendRequests([]byte{recordVersion}, reqs), results)
}

// DecodeBlockPayload parses a stored block record (the inverse of the
// encoding used by Replica when appending to its BlockStore). Ops and
// results alias payload.
func DecodeBlockPayload(payload []byte) (BlockRecord, error) {
	r, err := openRecord("block record", payload)
	if err != nil {
		return BlockRecord{}, err
	}
	rec := BlockRecord{Reqs: ReadRequests(&r), Results: r.ByteSlices()}
	if err := r.Done(); err != nil {
		return BlockRecord{}, fmt.Errorf("core: decoding block record: %w", err)
	}
	return rec, nil
}

// SnapshotStore is an optional BlockStore extension for durable certified
// snapshots (the encoded CertifiedSnapshot, chunks and π certificate
// included). storage.Ledger satisfies it. A replica whose store supports
// it reads its newest snapshot back on restart and serves verified state
// transfer at once; the writes go through a SnapshotSink.
type SnapshotStore interface {
	SaveSnapshot(seq uint64, data []byte) error
	LoadSnapshot(seq uint64) ([]byte, error)
	LatestSnapshot() (uint64, error)
	PruneSnapshots(keepFrom uint64) error
}

// SnapshotSink persists stable certified snapshots. The replica hands
// each adopted snapshot to PersistSnapshot; with no sink installed
// (SetSnapshotSink) nothing is written and snapshots are served from
// memory only. Encoding and writing a large state on the event loop would
// stall execution every win/2 executions, so the two sinks that run —
// the simulator's and the deployment's — do the write elsewhere.
//
// Contract: PersistSnapshot must not block (hand the work to a worker
// goroutine, or schedule it); the snapshot is immutable and safe to read
// off-loop. done(err) reports the outcome and MUST be invoked on the
// replica's event-loop thread (the transport shell routes it through
// Shell.Do; the simulated cluster schedules it on the deterministic
// event loop; a test sink may call it before returning). In-memory
// serving arms immediately on adoption; the done callback arms the
// restart-survivable serving point (DurableSnapshotSeq) once the bytes
// are actually on disk. keepFrom is the oldest snapshot sequence the
// replica's retention chain still holds at hand-off: the sink prunes
// durable snapshots BELOW it after a successful write, so the on-disk set
// mirrors the servable in-memory generations instead of collapsing to a
// single newest snapshot.
type SnapshotSink interface {
	PersistSnapshot(cs *CertifiedSnapshot, keepFrom uint64, done func(error))
}

// PersistCertified durably saves a stable certified snapshot into a
// SnapshotStore, pruning generations below keepFrom only after a
// successful write. The single implementation both persistence paths
// share — the simulator's virtual-disk sink and the deployment's worker
// sink — so the save→prune ordering (and the retention policy) cannot
// silently diverge between them.
func PersistCertified(ss SnapshotStore, cs *CertifiedSnapshot, keepFrom uint64) error {
	if err := ss.SaveSnapshot(cs.Seq, cs.Encode()); err != nil {
		return err
	}
	return ss.PruneSnapshots(keepFrom)
}

// RecoverableStore is a BlockStore that can be read back on restart.
// storage.Ledger satisfies it.
type RecoverableStore interface {
	BlockStore
	// Get returns the payload appended at seq.
	Get(seq uint64) ([]byte, error)
	// NextSeq reports the sequence number the next Append must carry
	// (one past the highest durable block).
	NextSeq() uint64
}

// replay rebuilds a replica from its durable block log, as NewReplica's
// last step: every stored block goes through the application (which must
// be at genesis), the recomputed results are verified against the stored
// ones, and the reply cache and execution frontier are primed. The replica
// then joins the protocol at its durable frontier; blocks committed by the
// rest of the cluster while it was down arrive through gap repair or state
// transfer. An empty store replays nothing and changes nothing.
func (r *Replica) replay(store RecoverableStore) error {
	frontier := store.NextSeq() - 1
	for seq := uint64(1); seq <= frontier; seq++ {
		payload, err := store.Get(seq)
		if err != nil {
			return fmt.Errorf("core: recovering block %d: %w", seq, err)
		}
		rec, err := DecodeBlockPayload(payload)
		if err != nil {
			return fmt.Errorf("core: recovering block %d: %w", seq, err)
		}
		ops := make([][]byte, len(rec.Reqs))
		for i, req := range rec.Reqs {
			ops[i] = req.Op
		}
		results := r.app.ExecuteBlock(seq, ops)
		if len(results) != len(rec.Results) {
			return fmt.Errorf("core: block %d replay produced %d results, stored %d", seq, len(results), len(rec.Results))
		}
		for i := range results {
			if !bytes.Equal(results[i], rec.Results[i]) {
				return fmt.Errorf("core: block %d result %d diverged on replay (corrupt store or non-deterministic app)", seq, i)
			}
		}
		for i, req := range rec.Reqs {
			r.replyCache[req.Client] = replyCacheEntry{
				timestamp: req.Timestamp, seq: seq, l: i, val: results[i],
			}
		}
		r.lastExecuted = seq
		r.Metrics.Executions++
	}
	// Every replayed request is executed, so the reply cache alone dedups
	// retries of them; `seen` stays reserved for in-flight requests (it is
	// GC'd against the reply cache at execution for exactly this reason).
	// Anchor the protocol window at the durable frontier: pre-prepares at
	// or below it are stale, and a primary role resumed here must propose
	// above it. The stable checkpoint (lastStable) stays at 0 — stability
	// is a quorum property the restarted replica re-learns from its peers.
	r.windowBase = frontier
	r.nextSeq = frontier + 1
	// Re-arm snapshot serving from the durable certified snapshot, if one
	// exists at or below the replayed frontier. The stored blob carries its
	// π certificate; verify it (and the chunk shape) before trusting disk.
	if ss, ok := store.(SnapshotStore); ok {
		if seq, err := ss.LatestSnapshot(); err == nil && seq > 0 && seq <= frontier {
			blob, err := ss.LoadSnapshot(seq)
			if err != nil {
				return fmt.Errorf("core: loading snapshot %d: %w", seq, err)
			}
			cs, err := DecodeCertifiedSnapshot(blob)
			if err != nil || cs.Seq != seq {
				return fmt.Errorf("core: durable snapshot %d corrupt: %v", seq, err)
			}
			if r.suite.Pi.Verify(CheckpointSigDigest(cs.Seq, cs.Root()), cs.Pi) == nil {
				r.snaps.rearm(cs)
			}
		}
	}
	return nil
}
