package harness

import (
	"crypto/sha256"
	"fmt"

	"sbft/internal/core"
)

// ExecRecord is one replica's view of one executed decision block: hashes
// of the operations and of the results, in execution order. The auditor
// compares these across replicas — two honest replicas that both executed
// sequence s must have executed identical operations with identical
// results (§VI safety applied at the application layer).
type ExecRecord struct {
	Seq       uint64
	OpHashes  [][32]byte
	ResHashes [][32]byte
}

// opsDigest folds the record into one comparable digest.
func (r ExecRecord) opsDigest() [32]byte {
	h := sha256.New()
	for i := range r.OpHashes {
		h.Write(r.OpHashes[i][:])
		h.Write(r.ResHashes[i][:])
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// Recorder wraps a replica's application and records every executed block.
// Blocks applied through Restore (state transfer) are NOT recorded — the
// auditor treats those sequences as unobserved for that replica.
type Recorder struct {
	inner   core.Application
	Records map[uint64]ExecRecord
}

// NewRecorder wraps an application.
func NewRecorder(app core.Application) *Recorder {
	return &Recorder{inner: app, Records: make(map[uint64]ExecRecord)}
}

var _ core.Application = (*Recorder)(nil)

// ExecuteBlock implements core.Application, recording the block.
func (r *Recorder) ExecuteBlock(seq uint64, ops [][]byte) [][]byte {
	results := r.inner.ExecuteBlock(seq, ops)
	rec := ExecRecord{
		Seq:       seq,
		OpHashes:  make([][32]byte, len(ops)),
		ResHashes: make([][32]byte, len(results)),
	}
	for i, op := range ops {
		rec.OpHashes[i] = sha256.Sum256(op)
	}
	for i, res := range results {
		rec.ResHashes[i] = sha256.Sum256(res)
	}
	r.Records[seq] = rec
	return results
}

// Digest implements core.Application.
func (r *Recorder) Digest() []byte { return r.inner.Digest() }

// ProveOperation implements core.Application.
func (r *Recorder) ProveOperation(seq uint64, l int) ([]byte, error) {
	return r.inner.ProveOperation(seq, l)
}

// SnapshotChunks implements core.Application.
func (r *Recorder) SnapshotChunks() ([][]byte, bool, error) { return r.inner.SnapshotChunks() }

// ReadKey implements core.KeyReader by delegation: if the wrapper
// swallowed the interface, wrapped replicas would answer every certified
// read ReadUnavailable.
func (r *Recorder) ReadKey(op []byte) (string, error) {
	if kr, ok := r.inner.(core.KeyReader); ok {
		return kr.ReadKey(op)
	}
	return "", fmt.Errorf("harness: application has no read-key mapping")
}

// Restore implements core.Application. The restored span was not executed
// locally, so no records are added for it.
func (r *Recorder) Restore(data []byte) error { return r.inner.Restore(data) }

// GarbageCollect implements core.Application. Records are deliberately
// retained: the auditor needs the full executed history.
func (r *Recorder) GarbageCollect(keepFrom uint64) { r.inner.GarbageCollect(keepFrom) }
