package kvstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"sbft/internal/merkle"
	"sbft/internal/snapcodec"
)

// AuthState is §IV's authenticated execution state, the layer both
// replicated services stand on (Store adds the operation codec,
// evm.Ledger the VM): an authenticated key-value
// map, the bucketed snapshot tracker that mirrors it, and per executed
// block a Merkle tree over its (operation, result) pairs. The state digest
//
//	d = H(tag ‖ seq ‖ map root ‖ execution-tree root)
//
// commits to both, so one Proof checked against an f+1-signed digest lets
// a client accept an execute-ack from a single replica. tag separates the
// digests of different services. Every write goes through Set/Delete, which
// keep map and tracker in step; nothing else may touch either. Not safe for
// concurrent use: the replica event loop owns it.
type AuthState struct {
	tag      string
	m        *merkle.Map
	tracker  *snapcodec.Tracker
	lastSeq  uint64
	digest   []byte
	executed map[uint64]*execRecord
}

// execRecord retains the execution tree of one block for proof generation.
type execRecord struct {
	tree    *merkle.Tree
	kvRoot  merkle.Digest
	ops     [][]byte
	results [][]byte
}

// NewAuthState returns an empty state at sequence 0 whose digests are
// computed under the domain tag and whose incremental snapshot uses the
// given bucket count (part of the certified chunk layout: all replicas of
// a deployment must agree on it).
func NewAuthState(tag string, buckets int) *AuthState {
	a := &AuthState{
		tag:      tag,
		m:        merkle.NewMap(),
		tracker:  snapcodec.NewTracker(buckets),
		executed: make(map[uint64]*execRecord),
	}
	a.ResealGenesis()
	return a
}

// stateDigest commits to the sequence number, the map root and the
// execution tree root of the block that produced this state (paper §IV:
// d = digest(D_s)).
func stateDigest(tag string, seq uint64, kvRoot, execRoot merkle.Digest) []byte {
	var buf [32 + 8 + 2*merkle.DigestSize]byte // tags are short: no allocation
	b := append(buf[:0], tag...)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = append(b, kvRoot[:]...)
	b = append(b, execRoot[:]...)
	d := sha256.Sum256(b)
	return d[:]
}

func execLeaf(l int, op, val []byte) []byte {
	buf := make([]byte, 0, 8+len(op)+len(val))
	buf = binary.BigEndian.AppendUint32(buf, uint32(l))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(op)))
	buf = append(buf, op...)
	buf = append(buf, val...)
	return buf
}

// Get reads a key (local queries; not authenticated).
func (a *AuthState) Get(key string) ([]byte, bool) { return a.m.Get(key) }

// Set writes a copy of val under key. The tracker mirrors the map's own
// copy, so the state keeps one copy of each value and the caller may reuse
// val at once.
func (a *AuthState) Set(key string, val []byte) {
	a.tracker.Set(key, a.m.Set(key, val))
}

// Delete removes a key.
func (a *AuthState) Delete(key string) {
	a.m.Delete(key)
	a.tracker.Delete(key)
}

// Keys returns the sorted key list.
func (a *AuthState) Keys() []string { return a.m.Keys() }

// Seal closes block seq after its operations were applied: it builds the
// execution tree over the (operation, result) pairs, retains it for
// ProveOperation and advances the digest. Blocks must be sealed in
// sequence order (the paper's "execute trigger" precondition, §V-D).
func (a *AuthState) Seal(seq uint64, ops, results [][]byte) {
	kvRoot := a.m.Digest()
	leaves := make([][]byte, len(ops))
	for i := range ops {
		leaves[i] = execLeaf(i, ops[i], results[i])
	}
	tree := merkle.NewTree(leaves)
	a.executed[seq] = &execRecord{tree: tree, kvRoot: kvRoot, ops: ops, results: results}
	a.lastSeq = seq
	a.digest = stateDigest(a.tag, seq, kvRoot, tree.Root())
}

// ResealGenesis recomputes the pre-block-1 digest after writes made
// outside consensus, so replicas with identical genesis share digests
// from the start. It does nothing once a block has executed.
func (a *AuthState) ResealGenesis() {
	if a.lastSeq == 0 {
		a.digest = stateDigest(a.tag, 0, a.m.Digest(), merkle.NewTree(nil).Root())
	}
}

// Digest returns digest(D) after the last executed block.
func (a *AuthState) Digest() []byte { return append([]byte(nil), a.digest...) }

// LastExecuted reports the sequence number of the last executed block.
func (a *AuthState) LastExecuted() uint64 { return a.lastSeq }

// Proof is the paper's P = proof(o, l, s, D, val): it authenticates that
// operation Op was executed at position L of block Seq, produced Val, and
// that the resulting state digest is reconstructible from KVRoot and the
// execution-tree path.
type Proof struct {
	Seq    uint64
	L      int
	Op     []byte
	Val    []byte
	KVRoot merkle.Digest
	Path   merkle.Proof
}

// ProveOperation builds the proof for operation l of block seq.
func (a *AuthState) ProveOperation(seq uint64, l int) (Proof, error) {
	rec, ok := a.executed[seq]
	if !ok {
		return Proof{}, fmt.Errorf("%w: seq %d", ErrUnknownBlock, seq)
	}
	if l < 0 || l >= len(rec.ops) {
		return Proof{}, fmt.Errorf("kvstore: operation index %d out of range [0,%d)", l, len(rec.ops))
	}
	path, err := rec.tree.Prove(l)
	if err != nil {
		return Proof{}, err
	}
	return Proof{
		Seq:    seq,
		L:      l,
		Op:     rec.ops[l],
		Val:    rec.results[l],
		KVRoot: rec.kvRoot,
		Path:   path,
	}, nil
}

// Results returns the retained results of an executed block.
func (a *AuthState) Results(seq uint64) ([][]byte, bool) {
	rec, ok := a.executed[seq]
	if !ok {
		return nil, false
	}
	return rec.results, true
}

// VerifyProof is the client-side verify(d, o, val, s, l, P) from §IV for
// the service whose digests carry the domain tag: it checks that P proves
// operation o executed at position l in block s with result val, and that
// the digest reconstructed from P equals d. d is trusted by the caller (it
// carries the π threshold signature).
func VerifyProof(tag string, digest []byte, op, val []byte, seq uint64, l int, p Proof) error {
	if p.Seq != seq || p.L != l {
		return fmt.Errorf("%w: proof binds (seq=%d,l=%d), want (%d,%d)", ErrBadProof, p.Seq, p.L, seq, l)
	}
	if !bytes.Equal(p.Op, op) || !bytes.Equal(p.Val, val) {
		return fmt.Errorf("%w: proof operation/result mismatch", ErrBadProof)
	}
	leaf := merkle.LeafHash(execLeaf(l, op, val))
	// Recompute the exec root from the path, then the state digest.
	root := leaf
	for _, st := range p.Path.Steps {
		if st.Right {
			root = merkle.InteriorHash(root, st.Hash)
		} else {
			root = merkle.InteriorHash(st.Hash, root)
		}
	}
	if !bytes.Equal(stateDigest(tag, seq, p.KVRoot, root), digest) {
		return fmt.Errorf("%w: digest mismatch", ErrBadProof)
	}
	// Path index must match l to prevent position spoofing.
	if p.Path.Index != l {
		return fmt.Errorf("%w: path index %d, want %d", ErrBadProof, p.Path.Index, l)
	}
	return nil
}

// GarbageCollect drops retained execution records with seq < keepFrom,
// mirroring the checkpoint-driven GC of §V-F.
func (a *AuthState) GarbageCollect(keepFrom uint64) {
	for seq := range a.executed {
		if seq < keepFrom {
			delete(a.executed, seq)
		}
	}
}

// SnapshotChunks captures the state for checkpoints and state transfer
// (§VIII): the bucketed canonical snapshot as a chunk list, re-encoding
// only buckets written since the previous capture (clean chunks are the
// identical byte slices of the previous call, so the checkpoint layer
// reuses their leaf hashes). Replicas with identical state produce
// identical chunks in every process. Execution records are not part of
// the snapshot; a restored replica can prove only blocks it executes
// after restoration, which matches PBFT-style state transfer semantics.
func (a *AuthState) SnapshotChunks() ([][]byte, bool, error) {
	chunks, _ := a.tracker.EncodeChunks(a.lastSeq, a.digest)
	return chunks, true, nil
}

// Restore replaces the contents from the concatenation of a capture's
// chunks, and seeds the tracker's encoding cache from them, so the first
// capture after a transfer is already incremental.
func (a *AuthState) Restore(data []byte) error {
	snap, chunks, err := snapcodec.DecodeBucketed(data)
	if err != nil {
		return fmt.Errorf("kvstore: decoding snapshot: %w", err)
	}
	a.m.Restore(snap.ToMap())
	a.tracker.Restore(snap, len(chunks)-1, chunks)
	a.lastSeq = snap.LastSeq
	a.digest = snap.Digest
	a.executed = make(map[uint64]*execRecord)
	return nil
}

// ProveKey returns a Merkle proof of a key's current value together with
// the current map root, for read-only queries (§IV get-proofs).
func (a *AuthState) ProveKey(key string) (merkle.KeyProof, merkle.Digest, error) {
	kp, err := a.m.ProveKey(key)
	if err != nil {
		return merkle.KeyProof{}, merkle.Digest{}, err
	}
	return kp, a.m.Digest(), nil
}
