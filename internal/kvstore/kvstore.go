// Package kvstore implements SBFT's authenticated key-value store (§IV):
// a deterministic replicated service whose state digest commits to both the
// key-value contents and the per-block execution results, so that a client
// can accept an execute-ack from a single replica by checking one Merkle
// proof against an f+1 threshold-signed digest.
//
// The service interface follows the paper:
//
//	d  = digest(D)                    → Store.Digest
//	P  = proof(o, l, s, D, val)       → Store.ProveOperation
//	verify(d, o, val, s, l, P)        → Verify (package function, client side)
//
// Operations are Put, Get and Delete encoded with a compact length-prefixed
// binary codec. Executing a block yields one result value per operation and
// advances the state digest; digests are deterministic across replicas.
package kvstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"sbft/internal/merkle"
	"sbft/internal/snapcodec"
)

// OpKind enumerates the operation types.
type OpKind uint8

// Operation kinds. Values are part of the wire format.
const (
	OpPut OpKind = iota + 1
	OpGet
	OpDelete
	// OpBundle packs several operations into one client request: the
	// paper's batching mode, where "each request contains 64 operations"
	// (§IX). The bundle executes atomically in order and yields a single
	// summary result, so the client still gets one acknowledgement.
	OpBundle
)

// Errors returned by decoding and proving.
var (
	ErrBadOp        = errors.New("kvstore: malformed operation")
	ErrUnknownBlock = errors.New("kvstore: block not retained (garbage collected or not executed)")
	ErrBadProof     = errors.New("kvstore: invalid execution proof")
)

// Op is a decoded key-value operation.
type Op struct {
	Kind  OpKind
	Key   string
	Value []byte
}

// Encode serializes the operation.
func (o Op) Encode() []byte {
	buf := make([]byte, 0, 1+4+len(o.Key)+4+len(o.Value))
	buf = append(buf, byte(o.Kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(o.Key)))
	buf = append(buf, o.Key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(o.Value)))
	buf = append(buf, o.Value...)
	return buf
}

// DecodeOp parses an encoded operation.
func DecodeOp(data []byte) (Op, error) {
	if len(data) < 9 {
		return Op{}, fmt.Errorf("%w: %d bytes", ErrBadOp, len(data))
	}
	kind := OpKind(data[0])
	if kind < OpPut || kind > OpTxAbort {
		return Op{}, fmt.Errorf("%w: kind %d", ErrBadOp, kind)
	}
	data = data[1:]
	klen := binary.BigEndian.Uint32(data[:4])
	data = data[4:]
	if uint32(len(data)) < klen+4 {
		return Op{}, fmt.Errorf("%w: truncated key", ErrBadOp)
	}
	key := string(data[:klen])
	data = data[klen:]
	vlen := binary.BigEndian.Uint32(data[:4])
	data = data[4:]
	if uint32(len(data)) != vlen {
		return Op{}, fmt.Errorf("%w: value length %d, have %d", ErrBadOp, vlen, len(data))
	}
	return Op{Kind: kind, Key: key, Value: append([]byte(nil), data...)}, nil
}

// Put returns an encoded put operation.
func Put(key string, value []byte) []byte { return Op{Kind: OpPut, Key: key, Value: value}.Encode() }

// Get returns an encoded get operation.
func Get(key string) []byte { return Op{Kind: OpGet, Key: key}.Encode() }

// GetUnique returns a get operation carrying a salt in the (ignored)
// value field. Execution and ReadKey treat it exactly like Get; the salt
// only makes the encoded payload globally unique, so certified reads
// that fall back to the ordered path stay distinguishable under the
// harness auditor's no-re-execution invariant.
func GetUnique(key string, salt uint64) []byte {
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], salt)
	return Op{Kind: OpGet, Key: key, Value: v[:]}.Encode()
}

// Delete returns an encoded delete operation.
func Delete(key string) []byte { return Op{Kind: OpDelete, Key: key}.Encode() }

// Bundle packs encoded operations into a single bundle operation. Nested
// bundles are rejected at execution time (deterministically) to bound
// recursion.
func Bundle(ops ...[]byte) []byte {
	var payload []byte
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(ops)))
	for _, op := range ops {
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(op)))
		payload = append(payload, op...)
	}
	return Op{Kind: OpBundle, Value: payload}.Encode()
}

// BundleOps splits a bundle payload into its encoded sub-operations.
func BundleOps(payload []byte) ([][]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: short bundle", ErrBadOp)
	}
	count := binary.BigEndian.Uint32(payload[:4])
	payload = payload[4:]
	ops := make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(payload) < 4 {
			return nil, fmt.Errorf("%w: truncated bundle", ErrBadOp)
		}
		l := binary.BigEndian.Uint32(payload[:4])
		payload = payload[4:]
		if uint32(len(payload)) < l {
			return nil, fmt.Errorf("%w: truncated bundle op", ErrBadOp)
		}
		ops = append(ops, payload[:l])
		payload = payload[l:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: trailing bundle bytes", ErrBadOp)
	}
	return ops, nil
}

// BundleSize reports how many operations an encoded op contains: 1 for
// plain operations, the sub-operation count for bundles. Used by the
// measurement harness to count operations, not requests (§IX batching).
func BundleSize(encoded []byte) int {
	op, err := DecodeOp(encoded)
	if err != nil || op.Kind != OpBundle {
		return 1
	}
	ops, err := BundleOps(op.Value)
	if err != nil {
		return 1
	}
	return len(ops)
}

// execRecord retains the execution tree of one block for proof generation.
type execRecord struct {
	tree    *merkle.Tree
	kvRoot  merkle.Digest
	ops     [][]byte
	results [][]byte
}

// Store is the replica-side authenticated key-value store. It is not safe
// for concurrent use; the replica event loop owns it.
type Store struct {
	state    *merkle.Map
	tracker  *snapcodec.Tracker
	lastSeq  uint64
	digest   []byte
	executed map[uint64]*execRecord

	// Sharding and cross-shard 2PC (tx.go). shards==0 means sharding is
	// not enabled: every key is local and no partition check applies.
	shardID    int
	shards     int
	certVerify CertVerifier

	// Cumulative 2PC counters, surfaced through TxStats (core.TwoPhaser).
	txPrepares uint64
	txCommits  uint64
	txAborts   uint64
}

// New returns an empty store at sequence 0.
func New() *Store {
	return NewWithBuckets(snapcodec.DefaultBuckets)
}

// NewWithBuckets returns an empty store whose incremental snapshot uses
// the given bucket count. All replicas of a deployment must agree on it:
// the bucket layout is part of the certified chunk commitment. Large-state
// deployments raise it so the dirty fraction of a checkpoint interval
// resolves into proportionally few re-encoded chunks.
func NewWithBuckets(buckets int) *Store {
	s := &Store{
		state:    merkle.NewMap(),
		tracker:  snapcodec.NewTracker(buckets),
		executed: make(map[uint64]*execRecord),
	}
	s.digest = stateDigest(0, s.state.Digest(), merkle.NewTree(nil).Root())
	return s
}

// stateDigest commits to the sequence number, the KV map root and the
// execution tree root of the block that produced this state (paper §IV:
// d = digest(D_s)).
func stateDigest(seq uint64, kvRoot, execRoot merkle.Digest) []byte {
	const tag = "sbft:kv-state"
	var buf [len(tag) + 8 + 2*merkle.DigestSize]byte
	b := append(buf[:0], tag...)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = append(b, kvRoot[:]...)
	b = append(b, execRoot[:]...)
	d := sha256.Sum256(b)
	return d[:]
}

func execLeaf(l int, op, val []byte) []byte {
	buf := make([]byte, 0, 8+len(op)+len(val)+8)
	buf = binary.BigEndian.AppendUint32(buf, uint32(l))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(op)))
	buf = append(buf, op...)
	buf = append(buf, val...)
	return buf
}

// apply executes a single decoded operation against the map.
func (s *Store) apply(op Op) []byte {
	switch op.Kind {
	case OpPut:
		if e := s.userKeyError(op.Key, true); e != nil {
			return e
		}
		s.state.Set(op.Key, op.Value)
		s.tracker.Set(op.Key, op.Value)
		return []byte("OK")
	case OpGet:
		if e := s.userKeyError(op.Key, false); e != nil {
			return e
		}
		v, ok := s.state.Get(op.Key)
		if !ok {
			return nil
		}
		return v
	case OpDelete:
		if e := s.userKeyError(op.Key, true); e != nil {
			return e
		}
		s.state.Delete(op.Key)
		s.tracker.Delete(op.Key)
		return []byte("OK")
	case OpBundle:
		subs, err := BundleOps(op.Value)
		if err != nil {
			return []byte("ERR:bad-bundle")
		}
		applied := 0
		for _, raw := range subs {
			sub, err := DecodeOp(raw)
			if err != nil || sub.Kind == OpBundle || sub.Kind >= OpTxPrepare {
				continue // skip malformed/nested/tx deterministically
			}
			s.apply(sub)
			applied++
		}
		return strconv.AppendInt([]byte("OK:"), int64(applied), 10)
	case OpTxPrepare:
		return s.applyTxPrepare(op)
	case OpTxCommit:
		return s.applyTxCommit(op)
	case OpTxAbort:
		return s.applyTxAbort(op)
	default:
		return []byte("ERR")
	}
}

// ExecuteBlock applies the operations of block seq in order and returns one
// result per operation. Blocks must execute in sequence order; this is the
// paper's "execute trigger" precondition (§V-D). Malformed operations
// execute as errors (deterministically) rather than aborting the block.
func (s *Store) ExecuteBlock(seq uint64, ops [][]byte) [][]byte {
	results := make([][]byte, len(ops))
	for i, raw := range ops {
		op, err := DecodeOp(raw)
		if err != nil {
			results[i] = []byte("ERR:malformed")
			continue
		}
		results[i] = s.apply(op)
	}
	kvRoot := s.state.Digest()
	leaves := make([][]byte, len(ops))
	for i := range ops {
		leaves[i] = execLeaf(i, ops[i], results[i])
	}
	tree := merkle.NewTree(leaves)
	s.executed[seq] = &execRecord{tree: tree, kvRoot: kvRoot, ops: ops, results: results}
	s.lastSeq = seq
	s.digest = stateDigest(seq, kvRoot, tree.Root())
	return results
}

// Digest returns digest(D) after the last executed block.
func (s *Store) Digest() []byte { return append([]byte(nil), s.digest...) }

// LastExecuted reports the sequence number of the last executed block.
func (s *Store) LastExecuted() uint64 { return s.lastSeq }

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
func (s *Store) ProveOperation(seq uint64, l int) (Proof, error) {
	rec, ok := s.executed[seq]
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
func (s *Store) Results(seq uint64) ([][]byte, bool) {
	rec, ok := s.executed[seq]
	if !ok {
		return nil, false
	}
	return rec.results, true
}

// Verify is the client-side verify(d, o, val, s, l, P) from §IV: it checks
// that P proves operation o executed at position l in block s with result
// val, and that the digest reconstructed from P equals d. d is trusted by
// the caller (it carries the π threshold signature).
func Verify(digest []byte, op, val []byte, seq uint64, l int, p Proof) error {
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
	if !bytes.Equal(stateDigest(seq, p.KVRoot, root), digest) {
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
func (s *Store) GarbageCollect(keepFrom uint64) {
	for seq := range s.executed {
		if seq < keepFrom {
			delete(s.executed, seq)
		}
	}
}

// Snapshot serializes the full store state for state transfer (§VIII)
// through the canonical snapcodec framing: replicas with identical state
// produce identical bytes IN EVERY PROCESS (gob could not promise that —
// its wire format embeds process-global type ids, which broke checkpoint
// root agreement between live replicas with different gob histories).
// Execution records are not part of the snapshot; a restored replica can
// prove only blocks it executes after restoration, which matches
// PBFT-style state transfer semantics.
func (s *Store) Snapshot() ([]byte, error) {
	return snapcodec.Encode(snapcodec.FromMap(s.lastSeq, s.digest, s.state.Snapshot())), nil
}

// SnapshotChunks is the incremental capture path: the bucketed canonical
// snapshot as a chunk list, re-encoding only buckets written since the
// previous capture (clean chunks are the identical byte slices of the
// previous call, so the checkpoint layer reuses their leaf hashes). The
// replication layer prefers this over Snapshot when available.
func (s *Store) SnapshotChunks() ([][]byte, bool, error) {
	chunks, _ := s.tracker.EncodeChunks(s.lastSeq, s.digest)
	return chunks, true, nil
}

// Restore replaces the store contents from a snapshot (either framing;
// state transfer hands over whatever the serving replica captured). A
// bucketed snapshot also seeds the tracker's encoding cache, so the first
// capture after a transfer is already incremental.
func (s *Store) Restore(data []byte) error {
	if snapcodec.IsBucketed(data) {
		snap, chunks, err := snapcodec.DecodeBucketed(data)
		if err != nil {
			return fmt.Errorf("kvstore: decoding snapshot: %w", err)
		}
		s.state.Restore(snap.ToMap())
		s.tracker.Restore(snap, len(chunks)-1, chunks)
		s.lastSeq = snap.LastSeq
		s.digest = snap.Digest
		s.executed = make(map[uint64]*execRecord)
		return nil
	}
	snap, err := snapcodec.Decode(data)
	if err != nil {
		return fmt.Errorf("kvstore: decoding snapshot: %w", err)
	}
	s.state.Restore(snap.ToMap())
	s.tracker = snapcodec.NewTracker(s.tracker.Buckets())
	for _, e := range snap.Entries {
		s.tracker.Set(e.Key, e.Val)
	}
	s.lastSeq = snap.LastSeq
	s.digest = snap.Digest
	s.executed = make(map[uint64]*execRecord)
	return nil
}

// ReadKey maps an encoded operation to the state key a certified read
// serves (core.KeyReader): defined only for the side-effect-free OpGet.
// Both replicas (routing the read to its snapshot bucket) and clients
// (checking the routing and extracting the value from the verified
// chunk) use the same mapping.
func ReadKey(op []byte) (string, error) {
	o, err := DecodeOp(op)
	if err != nil {
		return "", err
	}
	if o.Kind != OpGet {
		return "", fmt.Errorf("kvstore: op kind %d is not a certified read", o.Kind)
	}
	return o.Key, nil
}

// ReadKey implements core.KeyReader for direct Store embedding.
func (s *Store) ReadKey(op []byte) (string, error) { return ReadKey(op) }

// Value reads a key directly (local queries; not authenticated).
func (s *Store) Value(key string) ([]byte, bool) { return s.state.Get(key) }

// ProveKey returns a Merkle proof of a key's current value together with
// the current KV root, for read-only queries (§IV get-proofs).
func (s *Store) ProveKey(key string) (merkle.KeyProof, merkle.Digest, error) {
	kp, err := s.state.ProveKey(key)
	if err != nil {
		return merkle.KeyProof{}, merkle.Digest{}, err
	}
	return kp, s.state.Digest(), nil
}
