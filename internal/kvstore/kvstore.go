// Package kvstore implements SBFT's authenticated key-value store (§IV).
// AuthState (authstate.go) is the paper's service interface, shared with
// the smart-contract ledger in package evm:
//
//	d  = digest(D)                    → AuthState.Digest
//	P  = proof(o, l, s, D, val)       → AuthState.ProveOperation
//	verify(d, o, val, s, l, P)        → VerifyProof (client side)
//
// Store adds the key-value service on top: Put, Get, Delete and Bundle
// operations in a compact length-prefixed binary codec.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

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

// Op is a decoded key-value operation. DecodeOp's Value aliases the
// encoded operation, capped at its end: appending to it copies.
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
	if kind < OpPut || kind > OpBundle {
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
	return Op{Kind: kind, Key: key, Value: data[:vlen:vlen]}, nil
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

// stateTag is the domain of the store's state digests.
const stateTag = "sbft:kv-state"

// Store is the replica-side authenticated key-value store: the operation
// codec over an AuthState. It is not safe for concurrent use; the replica
// event loop owns it.
type Store struct {
	*AuthState
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
	return &Store{AuthState: NewAuthState(stateTag, buckets)}
}

// apply executes a single decoded operation against the map.
func (s *Store) apply(op Op) []byte {
	switch op.Kind {
	case OpPut:
		s.Set(op.Key, op.Value)
		return []byte("OK")
	case OpGet:
		v, ok := s.Get(op.Key)
		if !ok {
			return nil
		}
		return v
	case OpDelete:
		s.Delete(op.Key)
		return []byte("OK")
	case OpBundle:
		subs, err := BundleOps(op.Value)
		if err != nil {
			return []byte("ERR:bad-bundle")
		}
		applied := 0
		for _, raw := range subs {
			sub, err := DecodeOp(raw)
			if err != nil || sub.Kind == OpBundle {
				continue // skip malformed/nested deterministically
			}
			// Only the summary is returned, so a get has nothing to do
			// and no sub-operation builds a result.
			switch sub.Kind {
			case OpPut:
				s.Set(sub.Key, sub.Value)
			case OpDelete:
				s.Delete(sub.Key)
			}
			applied++
		}
		return strconv.AppendInt([]byte("OK:"), int64(applied), 10)
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
	s.Seal(seq, ops, results)
	return results
}

// Verify is VerifyProof for key-value clients.
func Verify(digest []byte, op, val []byte, seq uint64, l int, p Proof) error {
	return VerifyProof(stateTag, digest, op, val, seq, l, p)
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
func (s *Store) Value(key string) ([]byte, bool) { return s.Get(key) }
