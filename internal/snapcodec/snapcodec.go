// Package snapcodec is the canonical binary codec for application
// checkpoint snapshots (and other byte streams that must be identical
// across replicas).
//
// The replication layer Merkle-commits snapshot bytes chunk by chunk
// inside the threshold-signed checkpoint digest (§V-F), so every honest
// replica must produce IDENTICAL bytes for identical state — across
// processes, not just within one. encoding/gob cannot promise that: its
// wire format embeds type ids allocated from a process-global counter,
// so two replicas whose processes gob-encoded other types in a different
// order (the primary's transport traffic vs a backup's, say) emit
// different bytes for the very same value. This surfaced in live TCP
// deployments as the primary's checkpoint root permanently disagreeing
// with the backup quorum's — invisible in the simulator, where all
// replicas share one process and one gob registry.
//
// The format here is fixed big-endian framing with no type metadata:
//
//	magic "sbftsnap1"
//	lastSeq  u64
//	dlen u64, digest bytes
//	count u64
//	count × ( klen u64, key bytes, vlen u64, value bytes )
//
// prim.go holds the field primitives (varint, byte string, flag, and the
// bounds-checked Reader) of the module's formats that are carried or
// stored but never hashed: socket frames, the execute-ack proof and the
// disk records.
package snapcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// magic versions the canonical snapshot framing.
const magic = "sbftsnap1"

// Entry is one key-value pair of the canonical snapshot encoding.
type Entry struct {
	Key string
	Val []byte
}

// State is an application's replayable checkpoint state in canonical
// form: the last executed sequence, the application digest at that
// sequence, and the key-SORTED state entries.
type State struct {
	LastSeq uint64
	Digest  []byte
	Entries []Entry
}

// FromMap builds a State with canonically sorted entries.
func FromMap(lastSeq uint64, digest []byte, m map[string][]byte) State {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]Entry, len(keys))
	for i, k := range keys {
		entries[i] = Entry{Key: k, Val: m[k]}
	}
	return State{LastSeq: lastSeq, Digest: digest, Entries: entries}
}

// Encode serializes the state canonically: identical State values yield
// identical bytes in every process.
func Encode(st State) []byte {
	n := len(magic) + 8 + 8 + len(st.Digest) + 8
	for _, e := range st.Entries {
		n += 16 + len(e.Key) + len(e.Val)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint64(buf, st.LastSeq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(st.Digest)))
	buf = append(buf, st.Digest...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(st.Entries)))
	for _, e := range st.Entries {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(e.Val)))
		buf = append(buf, e.Val...)
	}
	return buf
}

// Decode parses a canonical snapshot. Zero-length digests and values
// decode to nil.
func Decode(data []byte) (State, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return State{}, fmt.Errorf("snapcodec: bad magic")
	}
	r := NewReader(data[len(magic):])
	st := State{LastSeq: r.U64(), Digest: bytes.Clone(r.Bytes64())}
	// Each entry takes at least 16 bytes of input (two length fields), so
	// the remaining data bounds the count BEFORE the slice allocation.
	count := r.Count64(16)
	st.Entries = make([]Entry, 0, count)
	for i := 0; i < count; i++ {
		st.Entries = append(st.Entries, Entry{Key: string(r.Bytes64()), Val: bytes.Clone(r.Bytes64())})
	}
	if err := r.Done(); err != nil {
		return State{}, err
	}
	return st, nil
}

// ToMap flattens decoded entries back into a map.
func (st State) ToMap() map[string][]byte {
	m := make(map[string][]byte, len(st.Entries))
	for _, e := range st.Entries {
		m[e.Key] = e.Val
	}
	return m
}
