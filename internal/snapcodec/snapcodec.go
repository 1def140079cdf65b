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
// There is one snapshot format, bucketed fixed big-endian framing with no
// type metadata. Keys are distributed over a fixed number of hash buckets
// and each bucket encodes independently, keys sorted; a Tracker
// (tracker.go) mirrors the application state so that a capture
// re-encodes only the buckets written since the previous one. The
// format is the concatenation of the chunk list:
//
//	chunk 0 (prelude):  magic "sbftbkt1", lastSeq u64, dlen u64, digest,
//	                    buckets u32
//	chunk 1+b:          count u64, count × ( klen u64, key bytes,
//	                    vlen u64, value bytes )   — keys sorted
//
// prim.go holds the field primitives (varint, byte string, flag, and the
// bounds-checked Reader) of the module's formats that are carried or
// stored but never hashed: socket frames, the execute-ack proof and the
// disk records.
package snapcodec

// Entry is one key-value pair of a decoded snapshot.
type Entry struct {
	Key string
	Val []byte
}

// State is an application's replayable checkpoint state as DecodeBucketed
// returns it: the last executed sequence, the application digest at that
// sequence, and the state entries.
type State struct {
	LastSeq uint64
	Digest  []byte
	Entries []Entry
}

// ToMap flattens decoded entries back into a map.
func (st State) ToMap() map[string][]byte {
	m := make(map[string][]byte, len(st.Entries))
	for _, e := range st.Entries {
		m[e.Key] = e.Val
	}
	return m
}
