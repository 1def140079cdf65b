// The bucketed snapshot format (package doc) and its Tracker. Capture
// cost is O(writes-since-last-checkpoint + buckets), not O(state) — the
// checkpoint layer hands the per-bucket chunks straight to the Merkle
// commitment, so clean buckets also keep their cached leaf hashes.
//
// Canonicality: the bucket of a key is a pure function of the key bytes
// (FNV-1a 64), the bucket count is part of the encoding, and bucket
// contents are key-sorted — identical state yields identical chunks in
// every process. The bucket count is adopted from the blob on restore, so
// a fetched snapshot re-buckets the restoring replica identically to the
// serving one.
package snapcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// bucketMagic versions the bucketed canonical snapshot framing.
const bucketMagic = "sbftbkt1"

// DefaultBuckets is the bucket count applications use unless tuned: all
// replicas of a deployment must agree on it (it shapes the certified
// chunk layout). Coarse on purpose — tiny test states stay cheap to
// transfer; large-state deployments and benchmarks raise it so the dirty
// fraction resolves finely.
const DefaultBuckets = 64

// MaxBuckets bounds the bucket count a blob may declare; a guard against
// allocation bombs from malformed (never certified) input.
const MaxBuckets = 1 << 20

// BucketOf maps a key to its bucket among n. Pure function of the key
// bytes (FNV-1a 64, written out so a call allocates nothing): every
// replica agrees.
func BucketOf(key string, n int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return int(h % uint64(n))
}

// Tracker holds one application's state in the bucketed layout and
// maintains its encoding incrementally: the application writes through
// Set/Delete, and EncodeChunks re-encodes only the buckets touched since
// the last call, returning clean buckets as the identical cached byte
// slices. Returned slices are never mutated afterwards, so snapshot
// generations retained by the checkpoint layer can alias them safely.
type Tracker struct {
	content []bucket
}

// bucket holds one hash bucket as parallel slices in key order — the
// order the encoding needs, so encode is one pass with no sort and no
// lookup. Overwriting a key is a binary search and a copy; a new key or
// a delete also shifts the entries above it (40 bytes each).
type bucket struct {
	keys []string
	vals [][]byte
	enc  []byte // cached encoding (nil = stale)
}

// NewTracker returns a tracker over the given bucket count (DefaultBuckets
// if n <= 0). All buckets start stale: the first capture encodes
// everything.
func NewTracker(n int) *Tracker {
	if n <= 0 {
		n = DefaultBuckets
	}
	return &Tracker{content: make([]bucket, n)}
}

// Buckets reports the bucket count.
func (t *Tracker) Buckets() int { return len(t.content) }

func (t *Tracker) bucket(key string) *bucket {
	return &t.content[BucketOf(key, len(t.content))]
}

// Get returns key's value and whether it is present. The slice is the
// tracker's own: read it before the key's next write and never modify it.
func (t *Tracker) Get(key string) ([]byte, bool) {
	b := t.bucket(key)
	if i, found := slices.BinarySearch(b.keys, key); found {
		return b.vals[i], true
	}
	return nil, false
}

// Set writes a copy of val under key, so the tracker holds the state's
// one copy of each value and the caller may reuse val at once. An
// overwrite copies into the previous value's storage when it fits: no one
// else holds that storage, since Get's callers may not keep it past this
// write and encodings are copies.
func (t *Tracker) Set(key string, val []byte) {
	b := t.bucket(key)
	if i, found := slices.BinarySearch(b.keys, key); found {
		b.vals[i] = append(b.vals[i][:0], val...)
	} else {
		b.keys = slices.Insert(b.keys, i, key)
		b.vals = slices.Insert(b.vals, i, bytes.Clone(val))
	}
	b.enc = nil
}

// Delete removes key if present.
func (t *Tracker) Delete(key string) {
	b := t.bucket(key)
	if i, found := slices.BinarySearch(b.keys, key); found {
		b.keys = slices.Delete(b.keys, i, i+1)
		b.vals = slices.Delete(b.vals, i, i+1)
	}
	b.enc = nil
}

// Keys returns every key, sorted.
func (t *Tracker) Keys() []string {
	var keys []string
	for i := range t.content {
		keys = append(keys, t.content[i].keys...)
	}
	slices.Sort(keys)
	return keys
}

// encode builds the canonical encoding of the bucket. A bucket that grew
// since its last encoding also sheds append's slack here, once that
// passes a quarter of its length: the bucket lives as long as the state.
func (b *bucket) encode() []byte {
	if cap(b.keys)-len(b.keys) > len(b.keys)/4 {
		b.keys, b.vals = slices.Clone(b.keys), slices.Clone(b.vals)
	}
	n := 8
	for i, k := range b.keys {
		n += 16 + len(k) + len(b.vals[i])
	}
	buf := make([]byte, 0, n)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(b.keys)))
	for i, k := range b.keys {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(b.vals[i])))
		buf = append(buf, b.vals[i]...)
	}
	return buf
}

// EncodeChunks returns the full chunk list of the bucketed snapshot for
// the given (lastSeq, digest) — the prelude followed by one chunk per
// bucket — re-encoding only buckets mutated since the previous call, and
// reports how many buckets were re-encoded. Clean buckets come back as
// the identical slices of the previous call, which is what lets the
// checkpoint layer reuse their leaf hashes.
func (t *Tracker) EncodeChunks(lastSeq uint64, digest []byte) ([][]byte, int) {
	prelude := make([]byte, 0, len(bucketMagic)+8+8+len(digest)+4)
	prelude = append(prelude, bucketMagic...)
	prelude = binary.BigEndian.AppendUint64(prelude, lastSeq)
	prelude = binary.BigEndian.AppendUint64(prelude, uint64(len(digest)))
	prelude = append(prelude, digest...)
	prelude = binary.BigEndian.AppendUint32(prelude, uint32(len(t.content)))

	chunks := make([][]byte, 1+len(t.content))
	chunks[0] = prelude
	reencoded := 0
	for i := range t.content {
		b := &t.content[i]
		if b.enc == nil {
			b.enc = b.encode()
			reencoded++
		}
		chunks[1+i] = b.enc
	}
	return chunks, reencoded
}

// Restore rebuilds the tracker from a decoded bucketed snapshot: it
// adopts the blob's bucket count and copies its entries in, each bucket
// sized exactly (a certified blob lists them in order, so every Set
// appends), and the cached encodings are seeded from the blob's own
// chunks — so the first capture after a state transfer is already
// incremental instead of a full re-encode.
func (t *Tracker) Restore(st State, buckets int, chunks [][]byte) {
	sizes := make([]int, buckets)
	for _, e := range st.Entries {
		sizes[BucketOf(e.Key, buckets)]++
	}
	t.content = make([]bucket, buckets)
	for b, n := range sizes {
		t.content[b] = bucket{keys: make([]string, 0, n), vals: make([][]byte, 0, n)}
	}
	for _, e := range st.Entries {
		t.Set(e.Key, e.Val)
	}
	for b := 0; b < buckets && 1+b < len(chunks); b++ {
		t.content[b].enc = chunks[1+b]
	}
}

// BucketLookup searches one bucket chunk (the canonical per-bucket
// framing: count u64, then count × (klen u64, key, vlen u64, value)) for
// a key. It returns the value and whether the key is present, and errors
// only on malformed framing — so a VERIFIED chunk authenticates both the
// presence and the absence of the key. The certified read path uses this
// client-side: the chunk's Merkle leaf binds these exact bytes, so a
// replica cannot hide or invent an entry without breaking the proof.
func BucketLookup(chunk []byte, key string) ([]byte, bool, error) {
	r := NewReader(chunk)
	var val []byte
	found := false
	for i, count := 0, r.Count64(16); i < count; i++ {
		k, v := r.Bytes64(), r.Bytes64()
		if string(k) == key {
			found, val = true, bytes.Clone(v)
		}
	}
	if err := r.Done(); err != nil {
		return nil, false, fmt.Errorf("snapcodec: bucket chunk: %w", err)
	}
	return val, found, nil
}

// DecodeBucketed parses an assembled bucketed snapshot, returning the
// state and the re-split chunk list (prelude + one slice per bucket) for
// seeding a Tracker. The chunks and the entries' values alias data.
func DecodeBucketed(data []byte) (State, [][]byte, error) {
	if !bytes.HasPrefix(data, []byte(bucketMagic)) {
		return State{}, nil, fmt.Errorf("snapcodec: bad bucket magic")
	}
	r := NewReader(data[len(bucketMagic):])
	st := State{LastSeq: r.U64(), Digest: bytes.Clone(r.Bytes64())}
	buckets := int(r.U32())
	if buckets <= 0 || buckets > MaxBuckets {
		return State{}, nil, fmt.Errorf("snapcodec: bad bucket count %d", buckets)
	}
	chunks := make([][]byte, 1+buckets)
	end := len(data) - r.Len() // where the chunk being read ends
	chunks[0] = data[:end]
	for b := 0; b < buckets; b++ {
		for i, count := 0, r.Count64(16); i < count; i++ {
			st.Entries = append(st.Entries, Entry{Key: string(r.Bytes64()), Val: r.Bytes64()})
		}
		chunks[1+b], end = data[end:len(data)-r.Len()], len(data)-r.Len()
	}
	if err := r.Done(); err != nil {
		return State{}, nil, err
	}
	return st, chunks, nil
}
