// The bucketed snapshot format (package doc) and its Tracker. Each bucket
// is held as its canonical chunk, so capture cost is O(buckets): a
// capture hands the chunks out as they are. The first write to a bucket
// after a capture copies that bucket's chunk, so what a capture interval
// copies is the size of the buckets it wrote, not of the state. The
// checkpoint layer hands the chunks straight to the Merkle commitment, so
// clean buckets also keep their cached leaf hashes.
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
	"math"
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
func BucketOf(key string, n int) int { return bucketOf(key, n) }

func bucketOf[K string | []byte](key K, n int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return int(h % uint64(n))
}

// Tracker holds one application's state in the bucketed layout, each
// bucket as its canonical chunk: the application writes through
// Set/Delete, which edit the chunk in place, and EncodeChunks hands the
// chunks out as they are. A chunk handed out (or adopted by Restore) is
// never written again: the bucket's next write copies it first, so
// snapshot generations retained by the checkpoint layer can alias it
// safely, and a clean bucket comes back as the identical slice.
type Tracker struct {
	content []bucket
}

// bucket is one hash bucket: its chunk (count u64, then per entry klen
// u64, key, vlen u64, value, keys ascending) and where each entry starts
// in it. Get, Set and Delete binary-search the offsets and compare keys
// in the chunk; an overwrite of the same length copies over the old
// value, and any other write splices the chunk and moves the offsets
// above it.
type bucket struct {
	chunk  []byte
	offs   []uint32
	shared bool // chunk was handed out: copy it before the next write
}

// NewTracker returns a tracker over the given bucket count (DefaultBuckets
// if n <= 0). No bucket has been captured: the first capture counts them
// all.
func NewTracker(n int) *Tracker {
	if n <= 0 {
		n = DefaultBuckets
	}
	t := &Tracker{content: make([]bucket, n)}
	empty := make([]byte, 8*n) // each bucket's chunk: a count of 0
	for i := range t.content {
		t.content[i].chunk = empty[8*i : 8*i+8 : 8*i+8]
	}
	return t
}

// Buckets reports the bucket count.
func (t *Tracker) Buckets() int { return len(t.content) }

// key returns entry i's key.
func (b *bucket) key(i int) []byte {
	off := b.offs[i]
	return b.chunk[off+8 : off+8+uint32(binary.BigEndian.Uint64(b.chunk[off:]))]
}

// value returns where entry i's vlen field starts and the value's length.
func (b *bucket) value(i int) (int, int) {
	off := int(b.offs[i])
	at := off + 8 + int(binary.BigEndian.Uint64(b.chunk[off:]))
	return at, int(binary.BigEndian.Uint64(b.chunk[at:]))
}

// find returns the index of key's entry, or where it would be inserted,
// and whether it is there.
func find[K string | []byte](b *bucket, key K) (int, bool) {
	chunk, offs := b.chunk, b.offs
	lo, n := 0, len(offs)
	for n > 0 {
		half := n >> 1
		off := offs[lo+half]
		if k := chunk[off+8 : off+8+uint32(binary.BigEndian.Uint64(chunk[off:]))]; string(k) < string(key) {
			lo, n = lo+half+1, n-half-1
		} else {
			n = half
		}
	}
	return lo, lo < len(offs) && string(b.key(lo)) == string(key)
}

// splice replaces chunk[lo:hi] with n bytes, which it returns for the
// caller to fill, and moves the offsets of entries from on by the change
// in length. The chunk grows as append grows a slice.
func (b *bucket) splice(lo, hi, n, from int) []byte {
	d, old := n-(hi-lo), len(b.chunk)
	if d != 0 {
		if old+d > math.MaxUint32 {
			panic("snapcodec: bucket chunk past 4 GiB: raise the bucket count")
		}
		if d > 0 {
			b.chunk = slices.Grow(b.chunk, d)[:old+d]
		}
		copy(b.chunk[lo+n:], b.chunk[hi:old])
		b.chunk = b.chunk[:old+d]
		for j := from; j < len(b.offs); j++ {
			b.offs[j] = uint32(int(b.offs[j]) + d)
		}
	}
	return b.chunk[lo : lo+n]
}

// write returns key's bucket for writing: a chunk that was handed out is
// copied first. Every write does this, even one that changes nothing, so
// the next capture returns a new slice for every bucket written since the
// last.
func write[K string | []byte](t *Tracker, key K) *bucket {
	b := &t.content[bucketOf(key, len(t.content))]
	if b.shared {
		b.chunk, b.shared = slices.Clone(b.chunk), false
	}
	return b
}

// Get returns key's value and whether it is present. The slice is the
// tracker's own: read it before the tracker's next write and never modify
// it.
func (t *Tracker) Get(key string) ([]byte, bool) {
	b := &t.content[BucketOf(key, len(t.content))]
	if i, found := find(b, key); found {
		at, n := b.value(i)
		return b.chunk[at+8 : at+8+n : at+8+n], true
	}
	return nil, false
}

// Set writes a copy of val under key, so the tracker holds the state's
// one copy of each value and the caller may reuse val at once. val must
// not be the tracker's own (what Get returned).
func (t *Tracker) Set(key string, val []byte) { set(t, key, val) }

// SetBytes is Set for a key held as bytes, which it does not keep.
func (t *Tracker) SetBytes(key, val []byte) { set(t, key, val) }

func set[K string | []byte](t *Tracker, key K, val []byte) {
	b := write(t, key)
	i, found := find(b, key)
	if found {
		at, n := b.value(i)
		if n != len(val) {
			b.splice(at+8, at+8+n, len(val), i+1)
			binary.BigEndian.PutUint64(b.chunk[at:], uint64(len(val)))
		}
		copy(b.chunk[at+8:], val)
		return
	}
	at := len(b.chunk)
	if i < len(b.offs) {
		at = int(b.offs[i])
	}
	e := b.splice(at, at, 16+len(key)+len(val), i)
	binary.BigEndian.PutUint64(e, uint64(len(key)))
	copy(e[8:], key)
	binary.BigEndian.PutUint64(e[8+len(key):], uint64(len(val)))
	copy(e[16+len(key):], val)
	b.offs = slices.Insert(b.offs, i, uint32(at))
	binary.BigEndian.PutUint64(b.chunk, uint64(len(b.offs)))
}

// Delete removes key if present.
func (t *Tracker) Delete(key string) { del(t, key) }

// DeleteBytes is Delete for a key held as bytes.
func (t *Tracker) DeleteBytes(key []byte) { del(t, key) }

func del[K string | []byte](t *Tracker, key K) {
	b := write(t, key)
	i, found := find(b, key)
	if !found {
		return
	}
	end := len(b.chunk)
	if i+1 < len(b.offs) {
		end = int(b.offs[i+1])
	}
	b.splice(int(b.offs[i]), end, 0, i+1)
	b.offs = slices.Delete(b.offs, i, i+1)
	binary.BigEndian.PutUint64(b.chunk, uint64(len(b.offs)))
}

// Keys returns every key, sorted.
func (t *Tracker) Keys() []string {
	var keys []string
	for i := range t.content {
		b := &t.content[i]
		for j := range b.offs {
			keys = append(keys, string(b.key(j)))
		}
	}
	slices.Sort(keys)
	return keys
}

// EncodeChunks returns the full chunk list of the bucketed snapshot for
// the given (lastSeq, digest) — the prelude followed by each bucket's
// chunk — and reports how many buckets were written since the previous
// call. Every chunk is handed out as it is, its capacity clipped, and is
// never written again: a clean bucket comes back as the identical slice of
// the previous call, which is what lets the checkpoint layer reuse its
// leaf hash.
func (t *Tracker) EncodeChunks(lastSeq uint64, digest []byte) ([][]byte, int) {
	prelude := make([]byte, 0, len(bucketMagic)+8+8+len(digest)+4)
	prelude = append(prelude, bucketMagic...)
	prelude = binary.BigEndian.AppendUint64(prelude, lastSeq)
	prelude = binary.BigEndian.AppendUint64(prelude, uint64(len(digest)))
	prelude = append(prelude, digest...)
	prelude = binary.BigEndian.AppendUint32(prelude, uint32(len(t.content)))

	chunks := make([][]byte, 1+len(t.content))
	chunks[0] = prelude
	written := 0
	for i := range t.content {
		b := &t.content[i]
		if !b.shared {
			b.shared = true
			written++
		}
		chunks[1+i] = slices.Clip(b.chunk)
	}
	return chunks, written
}

// Restore replaces the tracker's contents with a snapshot's chunk list
// (the prelude, then one chunk per bucket, as DecodeBucketed splits it):
// it adopts the list's bucket count and its chunks themselves, once each
// checks out as the canonical encoding of its bucket. The adopted chunks
// are never written (the first write to a bucket copies its chunk), so the
// first capture after a state transfer returns them as they are. On an
// error the tracker is unchanged.
func (t *Tracker) Restore(chunks [][]byte) error {
	n := len(chunks) - 1
	if n <= 0 || n > MaxBuckets {
		return fmt.Errorf("snapcodec: bad bucket count %d", n)
	}
	content := make([]bucket, n)
	for i := range content {
		chunk := chunks[1+i]
		offs, size, err := scanBucket(chunk, i, n, nil)
		if err == nil && size != len(chunk) {
			err = fmt.Errorf("snapcodec: bucket %d: %w", i, ErrTrailing)
		}
		if err != nil {
			return err
		}
		content[i] = bucket{chunk: chunk, offs: offs, shared: true}
	}
	t.content = content
	return nil
}

// scanBucket reads the chunk of bucket b of n at the start of data and
// checks that it is canonical: sound framing, keys ascending (so none
// repeats) and each key in bucket b. It returns the entry offsets,
// appended to offs, and the chunk's length.
func scanBucket(data []byte, b, n int, offs []uint32) ([]uint32, int, error) {
	r := NewReader(data)
	var prev []byte
	count := r.Count64(16)
	offs = slices.Grow(offs, count)
	for i := 0; i < count; i++ {
		off := len(data) - r.Len()
		key, _ := r.Bytes64(), r.Bytes64()
		switch c := bytes.Compare(prev, key); {
		case r.err != nil:
			return nil, 0, fmt.Errorf("snapcodec: bucket %d: %w", b, r.err)
		case i > 0 && c == 0:
			return nil, 0, fmt.Errorf("snapcodec: bucket %d: key %q repeats", b, key)
		case i > 0 && c > 0:
			return nil, 0, fmt.Errorf("snapcodec: bucket %d: key %q out of order", b, key)
		case bucketOf(key, n) != b:
			return nil, 0, fmt.Errorf("snapcodec: bucket %d holds key %q of bucket %d", b, key, bucketOf(key, n))
		}
		offs, prev = append(offs, uint32(off)), key
	}
	size := len(data) - r.Len()
	switch {
	case r.err != nil:
		return nil, 0, fmt.Errorf("snapcodec: bucket %d: %w", b, r.err)
	case size > math.MaxUint32:
		return nil, 0, fmt.Errorf("snapcodec: bucket %d: chunk past 4 GiB", b)
	}
	return offs, size, nil
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

// DecodeBucketed parses an assembled bucketed snapshot, returning its
// prelude's fields and the chunk list (the prelude, then one chunk per
// bucket) for Tracker.Restore; the chunks alias data. It refuses any blob
// that is not the canonical encoding of a state: bad framing, and in a
// bucket a key out of order, a repeated key or a key of another bucket.
func DecodeBucketed(data []byte) (State, [][]byte, error) {
	if !bytes.HasPrefix(data, []byte(bucketMagic)) {
		return State{}, nil, fmt.Errorf("snapcodec: bad bucket magic")
	}
	r := NewReader(data[len(bucketMagic):])
	st := State{LastSeq: r.U64(), Digest: bytes.Clone(r.Bytes64())}
	buckets := int(r.U32())
	if err := r.err; err != nil {
		return State{}, nil, err
	}
	if buckets <= 0 || buckets > MaxBuckets {
		return State{}, nil, fmt.Errorf("snapcodec: bad bucket count %d", buckets)
	}
	chunks := make([][]byte, 1+buckets)
	end := len(data) - r.Len() // where the chunk being read ends
	chunks[0] = data[:end:end]
	var offs []uint32 // scratch: Restore rebuilds each bucket's own
	for b := 0; b < buckets; b++ {
		var size int
		var err error
		if offs, size, err = scanBucket(data[end:], b, buckets, offs[:0]); err != nil {
			return State{}, nil, err
		}
		chunks[1+b], end = data[end:end+size:end+size], end+size
	}
	if end != len(data) {
		return State{}, nil, ErrTrailing
	}
	return st, chunks, nil
}
