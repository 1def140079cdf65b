package snapcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// concat assembles a chunk list the way state transfer does before
// handing the blob to Application.Restore.
func concat(chunks [][]byte) []byte {
	var buf bytes.Buffer
	for _, c := range chunks {
		buf.Write(c)
	}
	return buf.Bytes()
}

func TestTrackerEncodeDecodeRoundTrip(t *testing.T) {
	tr := NewTracker(8)
	want := map[string][]byte{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := []byte(fmt.Sprintf("val-%d", i*i))
		tr.Set(k, v)
		want[k] = v
	}
	tr.Set("key-007", []byte("overwritten"))
	want["key-007"] = []byte("overwritten")
	tr.Delete("key-013")
	delete(want, "key-013")

	digest := []byte{0xAA, 0xBB}
	chunks, reenc := tr.EncodeChunks(42, digest)
	if len(chunks) != 1+8 {
		t.Fatalf("chunk count = %d, want 9", len(chunks))
	}
	if reenc != 8 {
		t.Fatalf("first capture re-encoded %d buckets, want all 8", reenc)
	}
	st, split, err := DecodeBucketed(concat(chunks))
	if err != nil {
		t.Fatalf("DecodeBucketed: %v", err)
	}
	if st.LastSeq != 42 || !bytes.Equal(st.Digest, digest) {
		t.Fatalf("prelude mismatch: seq=%d digest=%x", st.LastSeq, st.Digest)
	}
	got := st.ToMap()
	if len(got) != len(want) {
		t.Fatalf("entry count = %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %q = %q, want %q", k, got[k], v)
		}
	}
	if len(split) != len(chunks) {
		t.Fatalf("re-split chunk count = %d, want %d", len(split), len(chunks))
	}
	for i := range chunks {
		if !bytes.Equal(split[i], chunks[i]) {
			t.Fatalf("re-split chunk %d differs from encoded chunk", i)
		}
	}
}

// sameSlice reports whether two byte slices share identity (same backing
// pointer and length) — the clean-chunk contract the checkpoint layer's
// leaf-hash cache relies on.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func TestTrackerIncrementalReencode(t *testing.T) {
	tr := NewTracker(16)
	for i := 0; i < 64; i++ {
		tr.Set(fmt.Sprintf("k%02d", i), []byte{byte(i)})
	}
	first, _ := tr.EncodeChunks(1, nil)

	// No writes: nothing re-encoded, every chunk slice-identical.
	second, reenc := tr.EncodeChunks(1, nil)
	if reenc != 0 {
		t.Fatalf("clean capture re-encoded %d buckets, want 0", reenc)
	}
	for b := 1; b < len(first); b++ {
		if !sameSlice(first[b], second[b]) {
			t.Fatalf("clean bucket chunk %d lost slice identity", b)
		}
	}

	// One write: exactly that key's bucket re-encodes; all others keep
	// their identical slices.
	tr.Set("k05", []byte("new"))
	dirty := BucketOf("k05", 16)
	third, reenc := tr.EncodeChunks(2, nil)
	if reenc != 1 {
		t.Fatalf("single-write capture re-encoded %d buckets, want 1", reenc)
	}
	for b := 1; b < len(second); b++ {
		if b == 1+dirty {
			if sameSlice(second[b], third[b]) {
				t.Fatalf("dirty bucket %d kept its stale slice", b)
			}
			continue
		}
		if !sameSlice(second[b], third[b]) {
			t.Fatalf("clean bucket chunk %d lost slice identity", b)
		}
	}

	// A delete dirties its bucket the same way.
	tr.Delete("k05")
	_, reenc = tr.EncodeChunks(3, nil)
	if reenc != 1 {
		t.Fatalf("delete capture re-encoded %d buckets, want 1", reenc)
	}
}

func TestTrackerRestoreSeedsEncodingCache(t *testing.T) {
	src := NewTracker(4)
	for i := 0; i < 20; i++ {
		src.Set(fmt.Sprintf("key-%d", i), []byte{byte(i), byte(i)})
	}
	chunks, _ := src.EncodeChunks(9, []byte{1})
	st, split, err := DecodeBucketed(concat(chunks))
	if err != nil {
		t.Fatalf("DecodeBucketed: %v", err)
	}

	dst := NewTracker(DefaultBuckets) // bucket count adopted from blob
	dst.Restore(st, len(split)-1, split)
	if dst.Buckets() != 4 {
		t.Fatalf("restored bucket count = %d, want 4", dst.Buckets())
	}
	reChunks, reenc := dst.EncodeChunks(9, []byte{1})
	if reenc != 0 {
		t.Fatalf("first post-restore capture re-encoded %d buckets, want 0 (cache seeded)", reenc)
	}
	for b := 1; b < len(reChunks); b++ {
		if !sameSlice(reChunks[b], split[b]) {
			t.Fatalf("post-restore chunk %d not aliased to restored blob", b)
		}
	}
	if !bytes.Equal(concat(reChunks), concat(chunks)) {
		t.Fatalf("post-restore encoding differs from source")
	}
}

func TestDecodeBucketedRejectsMalformed(t *testing.T) {
	tr := NewTracker(2)
	tr.Set("a", []byte("b"))
	chunks, _ := tr.EncodeChunks(1, []byte{7})
	valid := concat(chunks)

	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("notbucketed-----rest")},
		{"truncated prelude", valid[:10]},
		{"truncated bucket", valid[:len(valid)-1]},
		{"zero buckets", func() []byte {
			d := append([]byte(nil), valid...)
			// bucket count u32 sits after magic+seq+dlen+digest
			off := len(bucketMagic) + 8 + 8 + 1
			d[off], d[off+1], d[off+2], d[off+3] = 0, 0, 0, 0
			return d[:off+4]
		}()},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xFF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := DecodeBucketed(tt.data); err == nil {
				t.Fatalf("DecodeBucketed accepted malformed input")
			}
		})
	}
}

// refTracker is the map-collect-sort encoder Tracker replaced, kept as
// the oracle: one map per bucket, every dirty bucket re-collected and
// re-sorted at capture.
type refTracker struct {
	content []map[string][]byte
	enc     [][]byte
}

func newRefTracker(n int) *refTracker {
	r := &refTracker{content: make([]map[string][]byte, n), enc: make([][]byte, n)}
	for i := range r.content {
		r.content[i] = make(map[string][]byte)
	}
	return r
}

func (r *refTracker) Set(key string, val []byte) {
	b := BucketOf(key, len(r.content))
	r.content[b][key] = val
	r.enc[b] = nil
}

func (r *refTracker) Delete(key string) {
	b := BucketOf(key, len(r.content))
	delete(r.content[b], key)
	r.enc[b] = nil
}

func (r *refTracker) EncodeChunks(lastSeq uint64, digest []byte) ([][]byte, int) {
	prelude := binary.BigEndian.AppendUint64([]byte(bucketMagic), lastSeq)
	prelude = binary.BigEndian.AppendUint64(prelude, uint64(len(digest)))
	prelude = append(prelude, digest...)
	chunks := [][]byte{binary.BigEndian.AppendUint32(prelude, uint32(len(r.content)))}
	reencoded := 0
	for b, m := range r.content {
		if r.enc[b] == nil {
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			buf := binary.BigEndian.AppendUint64(nil, uint64(len(keys)))
			for _, k := range keys {
				buf = binary.BigEndian.AppendUint64(buf, uint64(len(k)))
				buf = append(buf, k...)
				buf = binary.BigEndian.AppendUint64(buf, uint64(len(m[k])))
				buf = append(buf, m[k]...)
			}
			r.enc[b] = buf
			reencoded++
		}
		chunks = append(chunks, r.enc[b])
	}
	return chunks, reencoded
}

func (r *refTracker) Restore(st State, buckets int, chunks [][]byte) {
	*r = *newRefTracker(buckets)
	for _, e := range st.Entries {
		r.content[BucketOf(e.Key, buckets)][e.Key] = e.Val
	}
	for b := 0; b < buckets && 1+b < len(chunks); b++ {
		r.enc[b] = chunks[1+b]
	}
}

// scriptKey maps a byte to one of 256 keys: the first 16 prefix one
// another (the empty key included), the rest are spread.
func scriptKey(k byte) string {
	if k < 16 {
		return "prefix/prefix/pr"[:k]
	}
	return fmt.Sprintf("key-%03d", k)
}

// runTrackerScript drives a Tracker and the reference through the same
// steps — three bytes each: operation, key, value — and compares every
// capture: equal chunks, equal re-encode counts, and a bucket keeps its
// slice exactly when the reference's does.
func runTrackerScript(t *testing.T, script []byte) {
	t.Helper()
	tr, ref := NewTracker(4), newRefTracker(4)
	var prev, prevRef [][]byte
	seq := uint64(0)
	capture := func() ([][]byte, [][]byte) {
		seq++
		got, n := tr.EncodeChunks(seq, []byte{byte(seq)})
		want, nRef := ref.EncodeChunks(seq, []byte{byte(seq)})
		if n != nRef || len(got) != len(want) {
			t.Fatalf("capture %d: %d chunks, %d re-encoded; reference %d, %d", seq, len(got), n, len(want), nRef)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("capture %d: chunk %d = %x, reference %x", seq, i, got[i], want[i])
			}
			if i == 0 || prev == nil {
				continue
			}
			if kept := sameSlice(got[i], prev[i]); kept != sameSlice(want[i], prevRef[i]) {
				t.Fatalf("capture %d: chunk %d kept its slice: %v, the reference's: %v", seq, i, kept, !kept)
			}
		}
		prev, prevRef = got, want
		return got, want
	}
	for ; len(script) >= 3; script = script[3:] {
		key, val := scriptKey(script[1]), []byte{script[2], script[2]}[:1+script[2]%2]
		switch script[0] % 12 {
		case 0, 1, 2, 3:
			tr.Set(key, val)
			ref.Set(key, val)
		case 4:
			tr.Set(key, []byte{})
			ref.Set(key, []byte{})
		case 5:
			tr.Set(key, nil)
			ref.Set(key, nil)
		case 6, 7, 8: // absent as often as present
			tr.Delete(key)
			ref.Delete(key)
		case 9, 10:
			capture()
		case 11:
			// Restore both from this state's own capture: the chunk list
			// as returned, or a transferred blob re-split, into a tracker
			// of another bucket count.
			got, want := capture()
			st, split, err := DecodeBucketed(concat(got))
			if err != nil {
				t.Fatalf("capture %d does not decode: %v", seq, err)
			}
			if script[1]%2 == 0 {
				got, want = split, split
			}
			tr = NewTracker(1 + int(script[2]%7))
			tr.Restore(st, 4, got)
			ref.Restore(st, 4, want)
			prev, prevRef = got, want
		}
	}
	capture()
}

func TestTrackerMatchesReference(t *testing.T) {
	script := make([]byte, 3*10000)
	rand.New(rand.NewSource(1)).Read(script)
	runTrackerScript(t, script)
}

func FuzzTrackerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 7, 0, 2, 7, 9, 0, 0, 6, 1, 0, 6, 1, 0, 11, 0, 3, 5, 0, 0, 11, 1, 2, 0, 40, 9})
	f.Fuzz(func(t *testing.T, script []byte) { runTrackerScript(t, script) })
}

func TestBucketOfMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := []string{"", "a", strings.Repeat("k", 33), strings.Repeat("\xff", 200)}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(80))
		rng.Read(b)
		keys = append(keys, string(b))
	}
	for _, key := range keys {
		h := fnv.New64a()
		h.Write([]byte(key))
		for _, n := range []int{1, 2, 64, 1000003, MaxBuckets} {
			if got, want := BucketOf(key, n), int(h.Sum64()%uint64(n)); got != want {
				t.Fatalf("BucketOf(%q, %d) = %d, hash/fnv gives %d", key, n, got, want)
			}
		}
	}
	key := keys[3]
	if a := testing.AllocsPerRun(100, func() { BucketOf(key, 64) }); a != 0 {
		t.Fatalf("BucketOf allocates %v objects per call, want 0", a)
	}
}

// BenchmarkTrackerSet prices the two kinds of write against the size of
// the bucket they land in (a tracker of one bucket, filled in key order
// so the fill costs the same whatever the structure): overwrite stores
// over an existing key; insert adds a key that is not there and deletes
// it again, so the bucket keeps its size (one operation = one insert +
// one delete).
func BenchmarkTrackerSet(b *testing.B) {
	for _, n := range []int{128, 16384} {
		tr, rng, val := NewTracker(1), rand.New(rand.NewSource(1)), []byte("other")
		present, absent := make([]string, n), make([]string, n)
		for i := range present {
			present[i], absent[i] = fmt.Sprintf("key-%07d", 2*i), fmt.Sprintf("key-%07d", 2*i+1)
			tr.Set(present[i], []byte("value"))
		}
		b.Run(fmt.Sprintf("overwrite/bucket=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr.Set(present[rng.Intn(n)], val)
			}
		})
		b.Run(fmt.Sprintf("insert/bucket=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				key := absent[rng.Intn(n)]
				tr.Set(key, val)
				tr.Delete(key)
			}
		})
	}
}

// BenchmarkTrackerEncode is one capture of the wall-clock rig's state
// (8192 keys over 64 buckets) with one bucket written since the last
// capture, and with all 64.
func BenchmarkTrackerEncode(b *testing.B) {
	tr := NewTracker(DefaultBuckets)
	var keyIn [DefaultBuckets]string // one key of each bucket
	for i := 0; i < 8192; i++ {
		key := fmt.Sprintf("c%d/%04d", i/1024, i%1024)
		tr.Set(key, []byte("value-value-value-value-"))
		keyIn[BucketOf(key, DefaultBuckets)] = key
	}
	val := []byte("other-other-other-other-")
	for _, dirty := range []int{1, DefaultBuckets} {
		b.Run(fmt.Sprintf("dirty=%dof%d", dirty, DefaultBuckets), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, key := range keyIn[:dirty] {
					tr.Set(key, val)
				}
				tr.EncodeChunks(uint64(i), nil)
			}
		})
	}
}
