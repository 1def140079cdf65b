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

// contents parses the bucket chunks of a chunk list into a map, apart
// from the tracker.
func contents(t testing.TB, chunks [][]byte) map[string][]byte {
	t.Helper()
	m := map[string][]byte{}
	for _, c := range chunks[1:] {
		r := NewReader(c)
		for i, n := 0, r.Count64(16); i < n; i++ {
			k := r.Bytes64()
			m[string(k)] = r.Bytes64()
		}
		if err := r.Done(); err != nil {
			t.Fatalf("bucket chunk: %v", err)
		}
	}
	return m
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
	got := contents(t, split)
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
	_, split, err := DecodeBucketed(concat(chunks))
	if err != nil {
		t.Fatalf("DecodeBucketed: %v", err)
	}

	dst := NewTracker(DefaultBuckets) // bucket count adopted from blob
	if err := dst.Restore(split); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if dst.Buckets() != 4 {
		t.Fatalf("restored bucket count = %d, want 4", dst.Buckets())
	}
	reChunks, reenc := dst.EncodeChunks(9, []byte{1})
	if reenc != 0 {
		t.Fatalf("first post-restore capture re-encoded %d buckets, want 0 (chunks adopted)", reenc)
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
	// Two keys of bucket 0, x < y, and one of bucket 1; a list of bucket
	// chunks that frame soundly but are not what any state encodes to.
	var in [2][]string
	for i := 0; len(in[0]) < 2 || len(in[1]) < 1; i++ {
		k := fmt.Sprintf("k%d", i)
		in[BucketOf(k, 2)] = append(in[BucketOf(k, 2)], k)
	}
	x, y, other := min(in[0][0], in[0][1]), max(in[0][0], in[0][1]), in[1][0]
	noncanonical := func(keys ...string) [][]byte {
		chunk := binary.BigEndian.AppendUint64(nil, uint64(len(keys)))
		for _, k := range keys {
			chunk = binary.BigEndian.AppendUint64(chunk, uint64(len(k)))
			chunk = binary.BigEndian.AppendUint64(append(chunk, k...), 1)
			chunk = append(chunk, 'v')
		}
		return [][]byte{chunks[0], chunk, binary.BigEndian.AppendUint64(nil, 0)}
	}

	tests := []struct {
		name   string
		data   []byte
		chunks [][]byte // the data as a chunk list, which Restore must refuse too
	}{
		{"empty", nil, nil},
		{"bad magic", []byte("notbucketed-----rest"), nil},
		{"truncated prelude", valid[:10], nil},
		{"truncated bucket", valid[:len(valid)-1], nil},
		{"zero buckets", func() []byte {
			d := append([]byte(nil), valid...)
			// bucket count u32 sits after magic+seq+dlen+digest
			off := len(bucketMagic) + 8 + 8 + 1
			d[off], d[off+1], d[off+2], d[off+3] = 0, 0, 0, 0
			return d[:off+4]
		}(), nil},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xFF), nil},
		{"keys out of order", nil, noncanonical(y, x)},
		{"repeated key", nil, noncanonical(x, x)},
		{"key of another bucket", nil, noncanonical(x, other)},
	}
	if err := NewTracker(0).Restore(noncanonical(x, y)); err != nil {
		t.Fatalf("Restore refused a canonical chunk list: %v", err)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.chunks != nil {
				tt.data = concat(tt.chunks)
				if err := NewTracker(0).Restore(tt.chunks); err == nil {
					t.Fatalf("Restore adopted a non-canonical chunk list")
				}
			}
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

func (r *refTracker) Restore(t testing.TB, chunks [][]byte) {
	*r = *newRefTracker(len(chunks) - 1)
	for k, v := range contents(t, chunks) {
		r.content[BucketOf(k, len(r.content))][k] = v
	}
	copy(r.enc, chunks[1:])
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
// slice exactly when the reference's does. It also keeps every chunk
// handed out, the tracker's and those it restored from, none of which may
// change afterwards: after each step it re-checks the chunks of the last
// capture or restore, the ones the tracker's buckets hold until a write
// copies them, and at the end every chunk the script handed out.
func runTrackerScript(t *testing.T, script []byte) {
	t.Helper()
	tr, ref := NewTracker(4), newRefTracker(4)
	var prev, prevRef [][]byte
	handed := map[*byte][2][]byte{} // first byte of each chunk handed out → the chunk, its bytes then
	var last map[*byte][2][]byte    // the chunks of the last capture or restore
	keep := func(chunks [][]byte) {
		last = map[*byte][2][]byte{}
		for _, c := range chunks[1:] {
			if _, ok := handed[&c[0]]; !ok {
				handed[&c[0]] = [2][]byte{c, bytes.Clone(c)}
			}
			last[&c[0]] = handed[&c[0]]
		}
	}
	unchanged := func(chunks map[*byte][2][]byte, after string) {
		for _, c := range chunks {
			if !bytes.Equal(c[0], c[1]) {
				t.Fatalf("%s wrote into a chunk handed out earlier: %x, was %x", after, c[0], c[1])
			}
		}
	}
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
		keep(got)
		prev, prevRef = got, want
		return got, want
	}
	for step := 0; len(script) >= 3; step, script = step+1, script[3:] {
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
			_, split, err := DecodeBucketed(concat(got))
			if err != nil {
				t.Fatalf("capture %d does not decode: %v", seq, err)
			}
			if script[1]%2 == 0 {
				got, want = split, split
				keep(split)
			}
			tr = NewTracker(1 + int(script[2]%7))
			if err := tr.Restore(got); err != nil {
				t.Fatalf("capture %d does not restore: %v", seq, err)
			}
			ref.Restore(t, want)
			prev, prevRef = got, want
		}
		unchanged(last, fmt.Sprintf("step %d", step))
	}
	capture()
	unchanged(handed, "the script")
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
