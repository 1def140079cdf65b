package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"sbft/internal/snapcodec"
)

// The capture (SnapshotChunks) is the state as π roots certify it and as
// Restore rebuilds it, so it must describe exactly what Get reads: a
// capture that missed a write would certify — and transfer — a state no
// replica executed.

func concatChunks(chunks [][]byte) []byte {
	var buf bytes.Buffer
	for _, c := range chunks {
		buf.Write(c)
	}
	return buf.Bytes()
}

// contents parses a capture's bucket chunks into a map, apart from the
// tracker that encoded them.
func contents(t *testing.T, chunks [][]byte) map[string][]byte {
	t.Helper()
	m := map[string][]byte{}
	for _, c := range chunks[1:] {
		r := snapcodec.NewReader(c)
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

func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// bucketOffset is the byte offset of chunk i inside the concatenation of
// chunks (for checking that restored captures alias the blob in place).
func bucketOffset(_ []byte, chunks [][]byte, i int) int {
	off := 0
	for j := 0; j < i; j++ {
		off += len(chunks[j])
	}
	return off
}

func populate(t *testing.T, s *Store, blocks int) {
	t.Helper()
	for seq := uint64(1); seq <= uint64(blocks); seq++ {
		s.ExecuteBlock(seq, [][]byte{
			Put(fmt.Sprintf("key-%03d", seq), []byte(fmt.Sprintf("val-%d", seq))),
			Put(fmt.Sprintf("key-%03d", seq*7%100), []byte("rewritten")),
		})
	}
}

func TestSnapshotChunksMatchFlatSnapshot(t *testing.T) {
	s := NewWithBuckets(8)
	populate(t, s, 30)
	s.ExecuteBlock(31, [][]byte{Delete("key-003")})

	chunks, ok, err := s.SnapshotChunks()
	if err != nil || !ok {
		t.Fatalf("SnapshotChunks: ok=%v err=%v", ok, err)
	}
	bucketed, _, err := snapcodec.DecodeBucketed(concatChunks(chunks))
	if err != nil {
		t.Fatalf("DecodeBucketed: %v", err)
	}
	if bucketed.LastSeq != s.LastExecuted() || !bytes.Equal(bucketed.Digest, s.Digest()) {
		t.Fatalf("metadata diverged: capture (%d,%x) store (%d,%x)",
			bucketed.LastSeq, bucketed.Digest, s.LastExecuted(), s.Digest())
	}
	bm, keys := contents(t, chunks), s.Keys()
	if len(bm) != len(keys) {
		t.Fatalf("entry count diverged: capture %d, store %d", len(bm), len(keys))
	}
	for _, k := range keys {
		if v, _ := s.Get(k); !bytes.Equal(bm[k], v) {
			t.Fatalf("key %q diverged between capture and store", k)
		}
	}
}

func TestCleanChunksKeepSliceIdentity(t *testing.T) {
	s := NewWithBuckets(16)
	populate(t, s, 40)

	first, _, _ := s.SnapshotChunks()
	second, _, _ := s.SnapshotChunks()
	for i := 1; i < len(first); i++ {
		if !sameSlice(first[i], second[i]) {
			t.Fatalf("idle capture changed chunk %d's slice identity", i)
		}
	}

	// One Put dirties exactly the written key's bucket (plus the prelude,
	// which re-encodes every capture because it carries lastSeq/digest).
	key := "freshly-written"
	s.ExecuteBlock(41, [][]byte{Put(key, []byte("x"))})
	dirty := 1 + snapcodec.BucketOf(key, 16)
	third, _, _ := s.SnapshotChunks()
	for i := 1; i < len(third); i++ {
		if i == dirty {
			if sameSlice(second[i], third[i]) {
				t.Fatalf("written bucket %d kept its stale slice", i)
			}
			continue
		}
		if !sameSlice(second[i], third[i]) {
			t.Fatalf("untouched bucket %d lost slice identity after a single Put", i)
		}
	}
}

func TestRestoreSeedsIncrementalCapture(t *testing.T) {
	src := NewWithBuckets(8)
	populate(t, src, 25)
	chunks, _, _ := src.SnapshotChunks()
	blob := concatChunks(chunks)

	dst := New() // DefaultBuckets; must adopt the blob's count
	if err := dst.Restore(blob); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if dst.LastExecuted() != src.LastExecuted() || !bytes.Equal(dst.Digest(), src.Digest()) {
		t.Fatalf("restored store diverged: seq %d/%d", dst.LastExecuted(), src.LastExecuted())
	}
	reChunks, ok, err := dst.SnapshotChunks()
	if err != nil || !ok {
		t.Fatalf("SnapshotChunks after restore: ok=%v err=%v", ok, err)
	}
	if len(reChunks) != len(chunks) {
		t.Fatalf("post-restore chunk count %d, want %d (bucket count not adopted)", len(reChunks), len(chunks))
	}
	if !bytes.Equal(concatChunks(reChunks), blob) {
		t.Fatalf("post-restore capture differs from the restored snapshot")
	}
	// The tracker adopts the blob's chunks: the first post-restore
	// capture aliases the restored snapshot's own bytes instead of
	// re-encoding the whole state.
	for i := 1; i < len(reChunks); i++ {
		if len(reChunks[i]) > 0 && &reChunks[i][0] != &blob[bucketOffset(blob, chunks, i)] {
			t.Fatalf("post-restore chunk %d re-encoded instead of aliasing the restored blob", i)
		}
	}

	// A restored store keeps tracking: a write after restore dirties only
	// its bucket and the re-captured state matches a flat decode.
	dst.ExecuteBlock(dst.LastExecuted()+1, [][]byte{Put("post-restore", []byte("y"))})
	after, _, _ := dst.SnapshotChunks()
	if _, _, err := snapcodec.DecodeBucketed(concatChunks(after)); err != nil {
		t.Fatalf("DecodeBucketed after post-restore write: %v", err)
	}
	if got := contents(t, after)["post-restore"]; !bytes.Equal(got, []byte("y")) {
		t.Fatalf("post-restore write missing from capture: %q", got)
	}
}
