package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"sbft/internal/merkle"
	"sbft/internal/snapcodec"
)

func testCache() map[int]replyCacheEntry {
	return map[int]replyCacheEntry{
		ClientBase + 2: {timestamp: 5, seq: 9, l: 1, val: []byte("z")},
		ClientBase:     {timestamp: 3, seq: 7, l: 0, val: []byte("a")},
		ClientBase + 1: {timestamp: 9, seq: 8, l: 2, val: bytes.Repeat([]byte("b"), 100)},
	}
}

// certifiedSplit commits app bytes cut into SnapshotChunkSize app chunks,
// the shape most snapshots in these tests take.
func certifiedSplit(seq uint64, appDigest, app, table []byte) *CertifiedSnapshot {
	return NewCertifiedSnapshotChunked(seq, appDigest, splitChunks(app, SnapshotChunkSize), table, nil)
}

// TestCertifiedSnapshotRoundTrip covers build → prove → verify → assemble
// → decode for a multi-chunk snapshot.
func TestCertifiedSnapshotRoundTrip(t *testing.T) {
	app := bytes.Repeat([]byte{0xAB}, 3*SnapshotChunkSize+17) // 4 app chunks
	table := encodeReplyTable(testCache())
	cs := certifiedSplit(8, []byte("app-digest"), app, table)

	if got, want := len(cs.Chunks), cs.Header.NumChunks(); got != want {
		t.Fatalf("chunks %d, header says %d", got, want)
	}
	hp, err := cs.ProveHeader()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshotHeader(cs.Root(), cs.Header, hp); err != nil {
		t.Fatalf("header verify: %v", err)
	}
	for i := 1; i <= len(cs.Chunks); i++ {
		p, err := cs.ProveChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifySnapshotChunk(cs.Root(), cs.Header, i, cs.Chunks[i-1], p); err != nil {
			t.Fatalf("chunk %d verify: %v", i, err)
		}
	}
	gotApp, gotTable, err := AssembleSnapshot(cs.Header, cs.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotApp, app) || !bytes.Equal(gotTable, table) {
		t.Fatal("assembled bytes differ from inputs")
	}

	dec, err := DecodeCertifiedSnapshot(cs.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Seq != 8 || !bytes.Equal(dec.Root(), cs.Root()) {
		t.Fatal("decoded snapshot root differs")
	}
}

// TestCertifiedSnapshotDetectsTampering is the heart of the certification
// boundary: any bit flipped in any chunk — including the reply-table
// chunks a Byzantine snapshot server would want to perturb — fails leaf
// verification against the certified root.
func TestCertifiedSnapshotDetectsTampering(t *testing.T) {
	app := bytes.Repeat([]byte{0xCD}, SnapshotChunkSize+100)
	table := encodeReplyTable(testCache())
	cs := certifiedSplit(4, []byte("app-digest"), app, table)

	for i := 1; i <= len(cs.Chunks); i++ {
		p, err := cs.ProveChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		evil := append([]byte(nil), cs.Chunks[i-1]...)
		evil[len(evil)/2] ^= 0x01
		if err := VerifySnapshotChunk(cs.Root(), cs.Header, i, evil, p); err == nil {
			t.Fatalf("tampered chunk %d verified", i)
		}
	}

	// A chunk served at the wrong position must not verify either, even
	// with its own (correct) proof.
	p1, _ := cs.ProveChunk(1)
	if err := VerifySnapshotChunk(cs.Root(), cs.Header, 2, cs.Chunks[0][:len(cs.Chunks[1])], p1); err == nil {
		t.Fatal("chunk accepted at the wrong index")
	}

	// Tampered header: claim a different app digest.
	hp, _ := cs.ProveHeader()
	evilHdr := cs.Header
	evilHdr.AppDigest = []byte("forged")
	if err := VerifySnapshotHeader(cs.Root(), evilHdr, hp); err == nil {
		t.Fatal("tampered header verified")
	}
}

// TestCertifiedSnapshotDeterminism: the same (app bytes, reply table)
// yields the same root regardless of the map's construction order — the
// property that lets independent replicas reach the π quorum.
func TestCertifiedSnapshotDeterminism(t *testing.T) {
	app := bytes.Repeat([]byte{7}, 1000)
	a := certifiedSplit(4, []byte("d"), app, encodeReplyTable(testCache()))
	other := map[int]replyCacheEntry{}
	for c, e := range testCache() { // re-insert in map order (arbitrary)
		other[c] = e
	}
	b := certifiedSplit(4, []byte("d"), app, encodeReplyTable(other))
	if !bytes.Equal(a.Root(), b.Root()) {
		t.Fatal("roots differ for identical state")
	}
	c := certifiedSplit(4, []byte("d"), app, encodeReplyTable(map[int]replyCacheEntry{}))
	if bytes.Equal(a.Root(), c.Root()) {
		t.Fatal("root ignores the reply table")
	}
}

// TestStoredSnapshotRejectsCorruption: the durable blob re-validates shape
// on load.
func TestStoredSnapshotRejectsCorruption(t *testing.T) {
	cs := certifiedSplit(4, []byte("d"), bytes.Repeat([]byte{1}, 100), encodeReplyTable(testCache()))
	blob := cs.Encode()
	if _, err := DecodeCertifiedSnapshot(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob decoded")
	}
	if _, err := DecodeCertifiedSnapshot([]byte("garbage")); err == nil {
		t.Fatal("garbage blob decoded")
	}
}

// legacySnapshot commits app bytes in the retired fixed-split layout: the
// bytes counted in AppLen but no app chunks declared, the leaves cut at
// ChunkSize.
func legacySnapshot() *CertifiedSnapshot {
	app := bytes.Repeat([]byte{2}, SnapshotChunkSize+17)
	cs := &CertifiedSnapshot{Seq: 8, Chunks: splitChunks(app, SnapshotChunkSize),
		Header: SnapshotHeader{AppDigest: []byte("d"), AppLen: uint64(len(app)), ChunkSize: SnapshotChunkSize}}
	cs.build(nil)
	return cs
}

// TestLegacyHeaderRefused: a header with app bytes but no app chunks is
// the fixed-split layout, which no capture produces any more. Neither a
// fetcher (VerifySnapshotHeader) nor a restart (DecodeCertifiedSnapshot)
// takes it, however well its tree is formed.
func TestLegacyHeaderRefused(t *testing.T) {
	cs := legacySnapshot()
	hp, err := cs.ProveHeader()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshotHeader(cs.Root(), cs.Header, hp); err == nil {
		t.Fatal("VerifySnapshotHeader accepted AppChunks 0 with AppLen > 0")
	}
	if _, err := DecodeCertifiedSnapshot(cs.Encode()); err == nil {
		t.Fatal("DecodeCertifiedSnapshot accepted AppChunks 0 with AppLen > 0")
	}
}

// TestCheckpointDigestDomainSeparation: an execution certificate digest
// can never collide with a checkpoint certificate digest for the same
// (seq, digest) pair, so one certificate family cannot be replayed as the
// other.
func TestCheckpointDigestDomainSeparation(t *testing.T) {
	d := []byte("digest")
	if bytes.Equal(StateSigDigest(4, d), CheckpointSigDigest(4, d)) {
		t.Fatal("state and checkpoint signing digests collide")
	}
}

// TestChunkLeafHashMatchesLeafHash pins the streamed chunk leaf to what
// it replaced: merkle.LeafHash of tag ‖ index ‖ chunk, built in one
// buffer. The sizes straddle SHA-256's padding and block boundaries.
func TestChunkLeafHashMatchesLeafHash(t *testing.T) {
	for _, size := range []int{0, 1, 55, 56, 64, 64 * 1024} {
		for _, index := range []int{1, -1 << 63} { // the last is 2⁶³ once cast to uint64
			chunk := bytes.Repeat([]byte{byte(size), 0x5A}, size)[:size]
			leaf := binary.BigEndian.AppendUint64([]byte("sbft:snap-chunk"), uint64(index))
			if got, want := chunkLeafHash(index, chunk), merkle.LeafHash(append(leaf, chunk...)); got != want {
				t.Errorf("chunk of %d bytes at index %d: streamed leaf %v, want %v", size, uint64(index), got, want)
			}
		}
	}
}

// TestSteadyCaptureAllocations bounds what a capture allocates by what
// was written: with d of 64 buckets dirty, at most 2·d objects (a bucket's
// new encoding is one; nothing is collected, sorted or copied to be
// hashed) above a constant for the prelude, the chunk and leaf lists and
// the commitment tree's levels.
func TestSteadyCaptureAllocations(t *testing.T) {
	const perCapture = 32
	tracker := snapcodec.NewTracker(0)
	var keyIn [snapcodec.DefaultBuckets]string // one key of each bucket
	for i := 0; i < 8192; i++ {
		key := fmt.Sprintf("key-%04d", i)
		tracker.Set(key, []byte("value"))
		keyIn[snapcodec.BucketOf(key, len(keyIn))] = key
	}
	cache, digest, val := new(CaptureCache), []byte{0xD1}, []byte("other")
	for _, dirty := range []int{0, 1, 16, 64} {
		allocs := testing.AllocsPerRun(20, func() {
			for _, key := range keyIn[:dirty] {
				tracker.Set(key, val)
			}
			chunks, _ := tracker.EncodeChunks(1, digest)
			NewCertifiedSnapshotChunked(1, digest, chunks, nil, cache)
		})
		if cache.DirtyChunks() != 1+dirty { // the prelude always is
			t.Fatalf("%d buckets written, %d chunks re-hashed", dirty, cache.DirtyChunks())
		}
		if allocs > float64(2*dirty+perCapture) {
			t.Errorf("capture with %d of 64 buckets dirty allocates %.0f objects, want at most 2·%d + %d", dirty, allocs, dirty, perCapture)
		}
		t.Logf("%d of 64 buckets dirty: %.0f objects", dirty, allocs)
	}
}
