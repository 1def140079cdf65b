package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sbft/internal/crypto/threshsig"
)

// The records this package stores or embeds (recordVersion): one
// round-trip table and one fuzz target each, as internal/wire has for the
// socket messages. A fuzz target asserts that no input panics the decoder
// and that every accepted input is the one encoding of what it decodes to.

// refusesDamage checks what every record decoder owes: each strict prefix,
// a trailing byte and another version byte are errors, the last one naming
// the versions.
func refusesDamage(t *testing.T, what string, enc []byte, decode func([]byte) error) {
	t.Helper()
	for n := 0; n < len(enc); n += 1 + len(enc)/256 {
		if decode(enc[:n]) == nil {
			t.Fatalf("%s: %d-byte prefix of %d accepted", what, n, len(enc))
		}
	}
	if decode(append(enc[:len(enc):len(enc)], 0)) == nil {
		t.Fatalf("%s: trailing byte accepted", what)
	}
	// 0x2c: what a gob stream of the builds before this format starts with.
	old := append([]byte{0x2c}, enc[1:]...)
	if err := decode(old); err == nil || !strings.Contains(err.Error(), "format version 44, this build reads version 1") {
		t.Fatalf("%s: another format's record: %v", what, err)
	}
}

func blockSamples() []BlockRecord {
	return []BlockRecord{
		{}, // a null block
		{Reqs: []Request{{Client: ClientBase, Timestamp: 3, Op: []byte("put k v")}, {Client: ClientBase + 1, Timestamp: 1 << 62, Op: []byte("get k"), Direct: true}},
			Results: [][]byte{[]byte("ok"), nil}},
		{Reqs: []Request{{Client: -1, Op: bytes.Repeat([]byte{3}, 1<<16)}}, Results: [][]byte{bytes.Repeat([]byte{4}, 1<<12)}},
	}
}

func TestBlockRecordRoundTrip(t *testing.T) {
	for i, rec := range blockSamples() {
		enc := EncodeBlockPayload(rec.Reqs, rec.Results)
		got, err := DecodeBlockPayload(enc)
		if err != nil || !reflect.DeepEqual(got, rec) {
			t.Fatalf("sample %d: %v\n got %+v\nwant %+v", i, err, got, rec)
		}
		refusesDamage(t, "block record", enc, func(b []byte) error { _, err := DecodeBlockPayload(b); return err })
	}
	got, err := DecodeBlockPayload(EncodeBlockPayload([]Request{}, [][]byte{{}}))
	if err != nil || !reflect.DeepEqual(got, BlockRecord{Results: [][]byte{nil}}) {
		t.Fatalf("empty fields decode to %+v, %v; want nil fields", got, err)
	}
}

func FuzzDecodeBlockRecord(f *testing.F) {
	for _, rec := range blockSamples() {
		f.Add(EncodeBlockPayload(rec.Reqs, rec.Results))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeBlockPayload(b)
		if err != nil {
			return
		}
		if again := EncodeBlockPayload(rec.Reqs, rec.Results); !bytes.Equal(again, b) {
			t.Fatalf("accepted % x\nre-encodes as % x", b, again)
		}
	})
}

func snapshotSamples() []*CertifiedSnapshot {
	table := encodeReplyTable(map[int]replyCacheEntry{ClientBase: {timestamp: 5, seq: 8, l: 0, val: []byte("ok")}})
	split := certifiedSplit(8, bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 3*SnapshotChunkSize+17), table)
	split.Pi = threshsig.Signature{Data: bytes.Repeat([]byte{9}, 33)}
	chunked := NewCertifiedSnapshotChunked(16, bytes.Repeat([]byte{1}, 32),
		[][]byte{[]byte("hdr"), bytes.Repeat([]byte{6}, 1<<20), []byte("b2")}, table, nil)
	return []*CertifiedSnapshot{split, chunked, NewCertifiedSnapshotChunked(0, nil, nil, nil, nil)}
}

func TestStoredSnapshotRoundTrip(t *testing.T) {
	for i, cs := range snapshotSamples() {
		enc := cs.Encode()
		got, err := DecodeCertifiedSnapshot(enc)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if got.Seq != cs.Seq || !reflect.DeepEqual(got.Header, cs.Header) || !reflect.DeepEqual(got.Chunks, cs.Chunks) ||
			!reflect.DeepEqual(got.Pi, cs.Pi) || !bytes.Equal(got.Root(), cs.Root()) {
			t.Fatalf("sample %d: decoded snapshot differs", i)
		}
		refusesDamage(t, "stored snapshot", enc, func(b []byte) error { _, err := DecodeCertifiedSnapshot(b); return err })
	}
}

func FuzzDecodeStoredSnapshot(f *testing.F) {
	f.Add(legacySnapshot().Encode()) // refused: the retired fixed-split layout
	for _, cs := range snapshotSamples() {
		if enc := cs.Encode(); len(enc) < 1<<16 {
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cs, err := DecodeCertifiedSnapshot(b)
		if err != nil {
			return
		}
		if again := cs.Encode(); !bytes.Equal(again, b) {
			t.Fatalf("accepted % x\nre-encodes as % x", b, again)
		}
	})
}
