package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sbft/internal/core"
	"sbft/internal/crypto/threshbls"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/merkle"
	"sbft/internal/pbft"
)

// sample is one row of the round-trip table. want is what decoding must
// yield when it is not in itself: a zero-length slice comes back nil.
type sample struct {
	name string
	in   core.Message
	want core.Message
}

// fill returns n bytes counting up from seed (nil for none).
func fill(n int, seed byte) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func digest(seed byte) (d [32]byte) {
	copy(d[:], fill(32, seed))
	return d
}

func reqs(n, opLen int) []core.Request {
	if n == 0 {
		return nil
	}
	out := make([]core.Request, n)
	for i := range out {
		out[i] = core.Request{Client: 1000 + i, Timestamp: uint64(1)<<40 + uint64(i), Op: fill(opLen, byte(i)), Direct: i%2 == 1}
	}
	return out
}

func proof(index, steps int) merkle.Proof {
	p := merkle.Proof{Index: index}
	for i := 0; i < steps; i++ {
		p.Steps = append(p.Steps, merkle.ProofStep{Hash: digest(byte(i)), Right: i%2 == 0})
	}
	return p
}

// leaves returns n distinct digests: a snapshot meta's leaf list.
func leaves(n int) []merkle.Digest {
	out := make([]merkle.Digest, n)
	for i := range out {
		out[i] = digest(byte(i))
	}
	return out
}

func share(signer int) threshsig.Share  { return threshsig.Share{Signer: signer, Data: fill(33, 7)} }
func sig(seed byte) threshsig.Signature { return threshsig.Signature{Data: fill(33, seed)} }

var header = core.SnapshotHeader{AppDigest: fill(32, 9), AppLen: 1 << 33, TableLen: 4096, ChunkSize: 8192, AppChunks: 65}

func viewChange(replica, slots int) core.ViewChangeMsg {
	m := core.ViewChangeMsg{NewView: 3, Replica: replica, LastStable: 128, StableDigest: fill(32, 1), StablePi: sig(2)}
	for i := 0; i < slots; i++ {
		m.Slots = append(m.Slots, core.SlotInfo{
			Seq:                uint64(129 + i),
			HasCommitProofSlow: i%2 == 0, TauTau: sig(3), Tau: sig(4), SlowView: 1, SlowReqs: reqs(2, 10),
			HasPrepare: true, PrepareTau: sig(5), PrepareView: 2, PrepareReqs: reqs(1, 0),
			HasCommitProof: i%3 == 0, Sigma: sig(6), FastView: 2, FastReqs: reqs(3, 5),
			HasPrePrepare: true, SigmaShare: share(replica), PrePrepareView: 2, PrePrepareReqs: reqs(4, 100),
		})
	}
	return m
}

func pbftViewChange(replica, prepared int) pbft.ViewChangeMsg {
	m := pbft.ViewChangeMsg{NewView: 2, LastStable: 64, Replica: replica}
	for i := 0; i < prepared; i++ {
		m.Prepared = append(m.Prepared, pbft.PreparedProof{Seq: uint64(65 + i), View: 1, Hash: digest(byte(i)), Reqs: reqs(i, 20)})
	}
	return m
}

// samples holds, for EVERY registered type, the zero value, a filled value
// and (where the type has slices) a value whose slices are empty rather
// than nil, plus large fields on the types that carry bulk data.
func samples() []sample {
	e := []byte{} // empty, not nil
	return []sample{
		{name: "Request/zero", in: core.RequestMsg{}},
		{name: "Request/full", in: core.RequestMsg{Req: reqs(1, 40)[0]}},
		{name: "Request/negative-client", in: core.RequestMsg{Req: core.Request{Client: -1, Timestamp: ^uint64(0), Direct: true}}},
		{name: "Request/empty-op", in: core.RequestMsg{Req: core.Request{Client: 1, Op: e}}, want: core.RequestMsg{Req: core.Request{Client: 1}}},
		{name: "PrePrepare/zero", in: core.PrePrepareMsg{}},
		{name: "PrePrepare/4", in: core.PrePrepareMsg{Seq: 77, View: 1, Reqs: reqs(4, 48)}},
		{name: "PrePrepare/empty", in: core.PrePrepareMsg{Seq: 1, Reqs: []core.Request{}}, want: core.PrePrepareMsg{Seq: 1}},
		{name: "PrePrepare/large", in: core.PrePrepareMsg{Seq: 1 << 50, View: 1 << 20, Reqs: reqs(64, 4096)}},
		{name: "SignShare/zero", in: core.SignShareMsg{}},
		{name: "SignShare/full", in: core.SignShareMsg{Seq: 9, View: 2, Replica: 3, SigmaSig: share(3), TauSig: share(3)}},
		{name: "SignShare/sigma", in: core.SignShareMsg{Seq: 9, View: 2, Replica: 3, SigmaSig: share(3)}},
		{name: "SignShare/tau", in: core.SignShareMsg{Seq: 9, View: 2, Replica: 3, TauSig: share(3)}},
		{name: "FetchShares/zero", in: core.FetchSharesMsg{}},
		{name: "FetchShares/full", in: core.FetchSharesMsg{Seq: 1 << 40, View: 7}},
		{name: "SignShare/empty", in: core.SignShareMsg{SigmaSig: threshsig.Share{Signer: 1, Data: e}}, want: core.SignShareMsg{SigmaSig: threshsig.Share{Signer: 1}}},
		{name: "FullCommitProof/zero", in: core.FullCommitProofMsg{}},
		{name: "FullCommitProof/full", in: core.FullCommitProofMsg{Seq: 9, View: 2, Sigma: sig(1)}},
		{name: "Prepare/zero", in: core.PrepareMsg{}},
		{name: "Prepare/full", in: core.PrepareMsg{Seq: 9, View: 2, Tau: sig(1)}},
		{name: "Commit/zero", in: core.CommitMsg{}},
		{name: "Commit/full", in: core.CommitMsg{Seq: 9, View: 2, Replica: 4, TauTau: share(4)}},
		{name: "FullCommitProofSlow/zero", in: core.FullCommitProofSlowMsg{}},
		{name: "FullCommitProofSlow/full", in: core.FullCommitProofSlowMsg{Seq: 9, View: 2, Tau: sig(1), TauTau: sig(2)}},
		{name: "SignState/zero", in: core.SignStateMsg{}},
		{name: "SignState/full", in: core.SignStateMsg{Seq: 9, Replica: 2, Digest: fill(32, 3), PiSig: share(2)}},
		{name: "FullExecuteProof/zero", in: core.FullExecuteProofMsg{}},
		{name: "FullExecuteProof/full", in: core.FullExecuteProofMsg{Seq: 9, Digest: fill(32, 3), Pi: sig(4)}},
		{name: "ExecuteAck/zero", in: core.ExecuteAckMsg{}},
		{name: "ExecuteAck/full", in: executeAck},
		{name: "ExecuteAck/empty", in: core.ExecuteAckMsg{Seq: 1, Val: e, Digest: e, Pi: threshsig.Signature{Data: e}, Proof: e}, want: core.ExecuteAckMsg{Seq: 1}},
		{name: "Reply/zero", in: core.ReplyMsg{}},
		{name: "Reply/full", in: core.ReplyMsg{Seq: 9, L: 3, Replica: 2, Client: 1001, Timestamp: 1 << 60, View: 7, Val: fill(200, 1)}},
		{name: "Busy/zero", in: core.BusyMsg{}},
		{name: "Busy/full", in: core.BusyMsg{Client: 1001, Timestamp: 5, RetryAfter: 250 * time.Millisecond}},
		{name: "Busy/negative", in: core.BusyMsg{Client: -7, RetryAfter: -time.Second}},
		{name: "CheckpointShare/zero", in: core.CheckpointShareMsg{}},
		{name: "CheckpointShare/full", in: core.CheckpointShareMsg{Seq: 128, Replica: 2, Digest: fill(32, 3), PiSig: share(2)}},
		{name: "CheckpointCert/zero", in: core.CheckpointCertMsg{}},
		{name: "CheckpointCert/full", in: core.CheckpointCertMsg{Seq: 128, Digest: fill(32, 3), Pi: sig(9)}},
		{name: "FetchCommit/zero", in: core.FetchCommitMsg{}},
		{name: "FetchCommit/full", in: core.FetchCommitMsg{Replica: 3, Seq: 1 << 63}},
		{name: "CommitInfo/zero", in: core.CommitInfoMsg{}},
		{name: "CommitInfo/fast", in: core.CommitInfoMsg{Seq: 9, View: 1, Reqs: reqs(3, 30), HasFast: true, Sigma: sig(1)}},
		{name: "CommitInfo/slow", in: core.CommitInfoMsg{Seq: 9, View: 1, Reqs: reqs(1, 1), Tau: sig(2), TauTau: sig(3)}},
		{name: "FetchState/zero", in: core.FetchStateMsg{}},
		{name: "FetchState/full", in: core.FetchStateMsg{Replica: 4, Seq: 256}},
		{name: "SnapshotMeta/zero", in: core.SnapshotMetaMsg{}},
		{name: "SnapshotMeta/full", in: core.SnapshotMetaMsg{Seq: 256, Root: fill(32, 1), Pi: sig(2), Header: header, Leaves: leaves(1 + 65 + 1)}},
		{name: "SnapshotMeta/empty", in: core.SnapshotMetaMsg{Seq: 1, Leaves: []merkle.Digest{}}, want: core.SnapshotMetaMsg{Seq: 1}},
		{name: "FetchSnapshotChunk/zero", in: core.FetchSnapshotChunkMsg{}},
		{name: "FetchSnapshotChunk/full", in: core.FetchSnapshotChunkMsg{Replica: 2, Seq: 256, Index: 65}},
		{name: "SnapshotChunk/zero", in: core.SnapshotChunkMsg{}},
		{name: "SnapshotChunk/full", in: core.SnapshotChunkMsg{Seq: 256, Index: 3, Data: fill(8192, 0)}},
		{name: "SnapshotChunk/large", in: core.SnapshotChunkMsg{Seq: 256, Index: 64, Data: fill(1<<20, 5)}},
		{name: "Read/zero", in: core.ReadMsg{}},
		{name: "Read/full", in: core.ReadMsg{Client: 1001, Nonce: 1 << 40, Op: fill(24, 1), MinSeq: 99}},
		{name: "ReadReply/zero", in: core.ReadReplyMsg{}},
		{name: "ReadReply/behind", in: core.ReadReplyMsg{Client: 1001, Nonce: 4, Replica: 2, Status: core.ReadBehind, Seq: 64}},
		{name: "ReadReply/ok", in: core.ReadReplyMsg{Client: 1001, Nonce: 4, Replica: 2, Status: core.ReadOK, Seq: 64,
			Root: fill(32, 1), Pi: sig(2), Header: header, HeaderProof: proof(0, 7), ChunkIndex: 17, Chunk: fill(30000, 3), ChunkProof: proof(17, 7)}},
		{name: "ViewChange/zero", in: core.ViewChangeMsg{}},
		{name: "ViewChange/full", in: viewChange(2, 3)},
		{name: "ViewChange/empty-slot", in: core.ViewChangeMsg{NewView: 1, Replica: 1, Slots: []core.SlotInfo{{Seq: 5, SlowReqs: []core.Request{}}}},
			want: core.ViewChangeMsg{NewView: 1, Replica: 1, Slots: []core.SlotInfo{{Seq: 5}}}},
		{name: "NewView/zero", in: core.NewViewMsg{}},
		{name: "NewView/full", in: core.NewViewMsg{View: 3, ViewChanges: []core.ViewChangeMsg{viewChange(1, 2), viewChange(2, 0), viewChange(3, 5)}}},
		{name: "NewView/large", in: core.NewViewMsg{View: 3, ViewChanges: []core.ViewChangeMsg{viewChange(1, 256), viewChange(2, 256), viewChange(3, 256)}}},

		{name: "pbft.PrePrepare/zero", in: pbft.PrePrepareMsg{}},
		{name: "pbft.PrePrepare/full", in: pbft.PrePrepareMsg{Seq: 9, View: 1, Reqs: reqs(4, 48)}},
		{name: "pbft.Prepare/zero", in: pbft.PrepareMsg{}},
		{name: "pbft.Prepare/full", in: pbft.PrepareMsg{Seq: 9, View: 1, Hash: digest(1), Replica: 3}},
		{name: "pbft.Commit/zero", in: pbft.CommitMsg{}},
		{name: "pbft.Commit/full", in: pbft.CommitMsg{Seq: 9, View: 1, Hash: digest(2), Replica: 3}},
		{name: "pbft.Checkpoint/zero", in: pbft.CheckpointMsg{}},
		{name: "pbft.Checkpoint/full", in: pbft.CheckpointMsg{Seq: 64, Digest: fill(32, 1), Replica: 2}},
		{name: "pbft.FetchCommit/zero", in: pbft.FetchCommitMsg{}},
		{name: "pbft.FetchCommit/full", in: pbft.FetchCommitMsg{Replica: 2, Seq: 70}},
		{name: "pbft.CommitInfo/zero", in: pbft.CommitInfoMsg{}},
		{name: "pbft.CommitInfo/full", in: pbft.CommitInfoMsg{Seq: 70, Replica: 2, Reqs: reqs(2, 16)}},
		{name: "pbft.ViewChange/zero", in: pbft.ViewChangeMsg{}},
		{name: "pbft.ViewChange/full", in: pbftViewChange(3, 4)},
		{name: "pbft.NewView/zero", in: pbft.NewViewMsg{}},
		{name: "pbft.NewView/full", in: pbft.NewViewMsg{View: 2, ViewChanges: []pbft.ViewChangeMsg{pbftViewChange(1, 2), pbftViewChange(2, 0)},
			PrePrepares: []pbft.PrePrepareMsg{{Seq: 65, View: 2, Reqs: reqs(2, 8)}, {Seq: 66, View: 2}}}},
		{name: "pbft.NewView/empty", in: pbft.NewViewMsg{View: 2, ViewChanges: []pbft.ViewChangeMsg{}, PrePrepares: []pbft.PrePrepareMsg{}}, want: pbft.NewViewMsg{View: 2}},
	}
}

// executeAck has the shape hmac4_write's clients accept: a 16-byte value, a
// digest, π, and a proof of the execute-ack proof's usual length.
var executeAck = core.ExecuteAckMsg{Seq: 1 << 20, L: 2, Val: fill(16, 1), Client: 1003, Timestamp: 1 << 40, View: 1,
	Digest: fill(32, 2), Pi: sig(3), Proof: fill(180, 4)}

// body encodes m as a frame body (the frame without its length).
func body(t testing.TB, sender int, m core.Message) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, sender, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-4 {
		t.Fatalf("frame length field %d, body %d", got, len(frame)-4)
	}
	return frame[4:]
}

func TestRoundTrip(t *testing.T) {
	for i, s := range samples() {
		t.Run(s.name, func(t *testing.T) {
			sender := i - 3 // a few negative, most small
			frame, err := AppendFrame([]byte("kept"), sender, s.in)
			if err != nil {
				t.Fatal(err)
			}
			if string(frame[:4]) != "kept" {
				t.Fatal("AppendFrame overwrote the buffer it was asked to extend")
			}
			b, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame[4:])))
			if err != nil {
				t.Fatal(err)
			}
			from, got, err := Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			want := s.want
			if want == nil {
				want = s.in
			}
			if from != sender || !reflect.DeepEqual(got, want) {
				t.Fatalf("from %d, want %d\n got %.300s\nwant %.300s", from, sender, fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want))
			}
			if again := body(t, sender, got); !bytes.Equal(again, b) {
				t.Fatal("re-encoding the decoded message gives other bytes")
			}
			// Every strict prefix is refused, and nothing panics on the way.
			step := 1 + len(b)/512
			for n := 0; n < len(b); n += step {
				if _, _, err := Decode(b[:n]); err == nil {
					t.Fatalf("%d-byte prefix of a %d-byte body accepted", n, len(b))
				}
			}
			if _, _, err := Decode(append(b[:len(b):len(b)], 0)); err == nil {
				t.Fatal("trailing byte accepted")
			}
		})
	}
}

// TestEveryMessageHasATag fails when a message type (a struct type named
// *Msg in core/messages.go or pbft/pbft.go) is missing from the table
// above or cannot be encoded: adding a message without giving it a tag
// and a sample is caught here, not on a live socket.
func TestEveryMessageHasATag(t *testing.T) {
	sampled := make(map[string]bool)
	for _, s := range samples() {
		sampled[reflect.TypeOf(s.in).String()] = true
	}
	found := 0
	for pkg, file := range map[string]string{"core": "../core/messages.go", "pbft": "../pbft/pbft.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !strings.HasSuffix(ts.Name.Name, "Msg") {
				return true
			}
			if _, ok := ts.Type.(*ast.StructType); !ok {
				return true
			}
			found++
			if name := pkg + "." + ts.Name.Name; !sampled[name] {
				t.Errorf("%s is a message but has no row in samples() — give it a tag in wire.go and a sample here", name)
			}
			return false
		})
	}
	if found != 33 || len(sampled) != found {
		t.Errorf("%d message types in the sources, %d sampled; the package doc says 25 + 8", found, len(sampled))
	}
	type untagged struct{ core.RequestMsg }
	if _, err := AppendFrame(nil, 1, untagged{}); err == nil {
		t.Error("a type without a tag was encoded")
	}
}

// TestCertificateFramesAreConstantSize is ingredient 1's invariant on the
// wire: a collector's certificate carries one combined threshold signature
// whatever the quorum, so under threshold BLS its frame is as long at
// n = 9 as at n = 4.
func TestCertificateFramesAreConstantSize(t *testing.T) {
	d := digest(5)
	frames := func(f, c int) []int {
		suite, keys, err := core.DealSuite(core.DefaultConfig(f, c), threshbls.Dealer{})
		if err != nil {
			t.Fatal(err)
		}
		combine := func(s threshsig.Scheme, signer func(core.ReplicaKeys) threshsig.Signer) threshsig.Signature {
			var shares []threshsig.Share
			for _, k := range keys[:s.Threshold()] {
				sh, err := signer(k).Sign(d[:])
				if err != nil {
					t.Fatal(err)
				}
				shares = append(shares, sh)
			}
			sig, err := s.Combine(d[:], shares)
			if err != nil {
				t.Fatal(err)
			}
			return sig
		}
		sigma := combine(suite.Sigma, func(k core.ReplicaKeys) threshsig.Signer { return k.Sigma })
		pi := combine(suite.Pi, func(k core.ReplicaKeys) threshsig.Signer { return k.Pi })
		var lens []int
		for _, m := range []core.Message{
			core.FullCommitProofMsg{Seq: 9, View: 2, Sigma: sigma},
			core.FullExecuteProofMsg{Seq: 9, Digest: d[:], Pi: pi},
			core.CheckpointCertMsg{Seq: 9, Digest: d[:], Pi: pi},
		} {
			lens = append(lens, len(body(t, 1, m)))
		}
		return lens
	}
	if n4, n9 := frames(1, 0), frames(2, 1); !reflect.DeepEqual(n4, n9) {
		t.Errorf("FullCommitProof, FullExecuteProof, CheckpointCert bodies: %v bytes at n = 4, %v at n = 9", n4, n9)
	}
}

// trim drops b's last n bytes, with no room left to append over them.
func trim(b []byte, n int) []byte { return b[: len(b)-n : len(b)-n] }

func TestDecodeRejects(t *testing.T) {
	ok := body(t, 2, core.FetchStateMsg{Replica: 2, Seq: 300})
	if _, _, err := Decode(ok); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"empty":         nil,
		"unknown tag":   {200, 1},
		"tag zero":      {0, 1},
		"padded sender": {tagFetchState, 0x82, 0x00, 2, 1},
		"padded seq":    {tagFetchState, 2, 2, 0x80, 0x00},
		"11-byte varint": append([]byte{tagFetchState, 2, 2},
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"flag 2": append(body(t, 1, core.RequestMsg{})[:4], 2),
		// A count or length far beyond the bytes behind it: refused before
		// any allocation (TestDecodeAllocations bounds that).
		"request count":  {tagPrePrepare, 1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"bytes length":   {tagRead, 1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 1},
		"proof steps":    append(trim(body(t, 1, core.ReadReplyMsg{}), 1), 0xff, 0xff, 0xff, 0x7f),
		"meta leaves":    trim(body(t, 1, core.SnapshotMetaMsg{Seq: 1, Leaves: leaves(2)}), 32), // one digest behind a count of two
		"slot count":     {tagViewChange, 1, 1, 1, 1, 0, 0, 0xff, 0xff, 0x7f},
		"viewchange cnt": {tagNewView, 1, 1, 0xff, 0xff, 0x7f},
	} {
		if _, m, err := Decode(b); err == nil {
			t.Errorf("%s: accepted as %+v", name, m)
		}
	}
}

// TestDecodeAllocations pins what a message costs to decode: its box and
// its own slices, nothing for byte fields (they alias the frame) and
// nothing at all for a refused frame that claims a gigabyte.
func TestDecodeAllocations(t *testing.T) {
	for _, c := range []struct {
		name string
		b    []byte
		max  float64
	}{
		{"SignShare", body(t, 1, core.SignShareMsg{Seq: 9, SigmaSig: share(1), TauSig: share(1)}), 1},
		{"ExecuteAck", body(t, 1, executeAck), 1},
		{"PrePrepare4", body(t, 1, core.PrePrepareMsg{Seq: 9, Reqs: reqs(4, 48)}), 2},
	} {
		if got := testing.AllocsPerRun(100, func() { Decode(c.b) }); got > c.max {
			t.Errorf("%s: %.0f allocations per Decode, want ≤ %.0f", c.name, got, c.max)
		}
	}
	// Half a gigabyte of claimed requests in nine bytes: the error is all
	// that is allocated.
	bomb := []byte{tagPrePrepare, 1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if _, _, err := Decode(bomb); err == nil {
			t.Fatal("bomb accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / 100; got > 1024 {
		t.Errorf("a refused frame allocated %d bytes", got)
	}
}

// TestDecodedFieldsAliasTheFrame checks both halves of the aliasing
// contract: byte fields point into the frame, and appending to one cannot
// reach the field behind it.
func TestDecodedFieldsAliasTheFrame(t *testing.T) {
	b := body(t, 1, executeAck)
	_, m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	ack := m.(core.ExecuteAckMsg)
	if &ack.Val[0] != &b[bytes.Index(b, ack.Val)] {
		t.Fatal("Val was copied out of the frame")
	}
	if cap(ack.Val) != len(ack.Val) {
		t.Fatalf("Val has capacity %d beyond its %d bytes", cap(ack.Val), len(ack.Val))
	}
	_ = append(ack.Val, 0xEE)
	if _, again, _ := Decode(b); !reflect.DeepEqual(again, m) {
		t.Fatal("appending to a decoded field changed the frame")
	}
}

func TestFrameCap(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr[:]))); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized length accepted or misreported: %v", err)
	}
	if _, err := AppendFrame(nil, 1, core.SnapshotChunkMsg{Data: make([]byte, MaxFrame)}); err == nil {
		t.Fatal("AppendFrame built a frame its receiver refuses")
	}
	// A length the stream does not honour is an error, not a short body.
	binary.BigEndian.PutUint32(hdr[:], 10)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(append(hdr[:], 1, 2, 3)))); err == nil {
		t.Fatal("short body accepted")
	}
}

func TestHello(t *testing.T) {
	frame := AppendHello(nil, 1003, "127.0.0.1:7001")
	b, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	from, addr, err := DecodeHello(b)
	if err != nil || from != 1003 || addr != "127.0.0.1:7001" {
		t.Fatalf("hello round trip: %d %q %v", from, addr, err)
	}
	other := append([]byte(nil), b...)
	other[0] = Version + 1
	if _, _, err := DecodeHello(other); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("another version's hello: %v", err)
	}
	for _, bad := range [][]byte{nil, b[:3], append(append([]byte(nil), b...), 0)} {
		if _, _, err := DecodeHello(bad); err == nil {
			t.Fatalf("malformed hello % x accepted", bad)
		}
	}
}

// FuzzDecode: no input panics the decoder, and every input it accepts is
// the one encoding of the message it decodes to.
func FuzzDecode(f *testing.F) {
	for i, s := range samples() {
		if b := body(f, i, s.in); len(b) < 1<<16 {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		from, m, err := Decode(b)
		if err != nil {
			return
		}
		if again := body(t, from, m); !bytes.Equal(again, b) {
			t.Fatalf("accepted % x\nre-encodes as % x", b, again)
		}
	})
}

var benchMessages = []struct {
	name string
	m    core.Message
}{
	{"PrePrepare4", core.PrePrepareMsg{Seq: 1 << 20, View: 1, Reqs: reqs(4, 48)}},
	{"SignShare", core.SignShareMsg{Seq: 1 << 20, View: 1, Replica: 3, SigmaSig: share(3), TauSig: share(3)}},
	{"ExecuteAck", executeAck},
}

func BenchmarkWireEncode(b *testing.B) {
	for _, c := range benchMessages {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for b.Loop() {
				buf, _ = AppendFrame(buf[:0], 1, c.m)
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

// BenchmarkWireDecode reads each frame off a stream into a buffer of its
// own, as transport's read loop does, and decodes it.
func BenchmarkWireDecode(b *testing.B) {
	for _, c := range benchMessages {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			frame, _ := AppendFrame(nil, 1, c.m)
			src := bytes.NewReader(frame)
			stream := bufio.NewReader(src)
			b.SetBytes(int64(len(frame)))
			for b.Loop() {
				src.Reset(frame)
				body, err := ReadFrame(stream)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := Decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
