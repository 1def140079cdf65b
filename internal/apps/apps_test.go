package apps

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sbft/internal/core"
	"sbft/internal/evm"
	"sbft/internal/kvstore"
	"sbft/internal/merkle"
)

func TestKVAppImplementsApplication(t *testing.T) {
	var _ core.Application = NewKVApp()
	var _ core.Application = NewEVMApp()
}

func TestKVAppProofRoundTrip(t *testing.T) {
	app := NewKVApp()
	ops := [][]byte{kvstore.Put("alpha", []byte("1")), kvstore.Get("alpha")}
	results := app.ExecuteBlock(1, ops)
	digest := app.Digest()

	for l := range ops {
		proof, err := app.ProveOperation(1, l)
		if err != nil {
			t.Fatalf("ProveOperation(%d): %v", l, err)
		}
		if err := VerifyKV(digest, ops[l], results[l], 1, l, proof); err != nil {
			t.Fatalf("VerifyKV(%d): %v", l, err)
		}
		if err := VerifyKV(digest, ops[l], []byte("forged"), 1, l, proof); err == nil {
			t.Fatal("forged result verified")
		}
	}
	if err := VerifyKV(digest, ops[0], results[0], 1, 0, []byte("not a proof")); err == nil {
		t.Fatal("garbage proof verified")
	}
}

func TestKVAppSnapshotRestore(t *testing.T) {
	a := NewKVApp()
	a.ExecuteBlock(1, [][]byte{kvstore.Put("k", []byte("v"))})
	chunks, ok, err := a.SnapshotChunks()
	if err != nil || !ok {
		t.Fatalf("SnapshotChunks: ok=%v err=%v", ok, err)
	}
	b := NewKVApp()
	if err := b.Restore(bytes.Join(chunks, nil)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Digest(), b.Digest()) {
		t.Fatal("restored digest differs")
	}
	next := [][]byte{kvstore.Put("k2", []byte("v2"))}
	a.ExecuteBlock(2, next)
	b.ExecuteBlock(2, next)
	if !bytes.Equal(a.Digest(), b.Digest()) {
		t.Fatal("diverged after restore")
	}
}

func TestEVMAppProofRoundTrip(t *testing.T) {
	app := NewEVMApp()
	app.Ledger.Mint(evm.AddressFromBytes([]byte{0xD0}), 1_000_000)
	tx := evm.Tx{
		Kind: evm.TxCreate, From: evm.AddressFromBytes([]byte{0xD0}),
		GasLimit: 1_000_000, Data: evm.TokenDeploy(),
	}.Encode()
	results := app.ExecuteBlock(1, [][]byte{tx})
	digest := app.Digest()

	proof, err := app.ProveOperation(1, 0)
	if err != nil {
		t.Fatalf("ProveOperation: %v", err)
	}
	if err := VerifyEVM(digest, tx, results[0], 1, 0, proof); err != nil {
		t.Fatalf("VerifyEVM: %v", err)
	}
	if err := VerifyEVM(digest, tx, []byte("forged"), 1, 0, proof); err == nil {
		t.Fatal("forged receipt verified")
	}
	rcpt, err := evm.DecodeReceipt(results[0])
	if err != nil || !rcpt.OK {
		t.Fatalf("deploy receipt: %+v, %v", rcpt, err)
	}
}

func TestEVMAppGarbageCollect(t *testing.T) {
	app := NewEVMApp()
	for seq := uint64(1); seq <= 4; seq++ {
		app.ExecuteBlock(seq, [][]byte{{0x01}})
	}
	app.GarbageCollect(3)
	if _, err := app.ProveOperation(1, 0); err == nil {
		t.Fatal("GC'd block still provable")
	}
	if _, err := app.ProveOperation(3, 0); err != nil {
		t.Fatalf("retained block not provable: %v", err)
	}
}

// proofSamples is the round-trip table of the execute-ack proof: zero,
// filled, empty-for-nil and large.
func proofSamples() []kvstore.Proof {
	path := func(index, steps int) merkle.Proof {
		p := merkle.Proof{Index: index}
		for i := 0; i < steps; i++ {
			p.Steps = append(p.Steps, merkle.ProofStep{Hash: merkle.LeafHash([]byte{byte(i)}), Right: i%2 == 0})
		}
		return p
	}
	return []kvstore.Proof{
		{},
		{Seq: 1 << 40, L: 3, Op: kvstore.Put("key", []byte("value")), Val: []byte("ok"), Prev: merkle.LeafHash([]byte("root")), Path: path(3, 2)},
		{Seq: 7, L: 63, Op: bytes.Repeat([]byte{0xAB}, 1<<16), Val: bytes.Repeat([]byte{0xCD}, 1<<12), Path: path(63, 6)},
		{Seq: 1, L: -1, Prev: merkle.LeafHash(nil)},
	}
}

func TestProofCodecRoundTrip(t *testing.T) {
	for i, p := range proofSamples() {
		enc, err := encodeProof(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeProof(enc)
		if err != nil || !reflect.DeepEqual(got, p) {
			t.Fatalf("sample %d: %v\n got %+v\nwant %+v", i, err, got, p)
		}
		for n := 0; n < len(enc); n += 1 + len(enc)/256 {
			if _, err := decodeProof(enc[:n]); err == nil {
				t.Fatalf("sample %d: %d-byte prefix of %d accepted", i, n, len(enc))
			}
		}
		if _, err := decodeProof(append(enc, 0)); err == nil {
			t.Fatalf("sample %d: trailing byte accepted", i)
		}
	}
	// Empty byte fields and an empty path come back nil, as gob had it.
	enc, _ := encodeProof(kvstore.Proof{Op: []byte{}, Val: []byte{}, Path: merkle.Proof{Steps: []merkle.ProofStep{}}}, nil)
	if got, err := decodeProof(enc); err != nil || !reflect.DeepEqual(got, kvstore.Proof{}) {
		t.Fatalf("empty fields: %+v, %v", got, err)
	}
	// A step count the input cannot hold is refused before the allocation.
	if _, err := decodeProof(append(enc[:len(enc)-1], 0xff, 0xff, 0xff, 0x7f)); err == nil {
		t.Fatal("step-count bomb accepted")
	}
}

// FuzzDecodeProof: no input panics the proof decoder, and every accepted
// input is the one encoding of what it decodes to.
func FuzzDecodeProof(f *testing.F) {
	for _, p := range proofSamples() {
		enc, _ := encodeProof(p, nil)
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodeProof(b)
		if err != nil {
			return
		}
		if again, _ := encodeProof(p, nil); !bytes.Equal(again, b) {
			t.Fatalf("accepted % x\nre-encodes as % x", b, again)
		}
	})
}

// BenchmarkProofCodec is the client's cost of accepting one execute-ack
// beyond the π check (decode + Merkle verification) and the replica's cost
// of building the proof, on a 4-put block of the rig's key and value sizes.
func BenchmarkProofCodec(b *testing.B) {
	app := NewKVApp()
	ops := make([][]byte, 4)
	for i := range ops {
		ops[i] = kvstore.Put(fmt.Sprintf("key-%011d", i), bytes.Repeat([]byte{1}, 16))
	}
	results := app.ExecuteBlock(1, ops)
	digest := app.Digest()
	proof, err := app.ProveOperation(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("prove", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(proof)))
		for b.Loop() {
			if _, err := app.ProveOperation(1, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(proof)))
		for b.Loop() {
			if _, err := decodeProof(proof); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(proof)))
		for b.Loop() {
			if err := VerifyKV(digest, ops[2], results[2], 1, 2, proof); err != nil {
				b.Fatal(err)
			}
		}
	})
}
