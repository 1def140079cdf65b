package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestOpCodecRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		op   Op
	}{
		{"put", Op{Kind: OpPut, Key: "alpha", Value: []byte("beta")}},
		{"get", Op{Kind: OpGet, Key: "alpha"}},
		{"delete", Op{Kind: OpDelete, Key: "alpha"}},
		{"empty key", Op{Kind: OpPut, Key: "", Value: []byte("x")}},
		{"empty value", Op{Kind: OpPut, Key: "k", Value: nil}},
		{"binary key", Op{Kind: OpPut, Key: "a\x00b", Value: []byte{0, 1, 2}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := DecodeOp(tt.op.Encode())
			if err != nil {
				t.Fatalf("DecodeOp: %v", err)
			}
			if got.Kind != tt.op.Kind || got.Key != tt.op.Key || !bytes.Equal(got.Value, tt.op.Value) {
				t.Fatalf("round trip mismatch: got %+v, want %+v", got, tt.op)
			}
		})
	}
}

func TestDecodeOpRejectsMalformed(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte{1, 2, 3}},
		{"bad kind", append([]byte{99}, Put("k", nil)[1:]...)},
		{"truncated key", Put("key", []byte("value"))[:7]},
		{"truncated value", Put("key", []byte("value"))[:14]},
		{"trailing garbage", append(Put("k", []byte("v")), 0xFF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeOp(tt.data); !errors.Is(err, ErrBadOp) {
				t.Fatalf("err=%v, want ErrBadOp", err)
			}
		})
	}
}

func TestExecuteBlockSemantics(t *testing.T) {
	s := New()
	results := s.ExecuteBlock(1, [][]byte{
		Put("a", []byte("1")),
		Get("a"),
		Get("missing"),
		Delete("a"),
		Get("a"),
	})
	if string(results[0]) != "OK" {
		t.Errorf("put result = %q, want OK", results[0])
	}
	if string(results[1]) != "1" {
		t.Errorf("get result = %q, want 1", results[1])
	}
	if results[2] != nil {
		t.Errorf("get missing = %q, want nil", results[2])
	}
	if string(results[3]) != "OK" {
		t.Errorf("delete result = %q, want OK", results[3])
	}
	if results[4] != nil {
		t.Errorf("get after delete = %q, want nil", results[4])
	}
	if s.LastExecuted() != 1 {
		t.Errorf("LastExecuted = %d, want 1", s.LastExecuted())
	}
}

func TestExecuteBlockMalformedOpIsDeterministicError(t *testing.T) {
	a, b := New(), New()
	ops := [][]byte{Put("k", []byte("v")), {0xde, 0xad}, Get("k")}
	ra := a.ExecuteBlock(1, ops)
	rb := b.ExecuteBlock(1, ops)
	if string(ra[1]) != "ERR:malformed" {
		t.Fatalf("malformed op result = %q", ra[1])
	}
	for i := range ra {
		if !bytes.Equal(ra[i], rb[i]) {
			t.Fatalf("replicas diverged at op %d", i)
		}
	}
	if !bytes.Equal(a.Digest(), b.Digest()) {
		t.Fatal("digests diverged on malformed input")
	}
}

// TestOpSurface executes one block of every edge of the operation codec
// on two stores: kinds above OpBundle are malformed, a bundle skips nested
// bundles and malformed sub-operations, and a key starting with \x00 is an
// ordinary key.
func TestOpSurface(t *testing.T) {
	withKind := func(kind byte) []byte {
		op := Put("k", []byte("v"))
		op[0] = kind
		return op
	}
	tests := []struct {
		name string
		op   []byte
		want string // "<nil>" for a nil result
	}{
		{"kind 5", withKind(5), "ERR:malformed"},
		{"kind 6", withKind(6), "ERR:malformed"},
		{"kind 7", withKind(7), "ERR:malformed"},
		{"bundle skips nested and malformed",
			Bundle(Put("a", []byte("1")), Bundle(Put("b", []byte("2"))), withKind(6), Put("c", []byte("3"))), "OK:2"},
		{"nested bundle not applied", Get("b"), "<nil>"},
		{"bundle applied", Get("c"), "3"},
		{"nul-prefixed key: put", Put("\x00tx/l/k", []byte("v")), "OK"},
		{"nul-prefixed key: get", Get("\x00tx/l/k"), "v"},
		{"nul-prefixed key: delete", Delete("\x00tx/l/k"), "OK"},
		{"nul-prefixed key: get after delete", Get("\x00tx/l/k"), "<nil>"},
	}
	ops := make([][]byte, len(tests))
	for i, tt := range tests {
		ops[i] = tt.op
	}
	a, b := New(), New()
	ra, rb := a.ExecuteBlock(1, ops), b.ExecuteBlock(1, ops)
	for i, tt := range tests {
		got := string(ra[i])
		if ra[i] == nil {
			got = "<nil>"
		}
		if got != tt.want || !bytes.Equal(ra[i], rb[i]) {
			t.Errorf("%s: got %q (other store %q), want %q", tt.name, ra[i], rb[i], tt.want)
		}
	}
	if !bytes.Equal(a.Digest(), b.Digest()) {
		t.Fatal("digests diverged")
	}
}

func TestDigestDeterminism(t *testing.T) {
	a, b := New(), New()
	if !bytes.Equal(a.Digest(), b.Digest()) {
		t.Fatal("fresh stores have different digests")
	}
	for seq := uint64(1); seq <= 5; seq++ {
		ops := [][]byte{Put(fmt.Sprintf("k%d", seq), []byte{byte(seq)})}
		a.ExecuteBlock(seq, ops)
		b.ExecuteBlock(seq, ops)
		if !bytes.Equal(a.Digest(), b.Digest()) {
			t.Fatalf("digests diverged at seq %d", seq)
		}
	}
	c := New()
	c.ExecuteBlock(1, [][]byte{Put("different", []byte("x"))})
	if bytes.Equal(a.Digest(), c.Digest()) {
		t.Fatal("different histories share a digest")
	}
}

func TestDigestChangesEachBlock(t *testing.T) {
	s := New()
	seen := map[string]bool{string(s.Digest()): true}
	for seq := uint64(1); seq <= 10; seq++ {
		s.ExecuteBlock(seq, [][]byte{Put("same-key", []byte("same-value"))})
		d := string(s.Digest())
		if seen[d] {
			t.Fatalf("digest repeated at seq %d; digest must commit to seq", seq)
		}
		seen[d] = true
	}
}

func TestProveAndVerifyOperation(t *testing.T) {
	s := New()
	ops := [][]byte{
		Put("x", []byte("10")),
		Put("y", []byte("20")),
		Get("x"),
	}
	results := s.ExecuteBlock(7, ops)
	d := s.Digest()

	for l := range ops {
		p, err := s.ProveOperation(7, l)
		if err != nil {
			t.Fatalf("ProveOperation(7, %d): %v", l, err)
		}
		if err := Verify(d, ops[l], results[l], 7, l, p); err != nil {
			t.Fatalf("Verify(l=%d): %v", l, err)
		}
	}
}

func TestVerifyRejectsForgeries(t *testing.T) {
	s := New()
	ops := [][]byte{Put("x", []byte("10")), Put("y", []byte("20"))}
	results := s.ExecuteBlock(3, ops)
	d := s.Digest()
	p, err := s.ProveOperation(3, 0)
	if err != nil {
		t.Fatalf("ProveOperation: %v", err)
	}

	cases := []struct {
		name string
		f    func() error
	}{
		{"wrong value", func() error { return Verify(d, ops[0], []byte("FORGED"), 3, 0, p) }},
		{"wrong op", func() error { return Verify(d, Put("z", []byte("99")), results[0], 3, 0, p) }},
		{"wrong seq", func() error { return Verify(d, ops[0], results[0], 4, 0, p) }},
		{"wrong position", func() error { return Verify(d, ops[0], results[0], 3, 1, p) }},
		{"wrong digest", func() error {
			bad := append([]byte(nil), d...)
			bad[0] ^= 0xff
			return Verify(bad, ops[0], results[0], 3, 0, p)
		}},
		{"proof for other op", func() error {
			p1, err := s.ProveOperation(3, 1)
			if err != nil {
				return err
			}
			return Verify(d, ops[0], results[0], 3, 0, p1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.f(); !errors.Is(err, ErrBadProof) {
				t.Fatalf("err=%v, want ErrBadProof", err)
			}
		})
	}
}

func TestVerifyStaleDigestRejected(t *testing.T) {
	s := New()
	ops := [][]byte{Put("k", []byte("v1"))}
	res := s.ExecuteBlock(1, ops)
	p, _ := s.ProveOperation(1, 0)
	dOld := s.Digest()

	s.ExecuteBlock(2, [][]byte{Put("k", []byte("v2"))})
	dNew := s.Digest()

	// The old proof verifies against the digest of its own block but not
	// against a later state digest.
	if err := Verify(dOld, ops[0], res[0], 1, 0, p); err != nil {
		t.Fatalf("proof rejected under its own digest: %v", err)
	}
	if err := Verify(dNew, ops[0], res[0], 1, 0, p); !errors.Is(err, ErrBadProof) {
		t.Fatalf("stale proof accepted under newer digest: err=%v", err)
	}
}

func TestProveOperationErrors(t *testing.T) {
	s := New()
	s.ExecuteBlock(1, [][]byte{Put("a", nil)})
	if _, err := s.ProveOperation(9, 0); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("unknown block: err=%v, want ErrUnknownBlock", err)
	}
	if _, err := s.ProveOperation(1, 5); err == nil {
		t.Fatal("out-of-range op index accepted")
	}
	if _, err := s.ProveOperation(1, -1); err == nil {
		t.Fatal("negative op index accepted")
	}
}

func TestGarbageCollect(t *testing.T) {
	s := New()
	for seq := uint64(1); seq <= 10; seq++ {
		s.ExecuteBlock(seq, [][]byte{Put("k", []byte{byte(seq)})})
	}
	s.GarbageCollect(8)
	if _, err := s.ProveOperation(5, 0); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("GC'd block still provable: err=%v", err)
	}
	if _, err := s.ProveOperation(9, 0); err != nil {
		t.Fatalf("retained block not provable: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := New()
	for seq := uint64(1); seq <= 4; seq++ {
		s.ExecuteBlock(seq, [][]byte{Put(fmt.Sprintf("k%d", seq), []byte("v"))})
	}
	chunks, ok, err := s.SnapshotChunks()
	if err != nil || !ok {
		t.Fatalf("SnapshotChunks: ok=%v err=%v", ok, err)
	}

	r := New()
	if err := r.Restore(bytes.Join(chunks, nil)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !bytes.Equal(r.Digest(), s.Digest()) {
		t.Fatal("restored digest differs")
	}
	if r.LastExecuted() != 4 {
		t.Fatalf("restored LastExecuted = %d, want 4", r.LastExecuted())
	}
	if v, ok := r.Value("k3"); !ok || string(v) != "v" {
		t.Fatalf("restored Value(k3) = %q, %v", v, ok)
	}

	// Restored replica continues identically to the original.
	next := [][]byte{Put("k5", []byte("v"))}
	s.ExecuteBlock(5, next)
	r.ExecuteBlock(5, next)
	if !bytes.Equal(r.Digest(), s.Digest()) {
		t.Fatal("digests diverged after restore")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	s := New()
	if err := s.Restore([]byte("not a snapshot")); err == nil {
		t.Fatal("Restore accepted garbage")
	}
}

func TestQuickExecutionProofSoundness(t *testing.T) {
	// Property: for random blocks, every op's proof verifies and a proof
	// never verifies for a different result value.
	f := func(keys []string, pick uint8) bool {
		if len(keys) == 0 {
			return true
		}
		s := New()
		ops := make([][]byte, 0, len(keys))
		for i, k := range keys {
			ops = append(ops, Put(k, []byte{byte(i)}))
		}
		res := s.ExecuteBlock(1, ops)
		d := s.Digest()
		l := int(pick) % len(ops)
		p, err := s.ProveOperation(1, l)
		if err != nil {
			return false
		}
		if Verify(d, ops[l], res[l], 1, l, p) != nil {
			return false
		}
		return Verify(d, ops[l], []byte("bogus-result-value"), 1, l, p) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCanonical pins the determinism contract the replication
// layer's chunked checkpoint commitment relies on: two stores reaching the
// same state along different operation orders must serialize to identical
// snapshot bytes.
func TestSnapshotCanonical(t *testing.T) {
	capture := func(s *Store) []byte {
		t.Helper()
		chunks, ok, err := s.SnapshotChunks()
		if err != nil || !ok {
			t.Fatalf("SnapshotChunks: ok=%v err=%v", ok, err)
		}
		return bytes.Join(chunks, nil)
	}
	// Two replicas executing the same blocks, with enough keys that map
	// iteration order would almost surely differ between processes.
	a, b := New(), New()
	for seq := uint64(1); seq <= 8; seq++ {
		var ops [][]byte
		for i := 0; i < 32; i++ {
			ops = append(ops, Put(fmt.Sprintf("k%d-%d", seq, i), []byte{byte(seq), byte(i)}))
		}
		a.ExecuteBlock(seq, ops)
		b.ExecuteBlock(seq, ops)
	}
	sa, sb := capture(a), capture(b)
	if !bytes.Equal(sa, sb) {
		t.Fatal("replicas with identical state serialized different snapshot bytes")
	}
	// Repeated snapshots of the same store must also be stable.
	for i := 0; i < 3; i++ {
		if again := capture(a); !bytes.Equal(sa, again) {
			t.Fatalf("snapshot %d of the same store differs", i)
		}
	}
}
