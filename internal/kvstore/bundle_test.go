package kvstore

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestBundleExecutesSubOps(t *testing.T) {
	s := New()
	b := Bundle(
		Put("a", []byte("1")),
		Put("b", []byte("2")),
		Get("b"), // counted, like every well-formed sub-operation
		Delete("a"),
	)
	res := s.ExecuteBlock(1, [][]byte{b})
	if string(res[0]) != "OK:4" {
		t.Fatalf("bundle result = %q, want OK:4", res[0])
	}
	if _, ok := s.Value("a"); ok {
		t.Fatal("deleted key a still present")
	}
	if v, ok := s.Value("b"); !ok || string(v) != "2" {
		t.Fatalf("Value(b) = %q, %v", v, ok)
	}
}

func TestBundleOpsRoundTrip(t *testing.T) {
	ops := [][]byte{Put("x", []byte("1")), Get("y"), Delete("z")}
	enc := Bundle(ops...)
	op, err := DecodeOp(enc)
	if err != nil {
		t.Fatalf("DecodeOp: %v", err)
	}
	if op.Kind != OpBundle {
		t.Fatalf("kind = %d, want OpBundle", op.Kind)
	}
	got, err := BundleOps(op.Value)
	if err != nil {
		t.Fatalf("BundleOps: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d sub-ops, want 3", len(got))
	}
	for i := range ops {
		if !bytes.Equal(got[i], ops[i]) {
			t.Fatalf("sub-op %d mismatch", i)
		}
	}
}

func TestBundleOpsRejectsMalformed(t *testing.T) {
	tests := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"short count", []byte{0, 0}},
		{"truncated op header", []byte{0, 0, 0, 1, 0, 0}},
		{"truncated op body", []byte{0, 0, 0, 1, 0, 0, 0, 9, 1}},
		{"trailing bytes", append(Bundle(Put("a", nil))[9:], 0xFF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := BundleOps(tt.payload); err == nil {
				t.Fatal("accepted malformed bundle payload")
			}
		})
	}
}

func TestBundleSkipsNestedAndMalformed(t *testing.T) {
	s := New()
	inner := Bundle(Put("nested", []byte("x")))
	b := Bundle(
		Put("ok", []byte("1")),
		inner,              // nested bundle: skipped
		[]byte{0xDE, 0xAD}, // malformed: skipped
		Put("ok2", []byte("2")),
	)
	res := s.ExecuteBlock(1, [][]byte{b})
	if string(res[0]) != "OK:2" {
		t.Fatalf("result = %q, want OK:2 (nested+malformed skipped)", res[0])
	}
	if _, ok := s.Value("nested"); ok {
		t.Fatal("nested bundle executed")
	}
}

func TestBundleDeterministicAcrossReplicas(t *testing.T) {
	mk := func() []byte {
		var ops [][]byte
		for i := 0; i < 64; i++ {
			ops = append(ops, Put(fmt.Sprintf("k%02d", i), []byte{byte(i)}))
		}
		return Bundle(ops...)
	}
	a, b := New(), New()
	ra := a.ExecuteBlock(1, [][]byte{mk()})
	rb := b.ExecuteBlock(1, [][]byte{mk()})
	if !bytes.Equal(ra[0], rb[0]) || !bytes.Equal(a.Digest(), b.Digest()) {
		t.Fatal("bundle execution diverged")
	}
}

func TestBundleSize(t *testing.T) {
	if got := BundleSize(Put("k", nil)); got != 1 {
		t.Fatalf("BundleSize(single) = %d, want 1", got)
	}
	b := Bundle(Put("a", nil), Put("b", nil), Put("c", nil))
	if got := BundleSize(b); got != 3 {
		t.Fatalf("BundleSize(3) = %d", got)
	}
	if got := BundleSize([]byte{0xFF}); got != 1 {
		t.Fatalf("BundleSize(garbage) = %d, want 1", got)
	}
}

func TestBundleProofVerifies(t *testing.T) {
	s := New()
	b := Bundle(Put("p", []byte("q")))
	res := s.ExecuteBlock(1, [][]byte{b})
	p, err := s.ProveOperation(1, 0)
	if err != nil {
		t.Fatalf("ProveOperation: %v", err)
	}
	if err := Verify(s.Digest(), b, res[0], 1, 0, p); err != nil {
		t.Fatalf("Verify bundle proof: %v", err)
	}
	if !strings.HasPrefix(string(res[0]), "OK:") {
		t.Fatalf("result %q", res[0])
	}
}
