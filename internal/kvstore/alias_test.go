package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// A written value is kept once, in the snapshot tracker's bucket chunk,
// which it copies into and edits in place. So nothing else may hold that
// storage: an operation's key and value alias the encoded operation, which
// the execution record keeps, Get's callers keep what it returns, and a
// captured or restored chunk (the blob itself, after a restore) is copied
// before its bucket's next write.

func scribble(b []byte) {
	for i := range b {
		b[i] ^= 0xFF
	}
}

// fresh is the reference store: a new one fed the expected contents.
func fresh(ref map[string][]byte, buckets int) *Store {
	s := NewWithBuckets(buckets)
	for k, v := range ref {
		s.Set(k, v)
	}
	return s
}

// TestWrittenValuesAliasNothingTheCallerOwns interleaves random puts,
// overwrites of changing length, deletes, bundles and direct Sets with a
// capture after every step. Once a step has executed, its operation bytes
// and the value handed to Set are overwritten; neither the state root nor
// the captured chunks may move, and the chunks must equal a fresh store's
// over the same contents.
func TestWrittenValuesAliasNothingTheCallerOwns(t *testing.T) {
	const buckets = 4 // few buckets: most writes re-encode a bucket holding an earlier write
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewWithBuckets(buckets)
		ref := map[string][]byte{}
		key := func() string { return fmt.Sprintf("k%02d", rng.Intn(32)) }
		value := func() []byte {
			v := make([]byte, rng.Intn(20))
			rng.Read(v)
			return v
		}
		put := func(k string) []byte {
			v := value()
			ref[k] = bytes.Clone(v)
			return Put(k, v)
		}
		del := func(k string) []byte {
			delete(ref, k)
			return Delete(k)
		}
		for step := 0; step < 300; step++ {
			var ops [][]byte
			switch rng.Intn(5) {
			case 0, 1:
				ops = [][]byte{put(key())}
			case 2:
				ops = [][]byte{del(key())}
			case 3:
				subs := make([][]byte, 1+rng.Intn(8))
				for i := range subs {
					switch k := key(); rng.Intn(3) {
					case 0:
						subs[i] = put(k)
					case 1:
						subs[i] = del(k)
					default:
						subs[i] = Get(k)
					}
				}
				ops = [][]byte{Bundle(subs...)}
			default:
				// evm.Ledger's path: AuthState.Set with a slice the caller
				// reuses before the block is sealed.
				k, v := key(), value()
				ref[k] = bytes.Clone(v)
				s.Set(k, v)
				scribble(v)
			}
			s.ExecuteBlock(s.LastExecuted()+1, ops)
			for _, op := range ops {
				scribble(op)
			}

			where := fmt.Sprintf("seed %d step %d", seed, step)
			want := fresh(ref, buckets)
			if !bytes.Equal(s.StateRoot(), want.StateRoot()) {
				t.Fatalf("%s: state root moved with caller-owned bytes", where)
			}
			got, _, _ := s.SnapshotChunks()
			wantChunks, _ := want.tracker.EncodeChunks(s.LastExecuted(), s.Digest())
			for i, c := range wantChunks {
				if !bytes.Equal(got[i], c) {
					t.Fatalf("%s: chunk %d differs from a fresh store's", where, i)
				}
			}
		}
	}
}

// TestOverwriteOfRestoredKeyKeepsRetainedChunks restores a store from a
// capture and overwrites every restored key with a value of the same
// length, which the tracker copies over the old value in the chunk. The
// checkpoint layer keeps the capture's chunks, and the restored store's
// first capture aliases the blob: none of those bytes may move.
func TestOverwriteOfRestoredKeyKeepsRetainedChunks(t *testing.T) {
	src := NewWithBuckets(8)
	populate(t, src, 25)
	chunks, _, _ := src.SnapshotChunks()
	blob := concatChunks(chunks)
	saved := bytes.Clone(blob)

	dst := New()
	if err := dst.Restore(blob); err != nil {
		t.Fatal(err)
	}
	retained, _, _ := dst.SnapshotChunks()
	kept := make([][]byte, len(retained))
	for i, c := range retained {
		kept[i] = bytes.Clone(c)
	}
	for _, k := range dst.Keys() {
		v, _ := dst.Get(k)
		scribble(v)
		dst.Set(k, v)
	}
	dst.ExecuteBlock(dst.LastExecuted()+1, [][]byte{Put("key-001", []byte("val-X"))})
	dst.SnapshotChunks()

	if !bytes.Equal(blob, saved) {
		t.Fatal("overwriting restored keys wrote into the restored blob")
	}
	for i, c := range retained {
		if !bytes.Equal(c, kept[i]) {
			t.Fatalf("retained chunk %d moved with an overwrite", i)
		}
	}
	for _, k := range src.Keys() {
		want, _ := src.Get(k)
		scribble(want)
		if got, _ := dst.Get(k); k != "key-001" && !bytes.Equal(got, want) {
			t.Fatalf("restored key %q holds %x, want %x", k, got, want)
		}
	}
}

// TestWrittenValueDoesNotAliasRetainedOp overwrites a key with a value of
// the same length, in place, after the block that first wrote it: the
// first block's retained operation must still prove against its digest.
func TestWrittenValueDoesNotAliasRetainedOp(t *testing.T) {
	s := New()
	first := Put("k", []byte("first"))
	s.ExecuteBlock(1, [][]byte{first})
	d1 := s.Digest()
	s.ExecuteBlock(2, [][]byte{Put("k", []byte("other"))})
	s.Set("k", []byte("third"))

	p, err := s.ProveOperation(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Op, Put("k", []byte("first"))) {
		t.Fatalf("retained op became %q", p.Op)
	}
	if err := Verify(d1, p.Op, p.Val, 1, 0, p); err != nil {
		t.Fatalf("proof of the retained op: %v", err)
	}
}

// TestGetReturnsACopy: a caller that changes what Get returned changes
// nothing in the store, and a later overwrite of the key changes nothing
// the caller holds (evm's undo journal keeps Get's values).
func TestGetReturnsACopy(t *testing.T) {
	s := New()
	s.ExecuteBlock(1, [][]byte{Put("k", []byte("value"))})
	root := s.StateRoot()
	v, _ := s.Get("k")
	scribble(v)
	if got, _ := s.Get("k"); !bytes.Equal(got, []byte("value")) {
		t.Fatalf("Get's result aliases the store: key now holds %q", got)
	}
	if !bytes.Equal(s.StateRoot(), root) {
		t.Fatal("state root moved with Get's result")
	}
	held, _ := s.Get("k")
	s.ExecuteBlock(2, [][]byte{Put("k", []byte("VALUE"))})
	if !bytes.Equal(held, []byte("value")) {
		t.Fatalf("an overwrite changed a value Get returned: %q", held)
	}
}

// TestOverwriteBundleBlockAllocs pins the allocations of the hmac4_bundle
// block shape, two 64-put bundles overwriting live keys: a put allocates
// nothing (its key is looked up by the operation's bytes, its value copied
// into the bucket chunk, and a bundle builds no per-put result), so what
// is left is the block's results, its two sub-operation lists and the
// seal.
func TestOverwriteBundleBlockAllocs(t *testing.T) {
	const keys, puts = 1024, 64
	s := New()
	fill := make([][]byte, keys)
	for i := range fill {
		fill[i] = Put(fmt.Sprintf("k%04d", i), []byte("value0"))
	}
	s.ExecuteBlock(1, fill)
	block := make([][]byte, 2)
	for j := range block {
		subs := make([][]byte, puts)
		for i := range subs {
			subs[i] = Put(fmt.Sprintf("k%04d", (j*puts+i)*7%keys), []byte("value1"))
		}
		block[j] = Bundle(subs...)
	}
	seq := uint64(1)
	got := testing.AllocsPerRun(50, func() {
		seq++
		s.ExecuteBlock(seq, block)
		s.GarbageCollect(seq) // keeps the execution records at one block
	})
	if want := 18.0; got > want {
		t.Fatalf("%v allocations per 2 × %d-put bundle block, want ≤ %v", got, puts, want)
	}
}
