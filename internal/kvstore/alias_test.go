package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sbft/internal/merkle"
	"sbft/internal/snapcodec"
)

// A written value is kept once: the authenticated map copies it, and the
// snapshot tracker mirrors the map's copy by reference. DecodeOp's Value
// aliases the encoded operation, so a map or tracker that kept the slice
// it was handed would change with bytes the caller still owns.

// freshChunks is the reference capture: a new Tracker fed the map's
// contents, encoded under the store's sequence number and digest.
func freshChunks(s *Store, buckets int) [][]byte {
	tr := snapcodec.NewTracker(buckets)
	for k, v := range s.m.Snapshot() {
		tr.Set(k, v)
	}
	chunks, _ := tr.EncodeChunks(s.LastExecuted(), s.Digest())
	return chunks
}

// TestWrittenValuesAliasNothingTheCallerOwns interleaves random puts,
// overwrites of changing length, deletes, bundles and direct Sets with a
// capture after every step. Once a step has executed, its operation bytes
// and the value handed to Set are overwritten; neither the map digest nor
// the captured chunks may move, and the chunks must equal a fresh
// tracker's over the same contents.
func TestWrittenValuesAliasNothingTheCallerOwns(t *testing.T) {
	const buckets = 4 // few buckets: most writes re-encode a bucket holding an earlier write
	scribble := func(b []byte) {
		for i := range b {
			b[i] ^= 0xFF
		}
	}
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
			want := merkle.NewMap()
			want.Restore(ref)
			if s.m.Digest() != want.Digest() {
				t.Fatalf("%s: map digest moved with caller-owned bytes", where)
			}
			got, _, _ := s.SnapshotChunks()
			for i, c := range freshChunks(s, buckets) {
				if !bytes.Equal(got[i], c) {
					t.Fatalf("%s: chunk %d differs from a fresh tracker's", where, i)
				}
			}
		}
	}
}

// TestOverwriteBundleBlockAllocs pins the allocations of the hmac4_bundle
// block shape, two 64-put bundles overwriting live keys: each put
// allocates only its key string (the value is copied into the map node's
// own storage, and a bundle builds no per-put result); the rest is the
// block's results, its two sub-operation lists and the seal.
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
	if want := float64(2*puts + 18); got > want {
		t.Fatalf("%v allocations per 2 × %d-put bundle block, want ≤ %v", got, puts, want)
	}
}
