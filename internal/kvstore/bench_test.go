package kvstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchKeys is the state size of the wall-clock benchmark's workloads
// (8 client slots of 1024 keys, 6-byte values).
const benchKeys = 8192

// BenchmarkExecuteBlock executes blocks of random overwrites against a
// filled store: 64 single puts (the rig's kvstore.execute_block64_us
// shape) and two 64-put bundles (the hmac4_bundle block shape).
func BenchmarkExecuteBlock(b *testing.B) {
	shapes := []struct {
		name         string
		ops, perOp   int
		putsPerBlock int
	}{
		{"puts=64", 64, 1, 64},
		{"bundles=2x64", 2, 64, 128},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			keys := make([]string, benchKeys)
			fill := make([][]byte, benchKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("c%d/%04d", i/1024, i%1024)
				fill[i] = Put(keys[i], []byte("value0"))
			}
			put := func() []byte {
				v := make([]byte, 6)
				rng.Read(v)
				return Put(keys[rng.Intn(benchKeys)], v)
			}
			// A cycle of pre-encoded blocks: encoding is the client's cost.
			blocks := make([][][]byte, 64)
			for i := range blocks {
				blocks[i] = make([][]byte, sh.ops)
				for j := range blocks[i] {
					if sh.perOp == 1 {
						blocks[i][j] = put()
						continue
					}
					subs := make([][]byte, sh.perOp)
					for k := range subs {
						subs[k] = put()
					}
					blocks[i][j] = Bundle(subs...)
				}
			}
			s := New()
			s.ExecuteBlock(1, fill)
			seq := uint64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq++
				s.ExecuteBlock(seq, blocks[i%len(blocks)])
				if seq%128 == 0 {
					s.GarbageCollect(seq) // the checkpoint interval's GC
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.putsPerBlock), "ns/put")
		})
	}
}
