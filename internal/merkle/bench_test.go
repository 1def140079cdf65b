package merkle

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchKeys is the state size of the wall-clock benchmark's workloads
// (8 client slots of 1024 keys, 6-byte values).
const benchKeys = 8192

// benchMap returns a settled map of benchKeys keys and the key list.
func benchMap() (*Map, []string) {
	m := NewMap()
	keys := make([]string, benchKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("c%d/%04d", i/1024, i%1024)
		m.Set(keys[i], []byte("value0"))
	}
	m.Digest()
	return m, keys
}

// BenchmarkMapSetDigest is one block's work on the authenticated map: k
// random overwrites, then the one Digest the block's state digest needs.
func BenchmarkMapSetDigest(b *testing.B) {
	for _, k := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			m, keys := benchMap()
			rng := rand.New(rand.NewSource(1))
			val := make([]byte, 6)
			var sink Digest
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					rng.Read(val)
					m.Set(keys[rng.Intn(benchKeys)], val)
				}
				sink = m.Digest()
			}
			_ = sink
		})
	}
}

func BenchmarkMapProveKey(b *testing.B) {
	m, keys := benchMap()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ProveKey(keys[rng.Intn(benchKeys)]); err != nil {
			b.Fatal(err)
		}
	}
}
