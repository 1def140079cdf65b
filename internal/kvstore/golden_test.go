package kvstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// The state digest is a pure function of the executed history. These
// constants pin the digest after every block of goldenScript and the
// checkpoint chunks bit for bit. Re-captured when the digest became a hash
// chain, d_s = H(tag ‖ s ‖ d_{s−1} ‖ execution-tree root), over a genesis
// digest of StateRoot: every digest moved, and the chunks only through the
// digest their prelude carries (the bucket chunks are byte-identical).
const (
	goldenDigests = "" +
		"b547e810791c1cea8dc08b8acd90cb10fb2f6fac85432bf169347c0450ff8e1c" + // 200 puts
		"f13966ad0d20a28ab8bb36a456f0a6528d908e1133163c96d696d522464247e8" + // overwrites
		"5db1942d857523c5743166cfa3bc8ebaf17741ab9917ce6cb1e0baf6272e734d" + // deletes
		"e87e11768c47aa7b97d1061d1e9397916366f87080a7c77bdcb078a5a91a83e5" + // 64-put bundle
		"9c976fcbb49fc809774cddfe94000d35bf0d1143e94a04095423a21dbb588358" // after the capture
	goldenChunksHash = "0a20dbd40e2ce71fde7510eaa06d6994e378bd00d049e37935b5534da8ac2e89"
)

// goldenScript drives puts, overwrites, deletes (leaves and interior nodes
// that rotate down), a 64-put bundle, one checkpoint capture and one more
// block; it returns the digest after every block and the capture's hash.
func goldenScript(s *Store) (digests string, chunksHash string) {
	key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
	val := func(seq, i int) []byte { return []byte(fmt.Sprintf("v%d-%d", seq, i)) }
	var block [][]byte
	exec := func(seq int) {
		s.ExecuteBlock(uint64(seq), block)
		digests += hex.EncodeToString(s.Digest())
		block = nil
	}
	for i := 0; i < 200; i++ {
		block = append(block, Put(key(i), val(1, i)))
	}
	exec(1)
	for i := 0; i < 200; i += 3 {
		block = append(block, Put(key(i), val(2, i)))
	}
	exec(2)
	for i := 0; i < 200; i += 7 {
		block = append(block, Delete(key(i)))
	}
	block = append(block, Delete("absent"))
	exec(3)
	var subs [][]byte
	for i := 0; i < 64; i++ {
		subs = append(subs, Put(key(150+i), val(4, i)))
	}
	block = append(block, Bundle(subs...), Get(key(151)))
	exec(4)
	chunks, _, _ := s.SnapshotChunks()
	h := sha256.New()
	for _, c := range chunks {
		h.Write(c)
	}
	chunksHash = hex.EncodeToString(h.Sum(nil))
	block = append(block, Put(key(7), val(5, 7)), Delete(key(8)), Put(key(8), val(5, 8)))
	exec(5)
	return digests, chunksHash
}

func TestGoldenDigestsBitIdentical(t *testing.T) {
	s := New()
	digests, chunksHash := goldenScript(s)
	if digests != goldenDigests {
		t.Errorf("state digests moved:\n got %s\nwant %s", digests, goldenDigests)
	}
	if chunksHash != goldenChunksHash {
		t.Errorf("checkpoint chunks moved: got %s want %s", chunksHash, goldenChunksHash)
	}
}
