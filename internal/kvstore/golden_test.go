package kvstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"sbft/internal/merkle"
)

// The state digest is a pure function of the executed history: how the
// authenticated map schedules its hashing must never show in it. These
// constants were captured on the commit before merkle.Map went
// mark-then-settle (PR 16) and pin the digest, the checkpoint chunks and
// one key proof bit for bit.
const (
	goldenDigests = "" +
		"ef1f9bb6f70ab62d8b52aa5a773fb974ce1a7d50fed34ec45e3b5e1b06f2f361" + // 200 puts
		"b25a566173c59df9bf75d3abc9f42e3870cef159e757311fa4484708fc38e5b8" + // overwrites
		"51555f42025fad9c6fbbe3a43274456f17ee9754730f3c81f8c5cf6e9d588776" + // deletes
		"d91d520481985306927faa7635d59682dd1bbcd668df9e9cf87a17158eb76cbb" + // 64-put bundle
		"dcf630ce29329183768ccfdf74823dab4292b87e0df8b1c5ea88e4648e90d4d3" // after the capture
	goldenChunksHash = "e18bb9cb42f582fe83616c8e360bd58c13dcc0215d444cd2440c690ad361789f"
	goldenProofHash  = "3157d6370a1f038ddba6991796d64ace4d14ae971f07a3fea04aed9e90c4f950"
	goldenProofSteps = 16
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

// proofBytes is a canonical serialisation of a key proof.
func proofBytes(kp merkle.KeyProof) []byte {
	out := append([]byte(kp.Key), 0)
	out = append(out, kp.Value...)
	out = append(out, kp.LeftHash[:]...)
	out = append(out, kp.RightHash[:]...)
	for _, st := range kp.Steps {
		out = append(out, st.KV[:]...)
		out = append(out, st.Other[:]...)
		if st.ProvenIsLeft {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
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
	kp, root, err := s.ProveKey("key-0100")
	if err != nil {
		t.Fatal(err)
	}
	if err := merkle.VerifyKey(root, kp); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(proofBytes(kp))
	if got := hex.EncodeToString(sum[:]); got != goldenProofHash || len(kp.Steps) != goldenProofSteps {
		t.Errorf("key proof moved: got %s (%d steps) want %s (%d steps)", got, len(kp.Steps), goldenProofHash, goldenProofSteps)
	}
}
