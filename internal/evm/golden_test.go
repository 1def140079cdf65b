package evm

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sbft/internal/merkle"
)

// Captured on the commit before merkle.Map went mark-then-settle (PR 16):
// the ledger digest after every block of goldenLedgerScript and the hash of
// the checkpoint capture taken before its last block.
const (
	goldenLedgerDigests = "" +
		"470e9b660390f5874570403fe275e472fbf3b6723cf02e62b781219840a4750b" + // genesis
		"d8cb1caba6af740571529d0f6817b6b2c4433f63f58801abd665c30f09c01d7e" + // deploys
		"48e4bba2feacce0edd098df8c8226790df88a6f018782ec9dc3cfcab015033ed" + // mints, a failed call, churn
		"d15e04b23462b1f45e2c4c42a69713d1e5b3bd3e1e6ddeb28213fa45afcb7eba" + // transfers that zero a slot
		"8ac772796626a1ca3ee2f26325dcdfc3a3a79ac7e14bba5567596b38e748fd5c" // after the capture
	goldenLedgerChunksHash = "abe8234e3cec2694c18fa74de3faea57a4b893d18209266b9e64abd5d242e4e2"
)

func goldenLedgerScript(l *Ledger) (digests, chunksHash string) {
	deployer := addr(0xD0)
	l.Mint(deployer, 1_000_000)
	digests = hex.EncodeToString(l.Digest())
	seq := uint64(0)
	exec := func(txs ...Tx) {
		seq++
		block := make([][]byte, len(txs))
		for i, tx := range txs {
			tx.GasLimit = 1_000_000
			block[i] = tx.Encode()
		}
		l.ExecuteBlock(seq, block)
		digests += hex.EncodeToString(l.Digest())
	}
	token, churn := ContractAddress(deployer, 0), ContractAddress(deployer, 1)
	exec(Tx{Kind: TxCreate, From: deployer, Data: TokenDeploy()},
		Tx{Kind: TxCreate, From: deployer, Data: ChurnDeploy()})
	exec(Tx{Kind: TxCall, From: deployer, To: token, Data: TokenCalldata(TokenMint, addr(0xA1), 500)},
		Tx{Kind: TxCall, From: deployer, To: token, Data: TokenCalldata(TokenMint, addr(0xA2), 70)},
		// The value transfer lands before the garbage calldata fails the
		// call, so the journal undoes two balance writes mid-block.
		Tx{Kind: TxCall, From: deployer, To: token, Value: 5, Data: []byte{0xDE, 0xAD}},
		Tx{Kind: TxCall, From: deployer, To: churn, Data: ChurnCalldata(40)},
		Tx{Kind: TxCall, From: deployer, To: addr(0xB0), Value: 1234})
	exec(Tx{Kind: TxCall, From: addr(0xA2), To: token, Data: TokenCalldata(TokenTransfer, addr(0xA1), 70)},
		Tx{Kind: TxCall, From: addr(0xB0), To: deployer, Value: 1234},
		Tx{Kind: TxBalance, To: deployer})
	chunks, _, _ := l.SnapshotChunks()
	chunksHash = hashChunks(chunks)
	exec(Tx{Kind: TxCall, From: addr(0xA1), To: token, Data: TokenCalldata(TokenTransfer, addr(0xA3), 1)},
		Tx{Kind: TxCall, From: deployer, To: churn, Data: ChurnCalldata(8)})
	return digests, chunksHash
}

func hashChunks(chunks [][]byte) string {
	h := sha256.New()
	for _, c := range chunks {
		h.Write(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenLedgerDigestsBitIdentical(t *testing.T) {
	digests, chunksHash := goldenLedgerScript(NewLedger())
	if digests != goldenLedgerDigests {
		t.Errorf("ledger digests moved:\n got %s\nwant %s", digests, goldenLedgerDigests)
	}
	if chunksHash != goldenLedgerChunksHash {
		t.Errorf("checkpoint chunks moved: got %s want %s", chunksHash, goldenLedgerChunksHash)
	}
}

// A journal revert undoes writes with Set(prev)/Delete on a map whose
// earlier writes of the same block are not hashed yet. The root after the
// revert must be the root of a map that never saw the reverted writes.
func TestRevertMidBlockYieldsSameRootAsNeverWritten(t *testing.T) {
	contract := addr(0xC1)
	kept := func(s *MapState) {
		for i := uint64(0); i < 50; i++ {
			s.SetStorage(contract, WordFromUint64(i), WordFromUint64(i+1))
		}
		s.SetNonce(contract, 3)
	}
	blockStart := func(s *MapState) {
		s.SetStorage(contract, WordFromUint64(7), WordFromUint64(700))
		s.SetStorage(contract, WordFromUint64(100), WordFromUint64(1))
	}

	clean := merkle.NewMap()
	cs := NewMapState(bareMap{clean})
	kept(cs)
	clean.Digest()
	blockStart(cs)

	m := merkle.NewMap()
	s := NewMapState(bareMap{m})
	kept(s)
	m.Digest()
	blockStart(s)
	mark := s.Snapshot()
	for i := uint64(0); i < 50; i += 2 {
		s.SetStorage(contract, WordFromUint64(i), WordFromUint64(9000+i)) // overwrite
	}
	for i := uint64(1); i < 50; i += 4 {
		s.SetStorage(contract, WordFromUint64(i), Word{}) // delete
	}
	for i := uint64(200); i < 230; i++ {
		s.SetStorage(contract, WordFromUint64(i), WordFromUint64(i)) // create
	}
	s.SetNonce(contract, 4)
	s.RevertTo(mark)

	if m.Digest() != clean.Digest() {
		t.Fatal("root after a mid-block revert differs from never having written")
	}
	kp, err := m.ProveKey(storageKey(contract, WordFromUint64(7)))
	if err != nil {
		t.Fatal(err)
	}
	if err := merkle.VerifyKey(clean.Digest(), kp); err != nil {
		t.Fatalf("proof from the reverted map against the clean root: %v", err)
	}
}
