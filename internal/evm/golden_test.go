package evm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// The ledger digest after every block of goldenLedgerScript and the hash
// of the checkpoint capture taken before its last block. Re-captured when
// the digest became a hash chain over a genesis digest of StateRoot: every
// digest moved, and the capture only through the digest its prelude
// carries.
const (
	goldenLedgerDigests = "" +
		"ca079a51b0d64a6ea3865ed147a1b037071149cd1df5e3bb90b7accb660de2b7" + // genesis
		"f58cbe7ea78ebb5bff52dae1aec3acc2f2c95c3a2375285e291360145b663be4" + // deploys
		"03393aa1d9c216e17933a3b7f3f2e5685ba93c033cb3060bfaa65c7ac009d3ce" + // mints, a failed call, churn
		"69aaf17ae1770c3fe4dd4419e63df83b3c740a42ab6d4053270bab6be4d450ba" + // transfers that zero a slot
		"8022f1478b670d89ea89c731acd8583e36775dbcde3c744de435be4a73cbb6f0" // after the capture
	goldenLedgerChunksHash = "ef708cf114fffd9f0ffc6185f048a075fc40da18cb5c02e74bb41e258a67c5c6"
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

// A journal revert undoes writes with Set(prev)/Delete, where prev is what
// Get returned before the write, and an overwrite copies into the old
// value's storage: the journal must hold copies. The state after the
// revert must be the state of a ledger that never saw the reverted writes.
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

	clean := NewLedger()
	kept(clean.state)
	blockStart(clean.state)

	l := NewLedger()
	s := l.state
	kept(s)
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

	if !bytes.Equal(l.StateRoot(), clean.StateRoot()) {
		t.Fatal("state root after a mid-block revert differs from never having written")
	}
}
