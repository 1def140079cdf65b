package evm

import (
	"bytes"
	"testing"

	"sbft/internal/snapcodec"
)

func concatChunks(chunks [][]byte) []byte {
	var buf bytes.Buffer
	for _, c := range chunks {
		buf.Write(c)
	}
	return buf.Bytes()
}

// captureMaps decodes the ledger's capture and reads the authenticated
// map it must describe, and returns both for comparison.
func captureMaps(t *testing.T, l *Ledger) (bucketed, state map[string][]byte) {
	t.Helper()
	chunks, ok, err := l.SnapshotChunks()
	if err != nil || !ok {
		t.Fatalf("SnapshotChunks: ok=%v err=%v", ok, err)
	}
	bst, _, err := snapcodec.DecodeBucketed(concatChunks(chunks))
	if err != nil {
		t.Fatalf("DecodeBucketed: %v", err)
	}
	if bst.LastSeq != l.LastExecuted() || !bytes.Equal(bst.Digest, l.Digest()) {
		t.Fatalf("capture metadata diverged: capture (%d,%x) ledger (%d,%x)",
			bst.LastSeq, bst.Digest, l.LastExecuted(), l.Digest())
	}
	state = make(map[string][]byte)
	for _, k := range l.Keys() {
		state[k], _ = l.Get(k)
	}
	return bst.ToMap(), state
}

func requireSameState(t *testing.T, bucketed, state map[string][]byte, when string) {
	t.Helper()
	if len(bucketed) != len(state) {
		t.Fatalf("%s: tracker mirror has %d entries, state map %d", when, len(bucketed), len(state))
	}
	for k, v := range state {
		if !bytes.Equal(bucketed[k], v) {
			t.Fatalf("%s: key %q diverged between tracker and state map", when, k)
		}
	}
}

// TestLedgerTrackerFollowsExecutionAndRollback drives genesis, successful
// execution, and failed transactions (whose journal rollback mutates the
// state map outside the normal write path) and checks after every block
// that the capture describes exactly the authenticated map — i.e. the
// write hook saw every mutation, reverts included.
func TestLedgerTrackerFollowsExecutionAndRollback(t *testing.T) {
	l := NewLedger()
	deployer := addr(0xD0)
	l.Mint(deployer, 1_000_000)
	b, f := captureMaps(t, l)
	requireSameState(t, b, f, "after genesis")

	token := ContractAddress(deployer, 0)
	blocks := [][][]byte{
		{deployTokenTx(deployer)},
		{Tx{Kind: TxCall, From: deployer, To: token, GasLimit: 1_000_000,
			Data: TokenCalldata(TokenMint, addr(0xA1), 500)}.Encode()},
		// Value transfer writes both balances before the callee runs;
		// garbage calldata then fails the call, so RevertTo must undo
		// those balance writes — through the write hook.
		{Tx{Kind: TxCall, From: deployer, To: token, Value: 5, GasLimit: 1_000_000,
			Data: []byte{0xDE, 0xAD}}.Encode()},
		// Plain transfer from an empty account: fails upfront.
		{Tx{Kind: TxCall, From: addr(0x01), To: addr(0x02), Value: 999,
			GasLimit: 100_000}.Encode()},
		{Tx{Kind: TxCall, From: deployer, To: token, GasLimit: 1_000_000,
			Data: TokenCalldata(TokenTransfer, addr(0xB2), 0)}.Encode()},
	}
	sawFailure := false
	for i, blk := range blocks {
		res := l.ExecuteBlock(uint64(i+1), blk)
		for _, enc := range res {
			rcpt, err := DecodeReceipt(enc)
			if err != nil {
				t.Fatalf("block %d: DecodeReceipt: %v", i+1, err)
			}
			if !rcpt.OK {
				sawFailure = true
			}
		}
		b, f := captureMaps(t, l)
		requireSameState(t, b, f, "after block")
	}
	if !sawFailure {
		t.Fatalf("scenario exercised no failed transaction; rollback path untested")
	}
}

func TestLedgerRestoreFromBucketedCapture(t *testing.T) {
	src := NewLedger()
	deployer := addr(0xD0)
	src.Mint(deployer, 1_000_000)
	src.ExecuteBlock(1, [][]byte{deployTokenTx(deployer)})
	src.ExecuteBlock(2, [][]byte{Tx{Kind: TxCall, From: deployer,
		To: ContractAddress(deployer, 0), GasLimit: 1_000_000,
		Data: TokenCalldata(TokenMint, addr(0xA1), 42)}.Encode()})

	chunks, _, _ := src.SnapshotChunks()
	blob := concatChunks(chunks)

	dst := NewLedger()
	if err := dst.Restore(blob); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if dst.LastExecuted() != src.LastExecuted() || !bytes.Equal(dst.Digest(), src.Digest()) {
		t.Fatalf("restored ledger diverged from source")
	}
	reChunks, _, _ := dst.SnapshotChunks()
	if !bytes.Equal(concatChunks(reChunks), blob) {
		t.Fatalf("post-restore capture differs from the restored snapshot")
	}

	// Execution continues on the restored ledger and the tracker keeps
	// following it (the write hook is re-installed by Restore).
	tx := Tx{Kind: TxCall, From: deployer, To: ContractAddress(deployer, 0),
		GasLimit: 1_000_000, Data: TokenCalldata(TokenMint, addr(0xA2), 7)}.Encode()
	src.ExecuteBlock(3, [][]byte{tx})
	dst.ExecuteBlock(3, [][]byte{tx})
	if !bytes.Equal(dst.Digest(), src.Digest()) {
		t.Fatalf("post-restore execution diverged")
	}
	b, f := captureMaps(t, dst)
	requireSameState(t, b, f, "after post-restore execution")
}
