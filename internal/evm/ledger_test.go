package evm

import (
	"bytes"
	"errors"
	"testing"

	"sbft/internal/kvstore"
)

func deployTokenTx(from Address) []byte {
	return Tx{Kind: TxCreate, From: from, GasLimit: 1_000_000, Data: TokenDeploy()}.Encode()
}

func TestTxCodecRoundTrip(t *testing.T) {
	tx := Tx{
		Kind:     TxCall,
		From:     addr(0x11),
		To:       addr(0x22),
		Value:    77,
		GasLimit: 50_000,
		Data:     []byte{1, 2, 3},
	}
	got, err := DecodeTx(tx.Encode())
	if err != nil {
		t.Fatalf("DecodeTx: %v", err)
	}
	if got.Kind != tx.Kind || got.From != tx.From || got.To != tx.To ||
		got.Value != tx.Value || got.GasLimit != tx.GasLimit || !bytes.Equal(got.Data, tx.Data) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDecodeTxRejectsMalformed(t *testing.T) {
	valid := deployTokenTx(addr(1))
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", valid[:10]},
		{"bad kind", append([]byte{9}, valid[1:]...)},
		{"truncated data", valid[:len(valid)-1]},
		{"extended data", append(append([]byte{}, valid...), 0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeTx(tt.data); !errors.Is(err, ErrBadTx) {
				t.Fatalf("err=%v, want ErrBadTx", err)
			}
		})
	}
}

func TestReceiptCodecRoundTrip(t *testing.T) {
	r := Receipt{OK: true, GasUsed: 1234, Ret: []byte{9, 9}, Created: addr(0xEE)}
	got, err := DecodeReceipt(r.Encode())
	if err != nil {
		t.Fatalf("DecodeReceipt: %v", err)
	}
	if !got.OK || got.GasUsed != 1234 || !bytes.Equal(got.Ret, r.Ret) || got.Created != r.Created {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := DecodeReceipt([]byte("junk")); err == nil {
		t.Fatal("DecodeReceipt accepted junk")
	}
}

func TestLedgerCreateThenCall(t *testing.T) {
	l := NewLedger()
	deployer, alice, bob := addr(0xD0), addr(0xA1), addr(0xB2)
	l.Mint(deployer, 1_000_000)

	res := l.ExecuteBlock(1, [][]byte{deployTokenTx(deployer)})
	rcpt, err := DecodeReceipt(res[0])
	if err != nil || !rcpt.OK {
		t.Fatalf("deploy receipt: %+v, %v", rcpt, err)
	}
	token := rcpt.Created

	mint := Tx{Kind: TxCall, From: alice, To: token, GasLimit: 1_000_000,
		Data: TokenCalldata(TokenMint, alice, 500)}.Encode()
	transfer := Tx{Kind: TxCall, From: alice, To: token, GasLimit: 1_000_000,
		Data: TokenCalldata(TokenTransfer, bob, 123)}.Encode()
	res = l.ExecuteBlock(2, [][]byte{mint, transfer})
	for i, r := range res {
		rcpt, err := DecodeReceipt(r)
		if err != nil || !rcpt.OK {
			t.Fatalf("tx %d receipt: %+v, %v", i, rcpt, err)
		}
	}
	var bobKey Word
	copy(bobKey[32-AddressSize:], bob[:])
	if got := l.Storage(token, bobKey); got != WordFromUint64(123) {
		t.Fatalf("bob token balance slot = %x, want 123", got)
	}
}

func TestLedgerDeterminism(t *testing.T) {
	build := func() *Ledger {
		l := NewLedger()
		l.Mint(addr(0xD0), 1_000_000)
		return l
	}
	a, b := build(), build()
	blocks := [][][]byte{
		{deployTokenTx(addr(0xD0))},
		{Tx{Kind: TxCall, From: addr(1), To: ContractAddress(addr(0xD0), 0), GasLimit: 1_000_000,
			Data: TokenCalldata(TokenMint, addr(1), 10)}.Encode()},
	}
	for i, blk := range blocks {
		ra := a.ExecuteBlock(uint64(i+1), blk)
		rb := b.ExecuteBlock(uint64(i+1), blk)
		for j := range ra {
			if !bytes.Equal(ra[j], rb[j]) {
				t.Fatalf("block %d tx %d receipts diverge", i+1, j)
			}
		}
		if !bytes.Equal(a.Digest(), b.Digest()) {
			t.Fatalf("digests diverge after block %d", i+1)
		}
	}
}

func TestLedgerFailedTxRollsBackButAdvances(t *testing.T) {
	l := NewLedger()
	// Transfer from an account with no balance: VM error, receipt records
	// the deterministic error class, block still executes.
	badTx := Tx{Kind: TxCall, From: addr(0x01), To: addr(0x02), Value: 999,
		GasLimit: 100_000}.Encode()
	res := l.ExecuteBlock(1, [][]byte{badTx})
	rcpt, err := DecodeReceipt(res[0])
	if err != nil {
		t.Fatalf("DecodeReceipt: %v", err)
	}
	if rcpt.OK || rcpt.Err != "insufficient-balance" {
		t.Fatalf("receipt = %+v, want insufficient-balance", rcpt)
	}
	if l.LastExecuted() != 1 {
		t.Fatalf("LastExecuted = %d, want 1", l.LastExecuted())
	}
}

func TestLedgerMalformedTx(t *testing.T) {
	l := NewLedger()
	res := l.ExecuteBlock(1, [][]byte{{0xFF, 0xFF}})
	rcpt, err := DecodeReceipt(res[0])
	if err != nil {
		t.Fatalf("DecodeReceipt: %v", err)
	}
	if rcpt.OK || rcpt.Err != "malformed" {
		t.Fatalf("receipt = %+v, want malformed", rcpt)
	}
}

func TestLedgerProofs(t *testing.T) {
	l := NewLedger()
	l.Mint(addr(0xD0), 1_000_000)
	ops := [][]byte{deployTokenTx(addr(0xD0))}
	res := l.ExecuteBlock(1, ops)
	d := l.Digest()

	p, err := l.ProveOperation(1, 0)
	if err != nil {
		t.Fatalf("ProveOperation: %v", err)
	}
	if err := Verify(d, ops[0], res[0], 1, 0, p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := Verify(d, ops[0], []byte("forged"), 1, 0, p); !errors.Is(err, kvstore.ErrBadProof) {
		t.Fatalf("forged result accepted: err=%v", err)
	}
	if _, err := l.ProveOperation(5, 0); !errors.Is(err, kvstore.ErrUnknownBlock) {
		t.Fatalf("err=%v, want ErrUnknownBlock", err)
	}
	if _, err := l.ProveOperation(1, 3); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestLedgerSnapshotRestore(t *testing.T) {
	l := NewLedger()
	l.Mint(addr(0xD0), 1_000_000)
	l.ExecuteBlock(1, [][]byte{deployTokenTx(addr(0xD0))})
	chunks, ok, err := l.SnapshotChunks()
	if err != nil || !ok {
		t.Fatalf("SnapshotChunks: ok=%v err=%v", ok, err)
	}

	r := NewLedger()
	if err := r.Restore(bytes.Join(chunks, nil)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !bytes.Equal(r.Digest(), l.Digest()) {
		t.Fatal("restored digest differs")
	}
	// Continue identically.
	token := ContractAddress(addr(0xD0), 0)
	next := [][]byte{Tx{Kind: TxCall, From: addr(1), To: token, GasLimit: 1_000_000,
		Data: TokenCalldata(TokenMint, addr(1), 7)}.Encode()}
	l.ExecuteBlock(2, next)
	r.ExecuteBlock(2, next)
	if !bytes.Equal(r.Digest(), l.Digest()) {
		t.Fatal("digests diverged after restore")
	}
	if err := r.Restore([]byte("garbage")); err == nil {
		t.Fatal("Restore accepted garbage")
	}
}

func TestLedgerGarbageCollect(t *testing.T) {
	l := NewLedger()
	for seq := uint64(1); seq <= 5; seq++ {
		l.ExecuteBlock(seq, [][]byte{{0xFF}})
	}
	l.GarbageCollect(4)
	if _, ok := l.Results(2); ok {
		t.Fatal("GC'd block results still present")
	}
	if _, ok := l.Results(4); !ok {
		t.Fatal("retained block results missing")
	}
}

// TestLedgerSnapshotCanonical pins the determinism contract the
// replication layer's chunked checkpoint commitment relies on: two ledgers
// executing the same blocks must serialize identical snapshot bytes.
func TestLedgerSnapshotCanonical(t *testing.T) {
	build := func() *Ledger {
		l := NewLedger()
		deployer := addr(0xD0)
		l.Mint(deployer, 1_000_000_000)
		token, err := l.GenesisCreate(deployer, TokenDeploy(), 10_000_000)
		if err != nil {
			t.Fatalf("genesis deploy: %v", err)
		}
		for seq := uint64(1); seq <= 4; seq++ {
			var ops [][]byte
			for i := 0; i < 16; i++ {
				ops = append(ops, Tx{
					Kind: TxCall, From: deployer, To: token, GasLimit: 1_000_000,
					Data: TokenCalldata(TokenMint, addr(byte(seq*16+uint64(i))), uint64(i)+1),
				}.Encode())
			}
			l.ExecuteBlock(seq, ops)
		}
		return l
	}
	capture := func(l *Ledger) []byte {
		chunks, ok, err := l.SnapshotChunks()
		if err != nil || !ok {
			t.Fatalf("SnapshotChunks: ok=%v err=%v", ok, err)
		}
		return bytes.Join(chunks, nil)
	}
	a, b := build(), build()
	sa, sb := capture(a), capture(b)
	if !bytes.Equal(sa, sb) {
		t.Fatal("ledgers with identical state serialized different snapshot bytes")
	}
	if again := capture(a); !bytes.Equal(sa, again) {
		t.Fatal("repeated snapshot of the same ledger differs")
	}
}
