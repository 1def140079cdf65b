package evm

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// BenchmarkExecuteBlock executes blocks of 64 token transfers between
// random holders on a ledger with 8192 funded token balances: 128 storage
// writes per block through the VM, the journal and the authenticated map —
// the EVM counterpart of kvstore's BenchmarkExecuteBlock.
func BenchmarkExecuteBlock(b *testing.B) {
	const holders, txsPerBlock = 8192, 64
	holder := func(i int) Address {
		var raw [4]byte
		binary.BigEndian.PutUint32(raw[:], uint32(i)+1)
		return AddressFromBytes(raw[:])
	}
	l := NewLedger()
	deployer := addr(0xD0)
	l.Mint(deployer, 1_000_000)
	if _, err := l.GenesisCreate(deployer, TokenDeploy(), 10_000_000); err != nil {
		b.Fatal(err)
	}
	token := ContractAddress(deployer, 0)
	fill := make([][]byte, holders)
	for i := range fill {
		fill[i] = Tx{Kind: TxCall, From: deployer, To: token, GasLimit: 1_000_000,
			Data: TokenCalldata(TokenMint, holder(i), 1_000_000_000)}.Encode()
	}
	l.ExecuteBlock(1, fill)

	rng := rand.New(rand.NewSource(1))
	blocks := make([][][]byte, 64)
	for i := range blocks {
		blocks[i] = make([][]byte, txsPerBlock)
		for j := range blocks[i] {
			blocks[i][j] = Tx{Kind: TxCall, From: holder(rng.Intn(holders)), To: token, GasLimit: 1_000_000,
				Data: TokenCalldata(TokenTransfer, holder(rng.Intn(holders)), 1)}.Encode()
		}
	}
	if rcpt, err := DecodeReceipt(l.ExecuteBlock(2, blocks[0])[0]); err != nil || !rcpt.OK {
		b.Fatalf("transfer failed: %+v %v", rcpt, err)
	}
	seq := uint64(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		l.ExecuteBlock(seq, blocks[i%len(blocks)])
		if seq%128 == 0 {
			l.GarbageCollect(seq) // the checkpoint interval's GC
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*txsPerBlock), "ns/tx")
}
