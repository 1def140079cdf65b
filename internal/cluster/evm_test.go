package cluster

import (
	"math/big"
	"testing"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/evm"
)

// evmGenesis deploys the token contract and funds the deployer on every
// replica identically (the paper's ledger starts from a common state).
func evmGenesis(t *testing.T) (func(app *apps.EVMApp), evm.Address) {
	t.Helper()
	deployer := evm.AddressFromBytes([]byte{0xD0})
	token := evm.ContractAddress(deployer, 0)
	genesis := func(app *apps.EVMApp) {
		app.Ledger.Mint(deployer, 1_000_000_000)
		addr, err := app.Ledger.GenesisCreate(deployer, evm.TokenDeploy(), 10_000_000)
		if err != nil {
			t.Fatalf("genesis deploy: %v", err)
		}
		if addr != token {
			t.Fatalf("genesis address %v, want %v", addr, token)
		}
		// Seed balances for the first 64 senders.
		for i := 0; i < 64; i++ {
			app.Ledger.Mint(senderAddr(i), 1_000_000)
		}
	}
	return genesis, token
}

func senderAddr(i int) evm.Address {
	return evm.AddressFromBytes([]byte{0xA0, byte(i >> 8), byte(i)})
}

func transferTx(token evm.Address, from, to int, amount uint64) []byte {
	return evm.Tx{
		Kind: evm.TxCall, From: senderAddr(from), To: token,
		GasLimit: 1_000_000,
		Data:     evm.TokenCalldata(evm.TokenMint, senderAddr(to), amount),
	}.Encode()
}

func TestEVMLedgerOverSBFT(t *testing.T) {
	genesis, token := evmGenesis(t)
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		App: AppEVM, Clients: 4, Seed: 40,
		GenesisEVM: genesis,
	})
	gen := func(client, i int) []byte {
		return transferTx(token, client, (client+1)%4, 1)
	}
	res := cl.RunClosedLoop(10, gen, 2*time.Minute)
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40 EVM txs", res.Completed)
	}
	if res.FastAcks == 0 {
		t.Error("no single-message acks for EVM transactions")
	}
	digestsAgree(t, cl)

	// All replicas applied 40 mints of 1 to rotating receivers: check a
	// balance in contract storage on every replica.
	var total uint64
	for i := 0; i < 4; i++ {
		app := cl.Apps[1].(*apps.EVMApp)
		var key evm.Word
		a := senderAddr(i)
		copy(key[32-evm.AddressSize:], a[:])
		total += app.Ledger.Storage(token, key).Big().Uint64()
	}
	if total != 40 {
		t.Fatalf("sum of minted balances = %d, want 40", total)
	}
}

func TestEVMLedgerOverPBFT(t *testing.T) {
	genesis, token := evmGenesis(t)
	cl := newKV(t, Options{
		Protocol: ProtoPBFT, F: 1,
		App: AppEVM, Clients: 2, Seed: 41,
		GenesisEVM: genesis,
	})
	gen := func(client, i int) []byte {
		return transferTx(token, client, (client+1)%2, 2)
	}
	res := cl.RunClosedLoop(10, gen, 2*time.Minute)
	if res.Completed != 20 {
		t.Fatalf("completed %d of 20 EVM txs over PBFT", res.Completed)
	}
	digestsAgree(t, cl)
}

// TestEVMCertifiedBalanceRead is the EVM ledger's consensus-free read, end
// to end: a native transfer goes through ordering, a checkpoint certifies
// the state that holds it, and evm.BalanceQuery is then answered by one
// replica from that snapshot — the post-transfer balance with its Merkle
// proof, and for an account nothing ever touched an authenticated absence.
func TestEVMCertifiedBalanceRead(t *testing.T) {
	genesis, _ := evmGenesis(t)
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		App: AppEVM, Clients: 1, Seed: 43,
		GenesisEVM: genesis,
		Tune: func(c *core.Config) {
			c.CheckpointInterval = 4
			c.Batch = 1
		},
	})
	defer cl.Close()
	c := cl.Clients[0]
	receiver := evm.AddressFromBytes([]byte{0xB0, 0x01})
	untouched := evm.AddressFromBytes([]byte{0xB0, 0x02})

	// The transfer, then enough blocks to carry a checkpoint past it.
	ordered := 0
	c.SetOnResult(func(core.Result) { ordered++ })
	for i := 0; i < 4; i++ {
		tx := evm.Tx{Kind: evm.TxCall, From: senderAddr(0), To: receiver, Value: 250, GasLimit: 100_000}
		if i > 0 {
			tx = evm.Tx{Kind: evm.TxCall, From: senderAddr(i), To: senderAddr(i + 1), Value: 1, GasLimit: 100_000}
		}
		if err := c.Submit(tx.Encode()); err != nil {
			t.Fatal(err)
		}
		runUntil(cl, 30*time.Second, func() bool { return ordered == i+1 })
		if ordered != i+1 {
			t.Fatalf("transaction %d did not complete", i)
		}
	}
	runUntil(cl, 30*time.Second, func() bool {
		for id := 1; id <= cl.N; id++ {
			if cl.Replicas[id].LastStable() < c.SeqFloor() {
				return false
			}
		}
		return true
	})

	read := func(addr evm.Address) core.ReadResult {
		t.Helper()
		var res *core.ReadResult
		c.SetOnReadResult(func(r core.ReadResult) { res = &r })
		if err := c.SubmitRead(evm.BalanceQuery(addr)); err != nil {
			t.Fatal(err)
		}
		runUntil(cl, 30*time.Second, func() bool { return res != nil })
		if res == nil {
			t.Fatal("read never completed")
		}
		if res.Ordered || res.Seq < c.SeqFloor() {
			t.Fatalf("read of %x: ordered=%v at seq %d (floor %d, %d failovers), want the certified path",
				addr, res.Ordered, res.Seq, c.SeqFloor(), res.Failovers)
		}
		return *res
	}
	if res := read(receiver); !res.Found || new(big.Int).SetBytes(res.Val).Uint64() != 250 {
		t.Fatalf("receiver's certified balance: found=%v val=%x, want 250", res.Found, res.Val)
	}
	if res := read(untouched); res.Found {
		t.Fatalf("an untouched account's balance read as present: %x", res.Val)
	}
	if c.ReadsCompleted != 2 || cl.Metrics().ReadsServed < 2 {
		t.Fatalf("%d certified reads completed, %d served; want 2 and at least 2", c.ReadsCompleted, cl.Metrics().ReadsServed)
	}
}
