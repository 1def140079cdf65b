// Benchmarks regenerating the paper's evaluation (§IX), one target per
// table/figure (DESIGN.md per-experiment index). Benchmarks report
// virtual-time protocol metrics as custom units (ops/s of simulated time,
// simulated latency) alongside the usual wall-clock ns/op of driving the
// simulation. cmd/sbft-bench prints the full sweeps; these targets make
// each experiment reproducible through `go test -bench`.
package sbft_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"testing"
	"time"

	"sbft/internal/bench"
	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/crypto/threshbls"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/evm"
	"sbft/internal/kvstore"
	"sbft/internal/merkle"
	"sbft/internal/sim"
	"sbft/internal/storage"
)

// smallGrid keeps per-iteration simulation cost benchmark-friendly.
func smallGrid() bench.GridConfig {
	g := bench.DefaultGrid()
	g.F = 4
	g.OpsPerClient = 5
	g.Out = discard{}
	return g
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// benchPoint runs one protocol point per iteration and reports simulated
// throughput/latency.
func benchPoint(b *testing.B, v bench.Variant, clients, failures, batch int) {
	g := smallGrid()
	var tput, lat float64
	for i := 0; i < b.N; i++ {
		p, err := bench.RunPoint(g, v, clients, failures, batch)
		if err != nil {
			b.Fatal(err)
		}
		tput += p.Throughput
		lat += p.MeanMs
	}
	b.ReportMetric(tput/float64(b.N), "simulated-op/s")
	b.ReportMetric(lat/float64(b.N), "simulated-ms-latency")
}

// BenchmarkFig2 covers Figure 2 (throughput vs clients): one bench per
// protocol at the saturated load point; `sbft-bench -exp fig2` sweeps the
// full grid.
func BenchmarkFig2(b *testing.B) {
	for _, v := range bench.Variants(4) {
		v := v
		b.Run(v.Name+"/clients=64/batch=64", func(b *testing.B) {
			benchPoint(b, v, 64, 0, 64)
		})
	}
}

// BenchmarkFig2Failures covers the failure panels of Figure 2.
func BenchmarkFig2Failures(b *testing.B) {
	vs := bench.Variants(4)
	for _, v := range []bench.Variant{vs[0], vs[3], vs[4]} {
		v := v
		b.Run(v.Name+"/failures=f", func(b *testing.B) {
			benchPoint(b, v, 64, 4, 64)
		})
	}
}

// BenchmarkFig3 is the latency view of the same sweep (no-batching row).
func BenchmarkFig3(b *testing.B) {
	for _, v := range bench.Variants(4) {
		v := v
		b.Run(v.Name+"/clients=64/nobatch", func(b *testing.B) {
			benchPoint(b, v, 64, 0, 1)
		})
	}
}

// BenchmarkContractContinent reproduces the §IX continent-WAN contract
// comparison (T1 in DESIGN.md).
func BenchmarkContractContinent(b *testing.B) {
	benchContract(b, false)
}

// BenchmarkContractWorld reproduces the world-WAN comparison (T2).
func BenchmarkContractWorld(b *testing.B) {
	benchContract(b, true)
}

func benchContract(b *testing.B, world bool) {
	cfg := bench.DefaultContract(world)
	cfg.F = 4
	cfg.Clients = 8
	cfg.TxPerClient = 5
	cfg.Out = discard{}
	var tput float64
	for i := 0; i < b.N; i++ {
		pts, err := bench.RunContract(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tput += pts[0].Throughput
	}
	b.ReportMetric(tput/float64(b.N), "simulated-sbft-tx/s")
}

// BenchmarkSingleNodeEVM reproduces the no-replication baseline (T3):
// real wall-clock EVM execution with disk persistence.
func BenchmarkSingleNodeEVM(b *testing.B) {
	dir := b.TempDir()
	var tps float64
	for i := 0; i < b.N; i++ {
		sub, err := os.MkdirTemp(dir, "run")
		if err != nil {
			b.Fatal(err)
		}
		v, err := bench.RunSingleNode(2000, 7, sub, discard{})
		if err != nil {
			b.Fatal(err)
		}
		tps += v
	}
	b.ReportMetric(tps/float64(b.N), "tx/s")
}

// BenchmarkAblation is the ingredient ladder (A1).
func BenchmarkAblation(b *testing.B) {
	g := smallGrid()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblation(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointWindow measures the §V-F window/checkpoint settings
// (A2): smaller windows checkpoint more often.
func BenchmarkCheckpointWindow(b *testing.B) {
	for _, win := range []uint64{16, 64, 256} {
		win := win
		b.Run(fmt.Sprintf("win=%d", win), func(b *testing.B) {
			g := smallGrid()
			v := bench.Variants(4)[3] // SBFT c=0
			var tput float64
			for i := 0; i < b.N; i++ {
				netCfg := sim.ContinentProfile(g.Seed)
				cl, err := cluster.New(cluster.Options{
					Protocol: cluster.ProtoSBFT, F: g.F,
					App: cluster.AppKV, Clients: 32, NetCfg: &netCfg, Seed: g.Seed,
					Tune: func(c *core.Config) {
						c.Win = win
						c.CheckpointInterval = win / 2
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				res := cl.RunClosedLoop(g.OpsPerClient, bench.KVGen(g.Seed), g.Horizon)
				tput += res.Throughput
			}
			_ = v
			b.ReportMetric(tput/float64(b.N), "simulated-op/s")
		})
	}
}

// BenchmarkViewChange measures recovery from a primary crash (A3).
func BenchmarkViewChange(b *testing.B) {
	g := smallGrid()
	for i := 0; i < b.N; i++ {
		if err := bench.RunViewChange(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- C1: crypto micro-benchmarks (§III comparison table) ---

// BenchmarkCryptoThresholdBLS benches threshold BLS over the from-scratch
// BN254 pairing, running on the fixed-limb Montgomery hot path
// (internal/crypto/bn254). Signatures are uncompressed G1 points, 64
// bytes (the paper's §III quotes 33 for a compressed BLS signature
// against 256 for RSA-2048); DESIGN.md "Retired arms" keeps the last
// figures of the threshold-RSA scheme this used to run beside.
func BenchmarkCryptoThresholdBLS(b *testing.B) {
	scheme, signers, err := threshbls.Dealer{}.Deal(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	d := sha256.Sum256([]byte("bench"))
	b.Run("sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := signers[0].Sign(d[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
	share, _ := signers[0].Sign(d[:])
	b.Run("verify-share", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := scheme.VerifyShare(d[:], share); err != nil {
				b.Fatal(err)
			}
		}
	})
	shares := make([]threshsig.Share, scheme.Threshold())
	for i := range shares {
		shares[i], _ = signers[i].Sign(d[:])
	}
	b.Run("combine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scheme.Combine(d[:], shares); err != nil {
				b.Fatal(err)
			}
		}
	})
	sig, _ := scheme.Combine(d[:], shares)
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := scheme.Verify(d[:], sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("signature-size", func(b *testing.B) {
		b.ReportMetric(float64(len(sig.Data)), "bytes")
	})
}

// BenchmarkMerkleMap measures the authenticated state digest cost per
// block (§IV substrate).
func BenchmarkMerkleMap(b *testing.B) {
	m := merkle.NewMap()
	for i := 0; i < 100_000; i++ {
		m.Set(fmt.Sprintf("key-%06d", i), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Set(fmt.Sprintf("key-%06d", i%100_000), []byte{byte(i)})
		_ = m.Digest()
	}
}

// BenchmarkKVExecuteBlock measures block execution of the KV service.
func BenchmarkKVExecuteBlock(b *testing.B) {
	s := kvstore.New()
	ops := make([][]byte, 64)
	for i := range ops {
		ops[i] = kvstore.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ExecuteBlock(uint64(i+1), ops)
		s.GarbageCollect(uint64(i))
	}
}

// BenchmarkEVMTokenTransfer measures one token transfer through the EVM
// interpreter.
func BenchmarkEVMTokenTransfer(b *testing.B) {
	l := evm.NewLedger()
	deployer := evm.AddressFromBytes([]byte{0xD0})
	l.Mint(deployer, 1_000_000_000)
	if _, err := l.GenesisCreate(deployer, evm.TokenDeploy(), 10_000_000); err != nil {
		b.Fatal(err)
	}
	token := evm.ContractAddress(deployer, 0)
	alice := evm.AddressFromBytes([]byte{0xA1})
	mint := evm.Tx{Kind: evm.TxCall, From: alice, To: token, GasLimit: 1_000_000,
		Data: evm.TokenCalldata(evm.TokenMint, alice, 1_000_000_000)}.Encode()
	l.ExecuteBlock(1, [][]byte{mint})
	tx := evm.Tx{Kind: evm.TxCall, From: alice, To: token, GasLimit: 1_000_000,
		Data: evm.TokenCalldata(evm.TokenTransfer, evm.AddressFromBytes([]byte{0xB2}), 1)}.Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ExecuteBlock(uint64(i+2), [][]byte{tx})
		l.GarbageCollect(uint64(i + 1))
	}
}

// BenchmarkStorageAppend measures the WAL substrate.
func BenchmarkStorageAppend(b *testing.B) {
	led, err := storage.Open(b.TempDir(), storage.Options{Sync: false})
	if err != nil {
		b.Fatal(err)
	}
	defer led.Close()
	payload := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := led.Append(uint64(i+1), payload); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = time.Second
