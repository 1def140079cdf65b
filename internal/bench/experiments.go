package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sbft/internal/apps"
	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/sim"
	"sbft/internal/storage"
)

// Variant is one of the paper's five protocol configurations (§IX).
type Variant struct {
	Name     string
	Protocol cluster.Protocol
	C        int // only for SBFT
}

// Variants returns the evaluation ladder for a given f. The paper uses
// c=8 with f=64; the redundant variant scales as max(1, f/8) per the
// paper's "c ≤ f/8 is a good heuristic".
func Variants(f int) []Variant {
	cRed := f / 8
	if cRed < 1 {
		cRed = 1
	}
	return []Variant{
		{Name: "PBFT", Protocol: cluster.ProtoPBFT},
		{Name: "Linear-PBFT", Protocol: cluster.ProtoLinearPBFT},
		{Name: "Linear-PBFT+Fast", Protocol: cluster.ProtoLinearFast},
		{Name: "SBFT(c=0)", Protocol: cluster.ProtoSBFT, C: 0},
		{Name: fmt.Sprintf("SBFT(c=%d)", cRed), Protocol: cluster.ProtoSBFT, C: cRed},
	}
}

// Point is one measured configuration.
type Point struct {
	Experiment    string
	Protocol      string
	Clients       int
	Failures      int
	Batch         int
	Throughput    float64
	MeanMs        float64
	P50Ms         float64
	P95Ms         float64
	FastAckPct    float64
	FastCommitPct float64
	Completed     uint64
	Retries       uint64
	Msgs          uint64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// GridConfig scales the Figure 2/3 sweep. The paper runs f=64 with 1000
// ops per client; the defaults scale to f=8 so the full grid runs in
// seconds — pass Full for paper-scale parameters (slow).
type GridConfig struct {
	F            int
	OpsPerClient int
	ClientCounts []int
	FailureFracs []int // crashed replicas expressed as f/frac; 0 = none
	Batches      []int
	Seed         int64
	Horizon      time.Duration
	Out          io.Writer
	// CryptoScale multiplies signature costs so CPU saturation appears at
	// the scaled-down n (paper n / simulated n); see CostModel.ScaledCrypto.
	CryptoScale int
}

// DefaultGrid is the scaled grid: f=16 (n=49; the paper's f=64, n=193 is
// reachable with -full at much higher CPU cost). Signature costs are
// multiplied by paper-n/simulated-n ≈ 4 so replicas saturate at the same
// offered load as the paper's deployment; the protocol-relative shape is
// preserved because both engines pay identical crypto prices.
func DefaultGrid() GridConfig {
	return GridConfig{
		F:            16,
		OpsPerClient: 10,
		ClientCounts: []int{4, 64, 256},
		FailureFracs: []int{0, 8, 1}, // none, f/8, f failures
		Batches:      []int{64, 1},
		Seed:         1,
		Horizon:      10 * time.Minute,
		Out:          os.Stdout,
		CryptoScale:  4,
	}
}

// PaperGrid is the full-scale grid (f=64, n=193/209) with unscaled crypto.
// Running it takes hours of CPU; use cmd/sbft-bench -full.
func PaperGrid() GridConfig {
	g := DefaultGrid()
	g.F = 64
	g.OpsPerClient = 50
	g.CryptoScale = 1
	return g
}

// failuresOf translates a failure fraction to a crash count.
func failuresOf(f, frac int) int {
	switch frac {
	case 0:
		return 0
	case 1:
		return f
	default:
		k := f / frac
		if k < 1 {
			k = 1
		}
		return k
	}
}

// RunPoint measures one (variant, clients, failures, batch) cell.
func RunPoint(g GridConfig, v Variant, clients, failures, batch int) (Point, error) {
	netCfg := sim.ContinentProfile(g.Seed)
	costs := cluster.DefaultCosts()
	if g.CryptoScale > 1 {
		costs = costs.ScaledCrypto(g.CryptoScale)
	}
	cl, err := cluster.New(cluster.Options{
		Protocol: v.Protocol,
		F:        g.F,
		C:        v.C,
		App:      cluster.AppKV,
		Clients:  clients,
		NetCfg:   &netCfg,
		Seed:     g.Seed,
		Batch:    16, // requests per decision block (adaptive cap)
		Costs:    &costs,
		// Long client timeout: retries under saturation would inflate
		// load; the paper's measurement clients wait for their reply.
		ClientTimeout: 60 * time.Second,
		Tune: func(c *core.Config) {
			c.FastPathTimeout = 100 * time.Millisecond
			c.ViewChangeTimeout = 10 * time.Second
		},
	})
	if err != nil {
		return Point{}, err
	}
	if failures > 0 {
		cl.CrashReplicas(failures)
	}
	// `batch` is the paper's per-request batching mode: each client
	// request bundles that many operations (§IX), so throughput counts
	// operations = requests × batch.
	res := cl.RunClosedLoop(g.OpsPerClient, KVBundleGen(g.Seed, batch), g.Horizon)
	m := cl.Metrics()
	p := Point{
		Protocol:   v.Name,
		Clients:    clients,
		Failures:   failures,
		Batch:      batch,
		Throughput: res.Throughput * float64(batch),
		MeanMs:     ms(res.MeanLatency),
		P50Ms:      ms(res.P50Latency),
		P95Ms:      ms(res.P95Latency),
		Completed:  res.Completed,
		Retries:    res.Retries,
		Msgs:       res.MsgsSent,
	}
	if res.Completed > 0 {
		p.FastAckPct = 100 * float64(res.FastAcks) / float64(res.Completed)
	}
	if total := m.FastCommits + m.SlowCommits; total > 0 {
		p.FastCommitPct = 100 * float64(m.FastCommits) / float64(total)
	}
	return p, nil
}

func header(w io.Writer) {
	fmt.Fprintf(w, "%-18s %8s %9s %6s %10s %9s %8s %8s %8s %8s\n",
		"protocol", "clients", "failures", "batch", "tput(op/s)", "mean(ms)", "p50(ms)", "p95(ms)", "fastack%", "fastcmt%")
}

func row(w io.Writer, p Point) {
	fmt.Fprintf(w, "%-18s %8d %9d %6d %10.1f %9.1f %8.1f %8.1f %8.1f %8.1f\n",
		p.Protocol, p.Clients, p.Failures, p.Batch, p.Throughput, p.MeanMs, p.P50Ms, p.P95Ms, p.FastAckPct, p.FastCommitPct)
}

// RunFig2 reproduces Figure 2 (throughput vs number of clients, 6 panels:
// batch ∈ {64, 1} × failures ∈ {0, f/8, f}) and, since Figure 3 re-plots
// the same sweep as latency vs throughput, emits both views.
func RunFig2(g GridConfig) ([]Point, error) {
	var out []Point
	w := g.Out
	for _, batch := range g.Batches {
		for _, frac := range g.FailureFracs {
			failures := failuresOf(g.F, frac)
			fmt.Fprintf(w, "\n== Fig 2/3 panel: batch=%d failures=%d (f=%d) ==\n", batch, failures, g.F)
			header(w)
			for _, v := range Variants(g.F) {
				for _, clients := range g.ClientCounts {
					p, err := RunPoint(g, v, clients, failures, batch)
					if err != nil {
						return nil, fmt.Errorf("bench: point %s/%d: %w", v.Name, clients, err)
					}
					p.Experiment = "fig2"
					row(w, p)
					out = append(out, p)
				}
			}
		}
	}
	return out, nil
}

// ContractConfig parameterizes the smart-contract benchmark (§IX).
type ContractConfig struct {
	F           int
	World       bool // world-scale WAN vs continent-scale
	Clients     int
	TxPerClient int
	Seed        int64
	Horizon     time.Duration
	Out         io.Writer
}

// DefaultContract returns the scaled contract benchmark.
func DefaultContract(world bool) ContractConfig {
	return ContractConfig{
		F:           16,
		World:       world,
		Clients:     48,
		TxPerClient: 15,
		Seed:        7,
		Horizon:     20 * time.Minute,
		Out:         os.Stdout,
	}
}

// RunContract reproduces the §IX smart-contract comparison: SBFT (all
// ingredients, c = f/8) vs scale-optimized PBFT executing the synthetic
// Ethereum workload with on-replica EVM execution. The paper reports:
// continent 378 tps / 254 ms (SBFT) vs 204 tps / 538 ms (PBFT);
// world 172 tps / 622 ms vs 98 tps / 934 ms.
func RunContract(cfg ContractConfig) ([]Point, error) {
	scale := "continent"
	if cfg.World {
		scale = "world"
	}
	fmt.Fprintf(cfg.Out, "\n== Smart-contract benchmark (%s WAN, f=%d) ==\n", scale, cfg.F)
	header(cfg.Out)

	wl := NewContractWorkload(cfg.Seed, 64)
	cRed := cfg.F / 8
	if cRed < 1 {
		cRed = 1
	}
	variants := []Variant{
		{Name: fmt.Sprintf("SBFT(c=%d)", cRed), Protocol: cluster.ProtoSBFT, C: cRed},
		{Name: "PBFT", Protocol: cluster.ProtoPBFT},
	}
	var out []Point
	for _, v := range variants {
		var netCfg sim.Config
		if cfg.World {
			netCfg = sim.WorldProfile(cfg.Seed)
		} else {
			netCfg = sim.ContinentProfile(cfg.Seed)
		}
		costs := cluster.DefaultCosts().ScaledCrypto(4) // see GridConfig.CryptoScale
		cl, err := cluster.New(cluster.Options{
			Protocol:      v.Protocol,
			F:             cfg.F,
			C:             v.C,
			App:           cluster.AppEVM,
			Clients:       cfg.Clients,
			NetCfg:        &netCfg,
			Seed:          cfg.Seed,
			Batch:         50, // ≈50 tx per 12KB chunk (§IX)
			Costs:         &costs,
			ClientTimeout: 60 * time.Second,
			GenesisEVM:    wl.Genesis(),
		})
		if err != nil {
			return nil, err
		}
		res := cl.RunClosedLoop(cfg.TxPerClient, wl.Gen(), cfg.Horizon)
		p := Point{
			Experiment: "contract-" + scale,
			Protocol:   v.Name,
			Clients:    cfg.Clients,
			Batch:      50,
			Throughput: res.Throughput,
			MeanMs:     ms(res.MeanLatency),
			P50Ms:      ms(res.P50Latency),
			P95Ms:      ms(res.P95Latency),
			Completed:  res.Completed,
		}
		if res.Completed > 0 {
			p.FastAckPct = 100 * float64(res.FastAcks) / float64(res.Completed)
		}
		m := cl.Metrics()
		if total := m.FastCommits + m.SlowCommits; total > 0 {
			p.FastCommitPct = 100 * float64(m.FastCommits) / float64(total)
		}
		row(cfg.Out, p)
		out = append(out, p)
	}
	return out, nil
}

// RunSingleNode reproduces the §IX no-replication baseline: execute the
// synthetic contract workload on one EVM ledger, persisting each block to
// disk, and report transactions/second of wall-clock time (the paper
// measures ≈840 tps on its hardware).
func RunSingleNode(txs int, seed int64, dir string, out io.Writer) (float64, error) {
	wl := NewContractWorkload(seed, 64)
	app := apps.NewEVMApp()
	wl.Genesis()(app)
	led, err := storage.Open(filepath.Join(dir, "single-node"), storage.Options{Sync: false})
	if err != nil {
		return 0, err
	}
	defer led.Close()

	gen := wl.Gen()
	const blockSize = 50
	start := time.Now()
	seq := uint64(0)
	for done := 0; done < txs; {
		n := blockSize
		if txs-done < n {
			n = txs - done
		}
		ops := make([][]byte, n)
		for i := 0; i < n; i++ {
			ops[i] = gen(i%8, done+i)
		}
		seq++
		app.ExecuteBlock(seq, ops)
		if err := led.Append(seq, app.Digest()); err != nil {
			return 0, err
		}
		app.GarbageCollect(seq) // single node keeps no proof windows
		done += n
	}
	el := time.Since(start)
	tps := float64(txs) / el.Seconds()
	fmt.Fprintf(out, "\n== Single-node baseline ==\n%d txs in %v → %.0f tps (paper: ≈840 on its testbed)\n", txs, el.Round(time.Millisecond), tps)
	return tps, nil
}

// RunAblation reproduces the ingredient ladder at a fixed load (A1 in
// DESIGN.md): each row adds one ingredient, as §IX walks through.
func RunAblation(g GridConfig) ([]Point, error) {
	fmt.Fprintf(g.Out, "\n== Ablation: ingredient ladder at 128 clients, batch=64, no failures ==\n")
	header(g.Out)
	var out []Point
	for _, v := range Variants(g.F) {
		p, err := RunPoint(g, v, 128, 0, 64)
		if err != nil {
			return nil, err
		}
		p.Experiment = "ablation"
		row(g.Out, p)
		out = append(out, p)
	}
	return out, nil
}

// RunViewChange measures recovery from a primary crash (A3): virtual time
// from crash to the first post-crash completion, plus total view changes.
func RunViewChange(g GridConfig) error {
	fmt.Fprintf(g.Out, "\n== View change recovery (primary crash at t=2s) ==\n")
	for _, v := range Variants(g.F) {
		netCfg := sim.ContinentProfile(g.Seed)
		cl, err := cluster.New(cluster.Options{
			Protocol: v.Protocol, F: g.F, C: v.C,
			App: cluster.AppKV, Clients: 16, NetCfg: &netCfg, Seed: g.Seed,
			Tune: func(c *core.Config) {
				c.ViewChangeTimeout = 500 * time.Millisecond
			},
			TunePBFT:      nil,
			ClientTimeout: time.Second,
		})
		if err != nil {
			return err
		}
		cl.Sched.Schedule(2*time.Second, func() { cl.Net.Crash(1) })
		res := cl.RunClosedLoop(40, KVGen(g.Seed), g.Horizon)
		vcs := cl.Metrics().ViewChanges
		if v.Protocol == cluster.ProtoPBFT {
			vcs = cl.PBFTMetrics().ViewChanges
		}
		fmt.Fprintf(g.Out, "%-18s completed=%d/%d duration=%v viewchanges=%d retries=%d\n",
			v.Name, res.Completed, 16*40, res.Duration.Round(time.Millisecond), vcs, res.Retries)
	}
	return nil
}

// RunSeamlessSwitch demonstrates the dual-mode property (§I ingredient 2):
// with c stragglers the fast path persists; with c+1 stragglers SBFT
// degrades per-slot to the linear-PBFT path without any view change, and
// so it does at c = 0 when the first C-collector of every slot crashes
// and the primary collects in its place.
func RunSeamlessSwitch(g GridConfig, out io.Writer) error {
	fmt.Fprintf(out, "\n== Seamless fast↔slow switching (SBFT c=1, f=%d) ==\n", g.F)
	for _, stragglers := range []int{0, 1, 2} {
		netCfg := sim.ContinentProfile(g.Seed)
		cl, err := cluster.New(cluster.Options{
			Protocol: cluster.ProtoSBFT, F: g.F, C: 1,
			App: cluster.AppKV, Clients: 16, NetCfg: &netCfg, Seed: g.Seed,
			Tune: func(c *core.Config) {
				c.FastPathTimeout = 80 * time.Millisecond
			},
		})
		if err != nil {
			return err
		}
		cl.SetStragglers(stragglers, 500*time.Millisecond)
		res := cl.RunClosedLoop(g.OpsPerClient, KVGen(g.Seed), g.Horizon)
		m := cl.Metrics()
		total := m.FastCommits + m.SlowCommits
		fastPct := 0.0
		if total > 0 {
			fastPct = 100 * float64(m.FastCommits) / float64(total)
		}
		fmt.Fprintf(out, "stragglers=%d: tput=%.1f op/s mean=%.0fms fast-commits=%.0f%% viewchanges=%d\n",
			stragglers, res.Throughput, ms(res.MeanLatency), fastPct, m.ViewChanges)
	}
	// At c = 0 the primary is the one fallback C-collector: once the fast
	// path has run, it asks for the shares of each slot whose first
	// C-collector has crashed, and the slot commits without a view change.
	netCfg := sim.ContinentProfile(g.Seed)
	cl, err := cluster.New(cluster.Options{
		Protocol: cluster.ProtoSBFT, F: g.F, C: 0,
		App: cluster.AppKV, Clients: 16, NetCfg: &netCfg, Seed: g.Seed,
		Tune: func(c *core.Config) {
			c.FastPathTimeout = 80 * time.Millisecond
		},
	})
	if err != nil {
		return err
	}
	gen := KVGen(g.Seed)
	cl.RunClosedLoop(1, gen, g.Horizon)
	cl.ImpairFirstCollectors(true)
	res := cl.RunClosedLoop(g.OpsPerClient, gen, g.Horizon)
	m := cl.Metrics()
	fmt.Fprintf(out, "c=0 first C-collector crashed: tput=%.1f op/s mean=%.0fms primary-fetches=%d slow-commits=%d viewchanges=%d\n",
		res.Throughput, ms(res.MeanLatency), m.FallbackFetches, m.SlowCommits, m.ViewChanges)
	return nil
}
