// Command sbft-chaos runs seeded random fault schedules against simulated
// SBFT deployments and audits every run for safety: identical committed
// logs, matching state roots, no lost client acks, exactly-once
// execution. A failing seed is a complete reproduction recipe — rerun
// with -start <seed> -seeds 1 -v to replay it.
//
// Generators: "default" (benign crash / restart / partition / straggler /
// link faults, one replica at a time), "byzantine" (overlapping benign +
// Byzantine windows — equivocating primaries, silent-but-alive replicas,
// conflicting-checkpoint senders, stale-view spammers, snapshot-chunk
// tamperers — within the f/c budget, including an f=2 paper-scale
// configuration every 16th seed), "evm" (the benign generator with the
// EVM token ledger as the replicated application on every seed),
// "recovery" (multi-MiB state, a victim crashed across checkpoint
// intervals, windowed state transfer over lossy/reordering links with
// chunk-tampering or stale-meta snapshot servers, blame attribution
// asserted), and "colluding" (every seed paper-scale f=2 c=1 under
// scaled crypto: a key-share colluding pair — always including the
// view-0 primary — jointly signing partial quorums, conflicting
// checkpoints or lying snapshot metas, followed by an adaptive
// role-targeting attack window), and "openloop" (Poisson open-loop
// arrivals multiplexed over a client pool with the verification pool
// armed, a third of the seeds saturating the §V-C admission gate while
// a benign fault window runs), and "reads" (an open-loop mix of
// certified single-replica reads and writes under crash windows,
// whole-run forged-proof replicas, and partitioned laggards; every
// forged reply must be rejected client-side and every verified read
// audited against the certified frontier). "both" splits the seed range
// across default and byzantine, keeping wall-time flat; both of those
// also run the EVM ledger themselves on every fifth seed.
//
// The -live flag (with -gen reads) replaces the simulator with a real
// 4-node loopback-TCP deployment — real sockets, real timers — and
// drives the write/read mix once as a deployment smoke; any hang,
// unverifiable value, or fully-degraded read path exits nonzero.
//
// Examples:
//
//	sbft-chaos                          # 100 benign + 100 Byzantine seeds
//	sbft-chaos -gen byzantine -seeds 1000
//	sbft-chaos -gen evm -seeds 50
//	sbft-chaos -gen reads -live
//	sbft-chaos -gen byzantine -start 176 -seeds 1 -v
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sbft/internal/harness"
)

func main() {
	var (
		seeds   = flag.Int("seeds", 200, "number of seeded scenarios to run")
		start   = flag.Int64("start", 1, "first seed")
		gen     = flag.String("gen", "both", "scenario generator: default, byzantine, evm, recovery, colluding, openloop, reads, or both (seed range split)")
		verbose = flag.Bool("v", false, "print every scenario outcome")
		live    = flag.Bool("live", false, "with -gen reads: run the write/read mix over a real 4-node loopback-TCP deployment instead of the simulator")
	)
	flag.Parse()

	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "sbft-chaos: -seeds must be ≥ 1")
		os.Exit(2)
	}

	if *live {
		if *gen != "reads" {
			fmt.Fprintln(os.Stderr, "sbft-chaos: -live only supports -gen reads")
			os.Exit(2)
		}
		if err := runLiveReads(16, 48, 120*time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "sbft-chaos: live reads smoke FAILED: %v\n", err)
			os.Exit(1)
		}
		return
	}

	type sweep struct {
		name  string
		gen   harness.ScenarioGen
		seeds []int64
	}
	var sweeps []sweep
	switch *gen {
	case "default":
		sweeps = []sweep{{"default", harness.DefaultGen, harness.SeedRange(*start, *seeds)}}
	case "byzantine":
		sweeps = []sweep{{"byzantine", harness.ByzantineGen, harness.SeedRange(*start, *seeds)}}
	case "evm":
		sweeps = []sweep{{"evm", harness.EVMGen, harness.SeedRange(*start, *seeds)}}
	case "recovery":
		sweeps = []sweep{{"recovery", harness.RecoveryGen, harness.SeedRange(*start, *seeds)}}
	case "colluding":
		sweeps = []sweep{{"colluding", harness.ColludingGen, harness.SeedRange(*start, *seeds)}}
	case "openloop":
		sweeps = []sweep{{"openloop", harness.OpenLoopGen, harness.SeedRange(*start, *seeds)}}
	case "reads":
		sweeps = []sweep{{"reads", harness.ReadGen, harness.SeedRange(*start, *seeds)}}
	case "both":
		// Split the budget so adding the Byzantine sweep keeps the total
		// scenario count (and CI wall-time) flat.
		half := *seeds / 2
		sweeps = []sweep{
			{"default", harness.DefaultGen, harness.SeedRange(*start, *seeds-half)},
			{"byzantine", harness.ByzantineGen, harness.SeedRange(*start, half)},
		}
	default:
		fmt.Fprintf(os.Stderr, "sbft-chaos: unknown generator %q (want default, byzantine, evm, recovery, colluding, openloop, reads, or both)\n", *gen)
		os.Exit(2)
	}

	failed := false
	for _, sw := range sweeps {
		if len(sw.seeds) == 0 {
			continue
		}
		// Outcomes stream as the sweep progresses; aggregation (including
		// the minimal failing seed) lives in harness.RunChaos.
		cr := harness.RunChaos(sw.seeds, sw.gen,
			func(seed int64, rep *harness.Report, err error) {
				switch {
				case err != nil:
					fmt.Printf("[%s] seed %d ERROR: %v\n", sw.name, seed, err)
				case rep.Failed():
					fmt.Printf("[%s] %s\n", sw.name, rep.Summary())
					for _, f := range rep.Faults {
						fmt.Printf("  fault: %s\n", f)
					}
				case *verbose:
					fmt.Printf("[%s] %s\n", sw.name, rep.Summary())
				}
			})
		fmt.Printf("[%s] %s\n", sw.name, cr.Summary())
		if !cr.OK() {
			failed = true
			fmt.Printf("[%s] reproduce: sbft-chaos -gen %s -start %d -seeds 1 -v\n",
				sw.name, sw.name, cr.MinFailingSeed)
		}
	}
	if failed {
		os.Exit(1)
	}
}
