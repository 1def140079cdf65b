package harness

import (
	"fmt"
	"math/rand"
	"time"

	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/load"
	"sbft/internal/sim"
)

// OpenLoopGen generates open-loop chaos scenarios: Poisson arrivals
// multiplexed over a client pool against an SBFT cluster with the
// verification pool armed, under a benign fault window. A third of the
// seeds tighten MaxPending so the run saturates the §V-C admission gate
// and drives BusyMsg backoff concurrently with the fault — the
// interleaving a closed loop can never produce (its offered load
// collapses the moment latency spikes). Safety is audited as always;
// liveness covers every admitted request.
func OpenLoopGen(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed*0x6a09e667f3bcc9 + 0x3c6ef372fe94f82a))

	f := 1
	opts := cluster.Options{
		Protocol:      cluster.ProtoSBFT,
		F:             f,
		Clients:       8 + rng.Intn(9), // 8..16 multiplexed slots
		Seed:          seed,
		ClientTimeout: time.Second,
		Persist:       true,
		CryptoPool:    1,
		Tune: func(c *core.Config) {
			c.ViewChangeTimeout = time.Second
		},
	}
	n := 3*f + 1
	congested := seed%3 == 0
	if congested {
		// What a primary can hold is its window of full blocks plus the
		// queue, 3×Batch + MaxPending at n=4, and only a generator with
		// more slots than that can make it reject: blocks of one keep it
		// at 7..14 against the 8..16 slots (blocks of four, 16..23, did
		// while the window filled with singletons; now they fill).
		tight := 4 + rng.Intn(8)
		tune := opts.Tune
		opts.Tune = func(c *core.Config) {
			tune(c)
			c.MaxPending = tight
			c.Batch = 1
		}
	}

	// One benign fault window inside the measurement phase, healed well
	// before the drain ends.
	var sched cluster.Schedule
	at := 300*time.Millisecond + time.Duration(rng.Int63n(int64(400*time.Millisecond)))
	dur := 200*time.Millisecond + time.Duration(rng.Int63n(int64(500*time.Millisecond)))
	node := 1 + rng.Intn(n)
	switch rng.Intn(3) {
	case 0:
		sched = append(sched,
			cluster.Fault{At: at, Kind: cluster.FaultCrash, Node: node},
			cluster.Fault{At: at + dur, Kind: cluster.FaultRestart, Node: node})
	case 1:
		sched = append(sched,
			cluster.Fault{At: at, Kind: cluster.FaultStraggle, Node: node, Extra: 30 * time.Millisecond},
			cluster.Fault{At: at + dur, Kind: cluster.FaultStraggle, Node: node})
	default:
		sched = append(sched,
			cluster.Fault{At: at, Kind: cluster.FaultLink, From: node, Link: sim.LinkFault{Drop: 0.3}},
			cluster.Fault{At: at + dur, Kind: cluster.FaultLinkClear})
	}

	rate := 150 + float64(rng.Intn(350)) // 150..500 req/s
	name := fmt.Sprintf("openloop-%.0frps", rate)
	if congested {
		name += "-congested"
	}
	return Scenario{
		Name:     name,
		Opts:     opts,
		Schedule: sched,
		OpenLoop: &load.Config{
			Rate:   rate,
			Warmup: 200 * time.Millisecond,
			Window: 2 * time.Second,
			Drain:  2 * time.Second,
			Seed:   seed,
		},
		Horizon: 30 * time.Second,
		Settle:  2 * time.Second,
		// Every admitted request must complete: the faults heal and the
		// drain+settle phases give retries room. Shed arrivals (Dropped)
		// and admission rejects are not liveness failures — that is the
		// backpressure design working.
		ExpectAllCommitted: true,
	}
}
