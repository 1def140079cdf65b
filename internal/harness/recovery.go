package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/sim"
)

// This file is the large-state recovery generator: scenarios that make
// verified state transfer the dominant cost — a multi-MiB replicated
// state, a victim replica crashed across several checkpoint intervals
// (its catch-up MUST go through chunked state transfer; the slots are
// garbage-collected below the stable point), lossy and reordering links
// while the transfer runs, and on most seeds a Byzantine snapshot server
// (chunk tamperer or stale-meta racer). The per-scenario Check asserts
// what the generic audit cannot: the victim actually caught up through
// state transfer, and blame landed only on faulty servers.

// recoveryValSize is the value size of the large-state workload: with
// ~100 operations the application snapshot alone spans several hundred
// 8 KiB chunks (multi-MiB state).
const recoveryValSize = 32 * 1024

// RecoveryValue builds the deterministic large value for operation i of
// a client (exported for the benchmark that reuses the workload shape).
func RecoveryValue(client, i int) []byte {
	return bytes.Repeat([]byte{byte(client), byte(i), 0x5a}, recoveryValSize/3)
}

// RecoveryGen generates one large-state recovery scenario per seed. The
// victim replica (4) crashes twice: the first episode seeds the durable
// history (and teaches a stale-meta adversary an old certified meta),
// the second forces a deep catch-up over impaired links. Variants cycle
// with the seed: honest servers, a FaultByzSnapshot chunk tamperer, a
// FaultByzStaleMeta racer serving old-but-valid metas, or a
// multi-interval stall — the victim's inbound fully drops mid-transfer
// while the cluster advances ≥2 stable checkpoints, and the Check pins
// that the superseded transfer completed with ZERO restarts (the carried
// ROADMAP item 3 bug).
func RecoveryGen(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed*0x51_7c_c1_b7_27_22_0a_95 + 0x1234_5678))
	const (
		victim    = 4
		byzServer = 2
	)
	opts := cluster.Options{
		Protocol:      cluster.ProtoSBFT,
		F:             1,
		Clients:       2,
		Seed:          seed,
		ClientTimeout: time.Second,
		Persist:       true,
		CryptoPool:    1, // restarts must re-install the pool sink
		Tune: func(c *core.Config) {
			c.Win = 8
			c.Batch = 1
			c.CheckpointInterval = 4
			c.ViewChangeTimeout = time.Second
			c.SnapshotRetain = 8 // deep chain: mid-transfer bases stay servable
		},
	}

	variant := ((seed % 4) + 4) % 4 // Euclidean: negative seeds must not panic the index below
	var sched cluster.Schedule
	switch variant {
	case 1:
		sched = append(sched, cluster.Fault{At: 50 * time.Millisecond, Kind: cluster.FaultByzSnapshot, Node: byzServer})
	case 2:
		sched = append(sched, cluster.Fault{At: 50 * time.Millisecond, Kind: cluster.FaultByzStaleMeta, Node: byzServer})
	}

	// Episode 1: the victim misses the opening stretch of history and
	// catches up once — seeding its durable log and, for the stale-meta
	// variant, teaching the adversary an early certified meta.
	ep1 := 250*time.Millisecond + time.Duration(rng.Int63n(int64(200*time.Millisecond)))
	sched = append(sched,
		cluster.Fault{At: ep1, Kind: cluster.FaultCrash, Node: victim},
		cluster.Fault{At: ep1 + 1500*time.Millisecond, Kind: cluster.FaultRecover, Node: victim})

	// Episode 2: a deeper outage, healed into an impaired network — the
	// transfer itself runs under drops and reordering, exactly where the
	// per-chunk retry and per-server steering earn their keep.
	ep2 := ep1 + 3*time.Second + time.Duration(rng.Int63n(int64(time.Second)))
	rec2 := ep2 + 1500*time.Millisecond
	sched = append(sched,
		cluster.Fault{At: ep2, Kind: cluster.FaultCrash, Node: victim},
		cluster.Fault{At: rec2, Kind: cluster.FaultRecover, Node: victim},
		// Inbound loss at the recovering victim: chunk replies vanish.
		cluster.Fault{At: rec2, Kind: cluster.FaultLink, From: 0, To: victim,
			Link: sim.LinkFault{Drop: 0.1 + 0.2*rng.Float64()}},
		// Network-wide duplication and reordering stress idempotence of
		// the windowed accounting.
		cluster.Fault{At: rec2, Kind: cluster.FaultLink, From: 0, To: 0,
			Link: sim.LinkFault{
				Duplicate:     0.2 + 0.3*rng.Float64(),
				ReorderJitter: 5*time.Millisecond + time.Duration(rng.Int63n(int64(20*time.Millisecond))),
			}},
		cluster.Fault{At: rec2 + 6*time.Second, Kind: cluster.FaultLinkClear})

	if variant == 3 {
		// Multi-interval stall: shortly into the transfer the victim's
		// inbound drops EVERYTHING for a stretch during which the live
		// replicas keep committing — the stable frontier crosses ≥2
		// checkpoint intervals while the fetch hangs mid-flight. The
		// FaultLinkClear above lifts the stall together with the ambient
		// impairment; the superseded transfer must finish by retargeting
		// with its held chunks carried over, never by restarting.
		stall := rec2 + 300*time.Millisecond
		sched = append(sched,
			cluster.Fault{At: stall, Kind: cluster.FaultLink, From: 0, To: victim,
				Link: sim.LinkFault{Drop: 1}},
			cluster.Fault{At: stall + 2*time.Second, Kind: cluster.FaultLink, From: 0, To: victim,
				Link: sim.LinkFault{Drop: 0.1}})
	}

	name := fmt.Sprintf("recovery-%s", [...]string{"honest", "tamper", "stalemeta", "multiinterval"}[variant])
	return Scenario{
		Name:     name,
		Opts:     opts,
		Schedule: sched,
		Gen: func(client, i int) []byte {
			return kvstore.Put(fmt.Sprintf("c%d/k%d", client, i), RecoveryValue(client, i))
		},
		OpsPerClient:       48,
		Horizon:            30 * time.Minute, // virtual time; generous on purpose
		Settle:             2 * time.Minute,  // the transfer must finish before the audit
		ExpectAllCommitted: true,
		Check: func(cl *cluster.Cluster) string {
			lag := cl.Replicas[victim]
			var honestStable uint64
			for id := 1; id <= cl.N; id++ {
				if id == victim || cl.IsByzantine(id) {
					continue
				}
				if ls := cl.Replicas[id].LastStable(); ls > honestStable {
					honestStable = ls
				}
			}
			if lag.LastExecuted() < honestStable {
				return fmt.Sprintf("recovery incomplete: victim le=%d behind honest stable=%d (fetches=%d chunks=%d retries=%d)",
					lag.LastExecuted(), honestStable, lag.Metrics.StateFetches,
					lag.Metrics.SnapshotChunks, lag.Metrics.SnapshotChunkRetries)
			}
			if lag.Metrics.StateFetches == 0 {
				return "no state transfer exercised despite the deep gap"
			}
			if lag.Metrics.SnapshotChunks == 0 {
				return "no snapshot chunks fetched"
			}
			for id, n := range lag.SnapshotBlameCounts() {
				if n > 0 && !cl.IsByzantine(id) {
					return fmt.Sprintf("honest server %d blamed %d times", id, n)
				}
			}
			if variant == 3 {
				if lag.Metrics.SnapshotTransferRestarts != 0 {
					return fmt.Sprintf("transfer restarted %d times across the multi-interval stall",
						lag.Metrics.SnapshotTransferRestarts)
				}
				if lag.Metrics.SnapshotReuseTransfers == 0 {
					return "no chunk reuse recorded: the stalled transfer never spanned an interval boundary"
				}
			}
			return ""
		},
	}
}
