// Recovery-latency benchmarks for the windowed state-transfer subsystem:
// BenchmarkStateTransfer measures (in simulated time) how long a replica
// that missed several checkpoint intervals takes to catch up through
// verified chunked state transfer over a lossy link — the windowed,
// flow-controlled fetch with per-chunk retries, from nothing and reusing
// the chunks of a generation the victim still holds. Together with
// BenchmarkCheckpointCapture (internal/core) it emits the repo's
// BENCH_*.json trajectory points: set SBFT_BENCH_JSON to a directory to
// write BENCH_state_transfer.json there.
package sbft_test

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"sbft/internal/benchjson"
	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/sim"
)

var stateTransferJSON = benchjson.New("state_transfer", "simulated-recovery-ms")

// followUpHorizon bounds the light traffic that runs beside a recovery;
// a recovery latency at or above it means the victim never caught up.
const followUpHorizon = 10 * time.Minute

// timeRecovery recovers crashed replica 4 behind a lossy inbound link —
// chunk replies get dropped, so per-chunk loss recovery dominates — and
// returns the virtual time, in milliseconds, from recovery until its
// LastExecuted() first reaches frontier, with its metrics at that
// instant. A poll scheduled every millisecond records the crossing;
// reading the clock and the counters after the workload driver returns
// would measure the simulator going idle instead (RunClosedLoop runs
// 50 000 events at a time and overshoots) and fold later transfers into
// the counters. Light follow-up traffic keeps checkpoints announcing so
// the recovering replica notices its gap.
func timeRecovery(b *testing.B, cl *cluster.Cluster, frontier uint64, val []byte) (float64, core.Metrics) {
	b.Helper()
	victim := cl.Replicas[4]
	cl.Net.SetLinkFault(sim.AnyNode, 4, sim.LinkFault{Drop: 0.15})
	cl.Net.Recover(4)
	start := cl.Sched.Now()
	crossed := time.Duration(-1)
	var atCrossing core.Metrics
	var poll func()
	poll = func() {
		switch {
		case victim.LastExecuted() >= frontier:
			crossed = cl.Sched.Now() - start
			atCrossing = victim.Metrics
		case cl.Sched.Now()-start < followUpHorizon:
			cl.Sched.Schedule(time.Millisecond, poll)
		}
	}
	poll()
	more := cl.RunClosedLoop(4, func(client, i int) []byte {
		return kvstore.Put(fmt.Sprintf("post/c%d/k%d", client, i), val)
	}, followUpHorizon)
	if more.Completed != 8 {
		b.Fatalf("follow-up completed %d of 8", more.Completed)
	}
	for crossed < 0 && cl.Sched.Now()-start < followUpHorizon {
		cl.Run(10 * time.Millisecond)
	}
	if crossed < 0 || crossed >= followUpHorizon {
		b.Fatalf("recovery did not complete: le=%d, frontier=%d (chunks=%d retries=%d)",
			victim.LastExecuted(), frontier,
			victim.Metrics.SnapshotChunks, victim.Metrics.SnapshotChunkRetries)
	}
	return float64(crossed) / float64(time.Millisecond), atCrossing
}

// recoveryLatency builds a 4-replica SBFT cluster, crashes replica 4
// through the whole workload (several checkpoint intervals of history),
// then recovers it and measures the simulated time until it executes
// past the pre-recovery stable frontier.
func recoveryLatency(b *testing.B, valSize, ops int) float64 {
	b.Helper()
	netCfg := sim.ContinentProfile(7)
	cl, err := cluster.New(cluster.Options{
		Protocol: cluster.ProtoSBFT, F: 1, C: 0,
		App: cluster.AppKV, Clients: 2, NetCfg: &netCfg, Seed: 7,
		ClientTimeout: time.Second,
		Tune: func(c *core.Config) {
			c.Win = 8
			c.Batch = 1
			c.CheckpointInterval = 4
			c.ViewChangeTimeout = 2 * time.Second
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	val := make([]byte, valSize)
	for i := range val {
		val[i] = byte(i)
	}
	gen := func(client, i int) []byte {
		return kvstore.Put(fmt.Sprintf("c%d/k%d", client, i), val)
	}
	cl.Net.Crash(4)
	res := cl.RunClosedLoop(ops, gen, 10*time.Minute)
	if res.Completed != uint64(2*ops) {
		b.Fatalf("workload completed %d of %d", res.Completed, 2*ops)
	}
	frontier := cl.Replicas[1].LastStable()
	if frontier == 0 {
		b.Fatal("no stable checkpoint built")
	}
	latency, _ := timeRecovery(b, cl, frontier, val)
	return latency
}

// reuseRecoveryLatency measures catch-up of a replica that crashes
// AFTER adopting a stable snapshot: while it is down the live replicas
// overwrite dirtyFrac of the key space across several checkpoint
// intervals, and on recovery the victim fetches the new snapshot reusing
// every chunk of the base generation it still holds that the new leaf
// list repeats. Returns the simulated recovery time plus the victim's
// reuse/restart counters at the moment it caught up.
func reuseRecoveryLatency(b *testing.B, valSize int, dirtyFrac float64, seed int64) (float64, core.Metrics) {
	b.Helper()
	netCfg := sim.ContinentProfile(7)
	cl, err := cluster.New(cluster.Options{
		Protocol: cluster.ProtoSBFT, F: 1, C: 0,
		App: cluster.AppKV, Clients: 2, NetCfg: &netCfg, Seed: seed,
		ClientTimeout: time.Second,
		Tune: func(c *core.Config) {
			c.Win = 8
			c.Batch = 1
			c.CheckpointInterval = 4
			c.ViewChangeTimeout = 2 * time.Second
			c.SnapshotRetain = 8
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	val := make([]byte, valSize)
	for i := range val {
		val[i] = byte(i)
	}
	const perClient = 12 // phase-1 key space: 2 clients × 12 keys
	res := cl.RunClosedLoop(perClient, func(client, i int) []byte {
		return kvstore.Put(fmt.Sprintf("c%d/k%d", client, i), val)
	}, 10*time.Minute)
	if res.Completed != 2*perClient {
		b.Fatalf("phase-1 completed %d of %d", res.Completed, 2*perClient)
	}
	base := cl.Replicas[4].SnapshotSeq()
	if base == 0 {
		b.Fatal("victim adopted no snapshot before crash")
	}

	// Down window: 2 clients × 8 = 16 blocks = 4 checkpoint intervals,
	// rewriting only dirtyFrac of the phase-1 keys (rounded up to whole
	// keys) with DIFFERENT bytes — rewriting the bytes phase 1 wrote
	// leaves every chunk clean whatever the fraction.
	cl.Net.Crash(4)
	span := int(math.Ceil(perClient * dirtyFrac))
	rewritten := make([]byte, valSize)
	for i := range rewritten {
		rewritten[i] = ^val[i]
	}
	gone := cl.RunClosedLoop(8, func(client, i int) []byte {
		return kvstore.Put(fmt.Sprintf("c%d/k%d", client, i%span), rewritten)
	}, 10*time.Minute)
	if gone.Completed != 16 {
		b.Fatalf("down-window completed %d of 16", gone.Completed)
	}
	return timeRecovery(b, cl, cl.Replicas[1].LastStable(), val)
}

// reuseSeeds are the cluster seeds a reuse/* point is the median over.
// One seed's recovery is a lottery over the lossy link, where each lost
// chunk costs a retry interval, so the points also report the spread.
var reuseSeeds = []int64{11, 12, 13, 14, 15}

// BenchmarkStateTransfer reports recovery latency of the windowed fetch
// at a small and a large (multi-MiB) application state; the reuse/*
// points then time transfers that reuse a base the victim already holds,
// at three fractions of the key space rewritten while it was down.
func BenchmarkStateTransfer(b *testing.B) {
	cases := []struct {
		name    string
		valSize int
		ops     int
	}{
		{"small/windowed", 512, 12},
		{"large/windowed", 32 * 1024, 48},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total += recoveryLatency(b, tc.valSize, tc.ops)
			}
			ms := total / float64(b.N)
			b.ReportMetric(ms, "simulated-recovery-ms")
			if err := stateTransferJSON.Record(tc.name, ms); err != nil {
				b.Fatal(err)
			}
		})
	}

	reuseCases := []struct {
		name      string
		dirtyFrac float64
	}{
		{"reuse/dirty1", 0.01},
		{"reuse/dirty10", 0.10},
		{"reuse/dirty100", 1.00},
	}
	reused := make(map[string]float64) // mean chunks reused per recovery
	for _, tc := range reuseCases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var lat []float64
			var chunks uint64
			for i := 0; i < b.N; i++ {
				for _, seed := range reuseSeeds {
					ms, m := reuseRecoveryLatency(b, 32*1024, tc.dirtyFrac, seed)
					// A transfer against a held base must reuse chunks and
					// never restart.
					if m.SnapshotChunksReused == 0 {
						b.Fatalf("seed %d: transfer against a held base reused no chunks (fetched=%d)", seed, m.SnapshotChunks)
					}
					if m.SnapshotTransferRestarts != 0 {
						b.Fatalf("seed %d: transfer against a held base restarted %d times", seed, m.SnapshotTransferRestarts)
					}
					chunks += m.SnapshotChunksReused
					lat = append(lat, ms)
				}
			}
			b.Logf("%s over seeds %v: %v ms", tc.name, reuseSeeds, lat)
			slices.Sort(lat)
			ms := lat[len(lat)/2]
			b.ReportMetric(ms, "simulated-recovery-ms")
			b.ReportMetric(lat[0], "min-ms")
			b.ReportMetric(lat[len(lat)-1], "max-ms")
			reused[tc.name] = float64(chunks) / float64(len(lat))
			b.ReportMetric(reused[tc.name], "chunks-reused")
			if err := stateTransferJSON.Record(tc.name, ms); err != nil {
				b.Fatal(err)
			}
		})
	}
	// The dirty fraction must reach the chunks: rewriting everything has
	// to leave fewer clean chunks to reuse, over the same seeds, than
	// rewriting one key.
	lo, okLo := reused["reuse/dirty1"]
	hi, okHi := reused["reuse/dirty100"]
	if okLo && okHi && hi >= lo {
		b.Fatalf("reuse/dirty100 reused %.1f chunks, reuse/dirty1 %.1f: the down window dirtied nothing", hi, lo)
	}
}
