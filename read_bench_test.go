// Read-path benchmark: BenchmarkReadThroughput measures (in simulated
// time) closed-loop GET throughput through the ordering path against the
// consensus-free certified read path (value + Merkle proof against the
// latest π-certified snapshot), aimed at a single replica and spread
// round-robin over all n. The single-replica certified configuration must
// beat the ordered path by ≥2× at n=4 — the regression gate for the whole
// read subsystem: certified reads cost one request/reply exchange and a
// proof check instead of a full ordering round. (The gate stood at ≥3×
// while the ordered side lost execute-acks at its checkpoints and carried
// fewer than two GETs per block: 159 against 41 op/s. With blocks filled
// and the acks kept it is 159 against 67, and 2× is the ratio the read
// path still owes.) Emits BENCH_reads.json when SBFT_BENCH_JSON names a
// directory.
package sbft_test

import (
	"fmt"
	"testing"
	"time"

	"sbft/internal/benchjson"
	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/sim"
)

var readsJSON = benchjson.New("reads", "ops-per-simulated-second")

const (
	readBenchClients = 8
	readBenchOps     = 25 // GETs per client per measured mode
)

type readBenchMode int

const (
	readModeOrdered readBenchMode = iota // GETs through consensus
	readModeSingle                       // certified reads, all aimed at replica 1
	readModeSpread                       // certified reads, round-robin over n
)

// readBenchThroughput builds a fresh n=4 cluster, populates one key per
// client, advances the certified frontier past every client's freshness
// floor, then runs a closed-loop GET phase in the given mode and returns
// ops per simulated second.
func readBenchThroughput(b *testing.B, mode readBenchMode) float64 {
	b.Helper()
	netCfg := sim.ContinentProfile(13)
	cl, err := cluster.New(cluster.Options{
		Protocol: cluster.ProtoSBFT, F: 1, C: 0,
		App: cluster.AppKV, Clients: readBenchClients, NetCfg: &netCfg, Seed: 13,
		ClientTimeout: 2 * time.Second,
		Tune: func(c *core.Config) {
			c.CheckpointInterval = 8
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	advanceUntil := func(what string, cond func() bool) {
		deadline := cl.Sched.Now() + 10*time.Minute
		for !cond() && cl.Sched.Now() < deadline {
			if cl.Sched.Run(deadline, 50_000) == 0 {
				break
			}
		}
		if !cond() {
			b.Fatalf("%s did not complete", what)
		}
	}

	// Populate: every client writes its own key (the key its GET phase
	// will target).
	res := cl.RunClosedLoop(1, func(client, i int) []byte {
		return kvstore.Put(fmt.Sprintf("bench/c%d", client), []byte(fmt.Sprintf("val-c%d", client)))
	}, 10*time.Minute)
	if res.Completed != readBenchClients {
		b.Fatalf("populate completed %d of %d", res.Completed, readBenchClients)
	}

	// Certified reads need every replica's stable frontier at or above
	// every client's freshness floor; filler writes land on checkpoint
	// boundaries eventually.
	maxFloor := func() uint64 {
		var m uint64
		for _, c := range cl.Clients {
			if f := c.SeqFloor(); f > m {
				m = f
			}
		}
		return m
	}
	frontierCovers := func() bool {
		for id := 1; id <= cl.N; id++ {
			if cl.Replicas[id].LastStable() < maxFloor() {
				return false
			}
		}
		return true
	}
	for i := 0; i < 40 && !frontierCovers(); i++ {
		fr := cl.RunClosedLoop(1, func(client, j int) []byte {
			return kvstore.Put(fmt.Sprintf("fill/c%d/k%d", client, i), []byte("x"))
		}, 10*time.Minute)
		if fr.Completed != readBenchClients {
			b.Fatalf("filler round %d completed %d of %d", i, fr.Completed, readBenchClients)
		}
	}
	advanceUntil("frontier catch-up", frontierCovers)

	// Closed-loop GET phase, timed to its last completion: the simulator
	// runs on past it (timers, checkpoints) before advanceUntil looks.
	var completed, fallbacks uint64
	var lastDone time.Duration
	salt := uint64(0)
	issue := func(ci int) {
		c := cl.Clients[ci]
		salt++
		op := kvstore.GetUnique(fmt.Sprintf("bench/c%d", ci), salt)
		var err error
		switch mode {
		case readModeOrdered:
			err = c.Submit(op)
		case readModeSingle:
			err = c.SubmitReadAt(op, 1)
		default:
			err = c.SubmitRead(op)
		}
		if err != nil {
			b.Fatalf("client %d issue: %v", ci, err)
		}
	}
	issued := make([]int, readBenchClients)
	for ci := range cl.Clients {
		ci := ci
		c := cl.Clients[ci]
		next := func() {
			completed++
			lastDone = cl.Sched.Now()
			if issued[ci] < readBenchOps {
				issued[ci]++
				issue(ci)
			}
		}
		if mode == readModeOrdered {
			c.SetOnResult(func(core.Result) { next() })
		} else {
			c.SetOnResult(func(core.Result) {}) // populate hooks are stale
			c.SetOnReadResult(func(r core.ReadResult) {
				if r.Ordered {
					fallbacks++
				}
				next()
			})
		}
	}
	start := cl.Sched.Now()
	for ci := range cl.Clients {
		issued[ci] = 1
		issue(ci)
	}
	total := uint64(readBenchClients * readBenchOps)
	advanceUntil("GET phase", func() bool { return completed >= total })
	elapsed := lastDone - start
	if elapsed <= 0 {
		b.Fatal("GET phase consumed no simulated time")
	}
	if mode != readModeOrdered && fallbacks > 0 {
		b.Fatalf("%d certified reads fell back to the ordering path with a covering frontier", fallbacks)
	}
	return float64(total) / elapsed.Seconds()
}

func BenchmarkReadThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ordered := readBenchThroughput(b, readModeOrdered)
		single := readBenchThroughput(b, readModeSingle)
		spread := readBenchThroughput(b, readModeSpread)
		if i == 0 {
			for point, v := range map[string]float64{
				"n=4/ordered":          ordered,
				"n=4/certified/single": single,
				"n=4/certified/spread": spread,
			} {
				if err := readsJSON.Record(point, v); err != nil {
					b.Fatalf("recording %s: %v", point, err)
				}
			}
			b.Logf("n=4 GETs: ordered %.0f op/s, certified single-replica %.0f op/s (%.1fx), spread %.0f op/s (%.1fx)",
				ordered, single, single/ordered, spread, spread/ordered)
		}
		// The regression gate: a consensus-free certified read from ONE
		// replica must beat ordering every GET through the protocol ≥2×.
		if single < 2*ordered {
			b.Fatalf("certified single-replica reads %.0f op/s < 2x ordered %.0f op/s (%.1fx)", single, ordered, single/ordered)
		}
	}
}
