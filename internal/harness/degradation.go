package harness

import (
	"bytes"
	"fmt"
	"time"

	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/sim"
)

// This file quantifies graceful degradation (ROADMAP item 4): the paper's
// §V-E dual-mode argument is that losing the fast path costs throughput,
// never correctness or liveness. MeasureDegradation runs the SAME seeded
// workload healthy and under each adaptive role-targeting attack, and
// reports per-condition throughput, latency and the fallback counters
// that prove the attack actually engaged — so tests and benchmarks can
// assert "the forced linear fallback costs ≤ X×, never loses liveness"
// instead of merely "nothing diverged".

// DegradationPoint is one measured condition: the healthy baseline or one
// adaptive attack held for the whole run.
type DegradationPoint struct {
	// Name is "healthy" or the attack kind's string form.
	Name string
	// Completed / Expected count client operations; liveness holds iff
	// they are equal.
	Completed, Expected uint64
	Throughput          float64 // ops per second of virtual time
	MeanLatency         time.Duration
	P95Latency          time.Duration
	// Metrics aggregates the cluster's replica counters; under a fast-path
	// attack FastPathDowngrades and CollectorTimeouts prove engagement.
	Metrics core.Metrics
	// SafetyOK reports whether all live replicas at equal execution
	// frontiers held identical app digests after the run.
	SafetyOK bool
}

// LivenessOK reports whether every expected client operation completed.
func (p *DegradationPoint) LivenessOK() bool { return p.Completed == p.Expected }

// DegradationReport holds the healthy baseline and the attack conditions
// of one MeasureDegradation sweep.
type DegradationReport struct {
	N      int
	Points []DegradationPoint
}

// Point returns the named condition, or nil.
func (r *DegradationReport) Point(name string) *DegradationPoint {
	for i := range r.Points {
		if r.Points[i].Name == name {
			return &r.Points[i]
		}
	}
	return nil
}

// Slowdown returns healthy throughput divided by the named condition's
// throughput (1.0 = no degradation; 0 if either is unmeasurable).
func (r *DegradationReport) Slowdown(name string) float64 {
	h, p := r.Point("healthy"), r.Point(name)
	if h == nil || p == nil || h.Throughput == 0 || p.Throughput == 0 {
		return 0
	}
	return h.Throughput / p.Throughput
}

// healthyCondition is the sentinel for the no-attack baseline run.
const healthyCondition = cluster.FaultKind(-1)

// degradationAttacks are the measured conditions beyond the baseline.
var degradationAttacks = [...]cluster.FaultKind{
	cluster.FaultAttackCollectors,
	cluster.FaultAttackFastPath,
	cluster.FaultAttackPartition,
}

// MeasureDegradation runs the seeded closed-loop workload once healthy
// and once under each adaptive attack on a fresh f/c-sized cluster.
// Paper-scale shapes (n ≥ 9) run under the scaled crypto cost model, as
// in the §IX experiments. The attack retargets at a cadence the recovery
// timeouts can absorb (see ColludingGen) and stays armed for the whole
// run; every condition reuses the same seed so the only variable is the
// adversary.
func MeasureDegradation(f, c int, seed int64, opsPerClient int) (*DegradationReport, error) {
	n := 3*f + 2*c + 1
	rep := &DegradationReport{N: n}
	conditions := make([]cluster.FaultKind, 0, 1+len(degradationAttacks))
	conditions = append(conditions, healthyCondition)
	conditions = append(conditions, degradationAttacks[:]...)
	for _, kind := range conditions {
		p, err := measureOne(f, c, seed, opsPerClient, kind)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, *p)
	}
	return rep, nil
}

func measureOne(f, c int, seed int64, opsPerClient int, kind cluster.FaultKind) (*DegradationPoint, error) {
	opts := cluster.Options{
		Protocol: cluster.ProtoSBFT,
		F:        f, C: c,
		Clients:       2,
		Seed:          seed,
		ClientTimeout: 2 * time.Second,
		Tune: func(cc *core.Config) {
			cc.FastPathTimeout = 50 * time.Millisecond
			cc.ExecFallbackTimeout = 200 * time.Millisecond
			cc.ViewChangeTimeout = time.Second
		},
	}
	if 3*f+2*c+1 >= 9 {
		cm := cluster.DefaultCosts().ScaledCrypto(3)
		opts.Costs = &cm
	}
	cl, err := cluster.New(opts)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	name := "healthy"
	if kind != healthyCondition {
		name = kind.String()
		if err := cl.StartAdaptiveAttack(kind, 750*time.Millisecond); err != nil {
			return nil, err
		}
	}
	res := cl.RunClosedLoop(opsPerClient, UniqueKVGen, 30*time.Minute)
	p := &DegradationPoint{
		Name:        name,
		Completed:   res.Completed,
		Expected:    uint64(opsPerClient * opts.Clients),
		Throughput:  res.Throughput,
		MeanLatency: res.MeanLatency,
		P95Latency:  res.P95Latency,
		Metrics:     cl.Metrics(),
		SafetyOK:    degradationSafety(cl),
	}
	return p, nil
}

// degradationSafety is the test-independent form of the state agreement
// check: every live replica that executed to the same frontier must hold
// the same application state.
func degradationSafety(cl *cluster.Cluster) bool {
	byFrontier := make(map[uint64][]byte)
	for id := 1; id <= cl.N; id++ {
		if cl.Net.Crashed(sim.NodeID(id)) || cl.IsByzantine(id) {
			continue
		}
		le := cl.Replicas[id].LastExecuted()
		d := stateRoot(cl.Apps[id])
		if prev, ok := byFrontier[le]; ok && !bytes.Equal(prev, d) {
			return false
		}
		byFrontier[le] = d
	}
	return true
}

// String renders the report as a compact table for logs.
func (r *DegradationReport) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "degradation n=%d:", r.N)
	for i := range r.Points {
		p := &r.Points[i]
		fmt.Fprintf(&b, " [%s %d/%d %.1fops/s p95=%v]", p.Name, p.Completed, p.Expected, p.Throughput, p.P95Latency)
	}
	return b.String()
}
