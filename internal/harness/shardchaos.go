package harness

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/shard"
)

// Sharded chaos: randomized multi-group runs mixing single-shard
// operations with cross-shard transactions under faulty coordinators
// (crash, equivocation, dropped certificates) and in-group replica
// crashes, followed by a recovery sweep and a cross-shard atomicity
// audit. The per-group safety audit (identical execution across honest
// replicas) still applies — a sharded deployment is k ordinary SBFT
// groups underneath.

// ShardScenario describes one sharded chaos run.
type ShardScenario struct {
	Name string
	// Opts configures the sharded deployment (the harness overlays
	// WrapApp with its execution recorders).
	Opts shard.Options
	// TxsPerLane is how many cross-shard transactions each lane drives;
	// single-shard puts interleave between them.
	TxsPerLane int
	// Modes assigns coordinator behavior per transaction index (cycled).
	// Empty means all honest.
	Modes []shard.CoordMode
	// Contend, when set, makes each lane's transaction 1 write one SHARED
	// contested key, forcing lock conflicts and real aborts.
	Contend bool
	// GroupFaults, when set, crashes one backup per group mid-run and
	// heals it (inside the per-group f = 1 budget).
	GroupFaults bool
	// Budget bounds the whole drive phase in shared virtual time.
	Budget time.Duration
	// Settle runs the deployment beyond the workload and recovery sweep.
	Settle time.Duration
}

// txRecord tracks one driven transaction for the audit.
type txRecord struct {
	tx   shard.Tx
	mode shard.CoordMode
	keys map[int][]string // shard → written keys
	// contested marks transactions writing the shared contended key: a
	// LATER committed transaction may overwrite it, so the audit cannot
	// demand the value still matches this transaction.
	contested bool
	outcome   shard.TxOutcome
	settled   bool
}

// ShardReport is the outcome of one sharded chaos run.
type ShardReport struct {
	Scenario  string
	Seed      int64
	Shards    int
	Txs       int
	Committed int
	Aborted   int
	Recovered int
	SingleOps int
	// Violations lists cross-shard atomicity failures.
	Violations []string
	// GroupAudits holds the per-group replica-agreement audits.
	GroupAudits []*Audit
	Metrics     core.Metrics
}

// Failed reports whether the run violated cross-shard atomicity or any
// group's internal safety audit.
func (r *ShardReport) Failed() bool {
	if len(r.Violations) > 0 {
		return true
	}
	for _, a := range r.GroupAudits {
		if a != nil && !a.OK() {
			return true
		}
	}
	return false
}

// Summary renders a one-line outcome.
func (r *ShardReport) Summary() string {
	status := "ok"
	if r.Failed() {
		status = "FAIL"
	}
	s := fmt.Sprintf("%s seed=%d %s: k=%d, %d txs (%d committed, %d aborted, %d recovered), %d single ops",
		r.Scenario, r.Seed, status, r.Shards, r.Txs, r.Committed, r.Aborted, r.Recovered, r.SingleOps)
	for _, v := range r.Violations {
		s += "; " + v
	}
	for g, a := range r.GroupAudits {
		if a != nil {
			for _, d := range a.Divergences {
				s += fmt.Sprintf("; group %d: %s", g, d)
			}
		}
	}
	if r.Metrics.StoreErrors > 0 || r.Metrics.CaptureFailures > 0 {
		s += fmt.Sprintf("; StoreErrors=%d CaptureFailures=%d", r.Metrics.StoreErrors, r.Metrics.CaptureFailures)
	}
	return s
}

// shardKeyOn deterministically finds a key with the given prefix routing
// to shard g.
func shardKeyOn(prefix string, g, k int) string {
	for salt := 0; ; salt++ {
		key := fmt.Sprintf("%s.%d", prefix, salt)
		if shard.Route(key, k) == g {
			return key
		}
	}
}

// laneDriver walks one lane through its job list.
type laneDriver struct {
	jobs []func(next func())
	idx  int
	done bool
}

func (d *laneDriver) next() {
	if d.idx >= len(d.jobs) {
		d.done = true
		return
	}
	job := d.jobs[d.idx]
	d.idx++
	job(d.next)
}

// RunShardScenario executes one sharded chaos run end to end: build the
// deployment with recording applications, apply in-group faults, drive
// every lane's mix of single-shard puts and cross-shard transactions,
// recover every transaction left undecided, settle, and audit.
func RunShardScenario(s ShardScenario) (*ShardReport, error) {
	k := s.Opts.Shards
	recorders := make([]map[int]*Recorder, k)
	for g := range recorders {
		recorders[g] = make(map[int]*Recorder)
	}
	opts := s.Opts
	userWrap := opts.WrapApp
	opts.WrapApp = func(g, id int, app core.Application) core.Application {
		if userWrap != nil {
			app = userWrap(g, id, app)
		}
		rec := NewRecorder(app)
		recorders[g][id] = rec
		return rec
	}
	sc, err := shard.New(opts)
	if err != nil {
		return nil, fmt.Errorf("harness: building sharded cluster: %w", err)
	}
	defer sc.Close()

	report := &ShardReport{Scenario: s.Name, Seed: s.Opts.Seed, Shards: k}

	// In-group faults: crash the highest-id backup of every group, heal
	// it mid-run (each group tolerates f = 1).
	if s.GroupFaults {
		for _, cl := range sc.Topo.Groups {
			n := cl.N
			cl.Apply(cluster.Schedule{
				{At: 200 * time.Millisecond, Kind: cluster.FaultCrash, Node: n},
				{At: 1500 * time.Millisecond, Kind: cluster.FaultRecover, Node: n},
			})
		}
	}

	// Per-group ack logs for the per-group safety audits.
	acks := make([][]Ack, k)
	record := func(g int, res core.Result, clientID int) {
		acks[g] = append(acks[g], Ack{
			Client:    clientID,
			Timestamp: res.Timestamp,
			Seq:       res.Seq,
			Op:        res.Op,
			Val:       res.Val,
		})
	}

	var txs []*txRecord
	var pendingRecovery []*txRecord
	drivers := make([]*laneDriver, s.Opts.Lanes)
	for lane := 0; lane < s.Opts.Lanes; lane++ {
		lane := lane
		d := &laneDriver{}
		for i := 0; i < s.TxsPerLane; i++ {
			i := i
			// Interleave a single-shard put before each transaction.
			g := (lane + i) % k
			putKey := shardKeyOn(fmt.Sprintf("solo/%d/%d/%d", s.Opts.Seed, lane, i), g, k)
			putOp := kvstore.Put(putKey, []byte(fmt.Sprintf("s%d.%d", lane, i)))
			d.jobs = append(d.jobs, func(next func()) {
				if err := sc.Submit(g, lane, putOp, func(res core.Result) {
					record(g, res, sc.Topo.Groups[g].Clients[lane].ID())
					report.SingleOps++
					next()
				}); err != nil {
					next()
				}
			})

			// Cross-shard transaction: one write per shard (unique keys),
			// optionally contending on a shared key for transaction 1.
			txid := fmt.Sprintf("tx/%d/%d/%d", s.Opts.Seed, lane, i)
			rec := &txRecord{keys: make(map[int][]string)}
			var writes [][]byte
			for g := 0; g < k; g++ {
				key := shardKeyOn(fmt.Sprintf("txk/%d/%d/%d/%d", s.Opts.Seed, lane, i, g), g, k)
				if s.Contend && i == 1 {
					// Same contested key for every lane: real lock conflicts.
					key = shardKeyOn(fmt.Sprintf("contend/%d", s.Opts.Seed), g, k)
					rec.contested = true
				}
				rec.keys[g] = append(rec.keys[g], key)
				writes = append(writes, kvstore.Put(key, []byte(txid)))
			}
			rec.tx = shard.Tx{ID: txid, Writes: writes}
			if len(s.Modes) > 0 {
				rec.mode = s.Modes[i%len(s.Modes)]
			}
			txs = append(txs, rec)
			d.jobs = append(d.jobs, func(next func()) {
				co := &shard.Coordinator{SC: sc, Lane: lane, Mode: rec.mode}
				if err := co.Start(rec.tx, func(out shard.TxOutcome) {
					rec.outcome = out
					rec.settled = !out.Pending
					if out.Pending {
						pendingRecovery = append(pendingRecovery, rec)
					}
					next()
				}); err != nil {
					rec.outcome = shard.TxOutcome{Pending: true}
					pendingRecovery = append(pendingRecovery, rec)
					next()
				}
			})
		}
		drivers[lane] = d
	}

	// Kick every lane and advance the lockstep clock until all drain.
	for _, d := range drivers {
		d.next()
	}
	budget := s.Budget
	if budget <= 0 {
		budget = 5 * time.Minute
	}
	allDone := func() bool {
		for _, d := range drivers {
			if !d.done {
				return false
			}
		}
		return true
	}
	if !sc.Topo.RunUntil(allDone, budget) {
		report.Violations = append(report.Violations, "drive phase did not drain within budget")
	}

	// Recovery sweep: any party can finish an abandoned transaction.
	for _, rec := range pendingRecovery {
		co := &shard.Coordinator{SC: sc, Lane: 0, Mode: shard.CoordHonest}
		out, err := co.Recover(rec.tx)
		if err != nil {
			report.Violations = append(report.Violations,
				fmt.Sprintf("recovery of %s failed: %v", rec.tx.ID, err))
			continue
		}
		rec.outcome = out
		rec.settled = true
		report.Recovered++
	}

	settle := s.Settle
	if settle <= 0 {
		settle = 30 * time.Second
	}
	sc.Topo.Run(settle)

	report.Txs = len(txs)
	report.Violations = append(report.Violations, AuditShards(sc, txs)...)
	for _, rec := range txs {
		if rec.outcome.Committed {
			report.Committed++
		}
		if rec.outcome.Aborted {
			report.Aborted++
		}
	}
	// Prepares are idempotent by design — refetch and recovery resubmit
	// byte-identical prepare ops, so the per-group re-execution audit must
	// exempt exactly those hashes (and nothing else: commit/abort ops
	// embed fresh certificates, so they never repeat byte-for-byte).
	repeatable := make(map[[32]byte]bool)
	for _, rec := range txs {
		split, err := shard.SplitWrites(rec.tx.Writes, k)
		if err != nil {
			continue
		}
		parts := shard.Participants(split)
		for _, p := range parts {
			repeatable[sha256.Sum256(kvstore.TxPrepare(rec.tx.ID, parts, split[p]...))] = true
		}
	}
	for g, cl := range sc.Topo.Groups {
		report.GroupAudits = append(report.GroupAudits, AuditCluster(cl, recorders[g], acks[g], repeatable))
	}
	report.Metrics = sc.Metrics()
	return report, nil
}

// AuditShards checks cross-shard atomicity over the driven transactions:
//
//  1. AGREEMENT — no transaction is committed on one participant and
//     aborted on another (the equivocation target).
//  2. NO LIMBO — after the recovery sweep, no participant still holds
//     the transaction prepared.
//  3. ALL-OR-NOTHING EFFECTS — a committed transaction's writes are
//     visible on their owning shards; an aborted transaction's writes
//     (unique values) never surface.
//  4. NO LOCK LEAKS — no shard's frontier store holds any prepared-write
//     lock once everything settled.
func AuditShards(sc *shard.Cluster, txs []*txRecord) []string {
	var violations []string
	k := sc.Opts.Shards
	for _, rec := range txs {
		committed, aborted, prepared := 0, 0, 0
		for g := 0; g < k; g++ {
			if len(rec.keys[g]) == 0 {
				continue
			}
			switch sc.FrontierStore(g).TxState(rec.tx.ID) {
			case "committed":
				committed++
			case "aborted":
				aborted++
			case "prepared":
				prepared++
			}
		}
		if committed > 0 && aborted > 0 {
			violations = append(violations,
				fmt.Sprintf("atomicity: %s committed on %d shard(s) and aborted on %d", rec.tx.ID, committed, aborted))
		}
		if prepared > 0 {
			violations = append(violations,
				fmt.Sprintf("limbo: %s still prepared on %d shard(s) after recovery", rec.tx.ID, prepared))
		}
		for g, keys := range rec.keys {
			st := sc.FrontierStore(g)
			for _, key := range keys {
				v, found := st.Value(key)
				written := found && string(v) == rec.tx.ID
				if committed > 0 && aborted == 0 && !written && !rec.contested {
					violations = append(violations,
						fmt.Sprintf("effects: committed %s missing write %q on shard %d", rec.tx.ID, key, g))
				}
				if aborted > 0 && committed == 0 && written {
					violations = append(violations,
						fmt.Sprintf("effects: aborted %s applied write %q on shard %d", rec.tx.ID, key, g))
				}
			}
		}
	}
	for g := 0; g < k; g++ {
		if locks := sc.FrontierStore(g).LockedKeys(); len(locks) > 0 {
			violations = append(violations,
				fmt.Sprintf("locks: shard %d leaked %d lock(s): %v", g, len(locks), locks))
		}
	}
	return violations
}

// ShardGen generates a deterministic sharded chaos scenario from a seed:
// k cycles between 2 and 3, coordinator modes mix honest with crash,
// equivocation and dropped certificates, odd seeds contend on a shared
// key, and half the seeds crash-and-heal one backup per group.
func ShardGen(seed int64) ShardScenario {
	rng := rand.New(rand.NewSource(seed*0x9e3779b9 + 0x51d5))
	k := 2
	if seed%4 == 3 {
		k = 3
	}
	modePool := []shard.CoordMode{
		shard.CoordHonest,
		shard.CoordCrash,
		shard.CoordEquivocate,
		shard.CoordDropCert,
	}
	modes := make([]shard.CoordMode, 3)
	for i := range modes {
		modes[i] = modePool[rng.Intn(len(modePool))]
	}
	return ShardScenario{
		Name: fmt.Sprintf("shard-chaos-k%d", k),
		Opts: shard.Options{
			Shards:        k,
			F:             1,
			Lanes:         2,
			Seed:          seed,
			ClientTimeout: time.Second,
		},
		TxsPerLane:  3,
		Modes:       modes,
		Contend:     seed%2 == 1,
		GroupFaults: rng.Float64() < 0.5,
	}
}

// RunShardChaos sweeps ShardGen-style scenarios across seeds.
func RunShardChaos(seeds []int64, gen func(seed int64) ShardScenario, observe ...func(seed int64, rep *ShardReport, err error)) *ChaosReport {
	cr := &ChaosReport{Errors: make(map[int64]error)}
	for _, seed := range seeds {
		cr.Runs++
		rep, err := RunShardScenario(gen(seed))
		for _, ob := range observe {
			ob(seed, rep, err)
		}
		if err != nil {
			cr.Errors[seed] = err
			cr.note(seed, nil)
			continue
		}
		if rep.Failed() {
			cr.note(seed, nil)
		}
	}
	return cr
}
