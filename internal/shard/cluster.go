package shard

import (
	"fmt"
	"time"

	"sbft/internal/apps"
	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/kvstore"
)

// Options configures a sharded KV deployment.
type Options struct {
	// Shards is the group count k (≥ 1).
	Shards int
	// F and C size every group (n = 3f+2c+1 each).
	F, C int
	// Lanes is the number of clients PER GROUP. A cross-shard coordinator
	// occupies the same lane index on every participant group, so Lanes
	// bounds the number of concurrent coordinators.
	Lanes int
	// Seed drives all randomness (per-group seeds derive from it).
	Seed int64
	// WAN gives each group the world-scale network model.
	WAN bool
	// Quantum is the lockstep step (0 = default).
	Quantum time.Duration
	// Batch overrides the per-group block batch size.
	Batch int
	// ClientTimeout overrides the client retry timeout.
	ClientTimeout time.Duration
	// WrapApp, when set, wraps each replica's application AFTER sharding
	// is enabled on its store (the chaos harness installs its execution
	// recorders here).
	WrapApp func(g, id int, app core.Application) core.Application
}

// Cluster is a running sharded deployment: a lockstep multi-group
// topology whose stores are partitioned, certificate-verifying 2PC
// participants.
type Cluster struct {
	Opts Options
	// Topo is the underlying k-group lockstep substrate.
	Topo *cluster.Sharded
	// Stores indexes every replica's partitioned store as [group][replica
	// id] (replica ids are 1-based; index 0 is nil). Captured before any
	// WrapApp layering, so auditors reach the real store.
	Stores [][]*kvstore.Store
	// Failovers counts completed coordinator recoveries (Recover calls
	// that drove an abandoned transaction to a decision).
	Failovers uint64

	pending [][]func(core.Result) // [group][lane] completion continuation
}

// New builds a sharded deployment of k SBFT groups over the KV app.
func New(opts Options) (*Cluster, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", opts.Shards)
	}
	if opts.Lanes < 1 {
		opts.Lanes = 1
	}
	sc := &Cluster{Opts: opts}
	sc.Stores = make([][]*kvstore.Store, opts.Shards)
	verify := sc.certVerify // bound before Topo exists; only called during later execution
	topo, err := cluster.NewShardedCluster(cluster.ShardedOptions{
		Shards:  opts.Shards,
		WAN:     opts.WAN,
		Quantum: opts.Quantum,
		Base: cluster.Options{
			Protocol:      cluster.ProtoSBFT,
			F:             opts.F,
			C:             opts.C,
			App:           cluster.AppKV,
			Clients:       opts.Lanes,
			Seed:          opts.Seed,
			Batch:         opts.Batch,
			ClientTimeout: opts.ClientTimeout,
		},
		PerGroup: func(g int, o *cluster.Options) {
			o.WrapApp = func(id int, app core.Application) core.Application {
				if kv, ok := app.(*apps.KVApp); ok {
					kv.Store.EnableSharding(g, opts.Shards, verify)
					for len(sc.Stores[g]) <= id {
						sc.Stores[g] = append(sc.Stores[g], nil)
					}
					sc.Stores[g][id] = kv.Store
				}
				if opts.WrapApp != nil {
					app = opts.WrapApp(g, id, app)
				}
				return app
			}
		},
	})
	if err != nil {
		return nil, err
	}
	sc.Topo = topo

	// Lane dispatch: each client's completion routes to the continuation
	// registered by the submit that used it. Everything runs on the single
	// lockstep thread, so no locking.
	sc.pending = make([][]func(core.Result), opts.Shards)
	for g, cl := range topo.Groups {
		sc.pending[g] = make([]func(core.Result), len(cl.Clients))
		for lane, c := range cl.Clients {
			g, lane, c := g, lane, c
			c.SetOnResult(func(res core.Result) {
				cont := sc.pending[g][lane]
				sc.pending[g][lane] = nil
				if cont != nil {
					cont(res)
				}
			})
		}
	}
	return sc, nil
}

// certVerify is the hub's kvstore.CertVerifier: the commit rule every
// replica of every group applies to the OTHER groups' certificates. It
// decodes the alleged execute certificate, verifies it under the ISSUING
// group's π public key and proof verifier (each group has distinct
// threshold keys — a certificate from shard 2 cannot pass as shard 1
// evidence), checks it certifies a prepare of exactly this transaction,
// and classifies the certified result value.
func (sc *Cluster) certVerify(shard int, txid string, wantPrepared bool, cert []byte) error {
	if shard < 0 || shard >= len(sc.Topo.Groups) {
		return fmt.Errorf("shard: no such shard %d", shard)
	}
	ec, err := core.DecodeExecuteCert(cert)
	if err != nil {
		return err
	}
	suite := sc.Topo.Groups[shard].Suite
	if err := core.VerifyExecuteCert(suite.Pi, apps.VerifyKV, ec); err != nil {
		return err
	}
	op, err := kvstore.DecodeOp(ec.Op)
	if err != nil {
		return err
	}
	if op.Kind != kvstore.OpTxPrepare {
		return fmt.Errorf("shard: certificate is not over a prepare (kind %d)", op.Kind)
	}
	if op.Key != txid {
		return fmt.Errorf("shard: certificate binds tx %q, want %q", op.Key, txid)
	}
	if wantPrepared && !kvstore.PreparedVal(ec.Val) {
		return fmt.Errorf("shard: certified result %q is not commit evidence", ec.Val)
	}
	if !wantPrepared && !kvstore.RefusalVal(ec.Val) {
		return fmt.Errorf("shard: certified result %q is not a refusal", ec.Val)
	}
	return nil
}

// Submit sends op through group g's lane client and registers the
// completion continuation. The lane must be idle.
func (sc *Cluster) Submit(g, lane int, op []byte, cont func(core.Result)) error {
	if g < 0 || g >= len(sc.Topo.Groups) {
		return fmt.Errorf("shard: no such shard %d", g)
	}
	if lane < 0 || lane >= len(sc.pending[g]) {
		return fmt.Errorf("shard: no such lane %d", lane)
	}
	if sc.pending[g][lane] != nil {
		return fmt.Errorf("shard: lane %d busy on shard %d", lane, g)
	}
	sc.pending[g][lane] = cont
	if err := sc.Topo.Groups[g].Clients[lane].Submit(op); err != nil {
		sc.pending[g][lane] = nil
		return err
	}
	return nil
}

// Do runs a single operation on one shard synchronously (advancing the
// lockstep clock until it completes) and returns its result.
func (sc *Cluster) Do(g, lane int, op []byte, budget time.Duration) (core.Result, error) {
	var out *core.Result
	if err := sc.Submit(g, lane, op, func(res core.Result) { out = &res }); err != nil {
		return core.Result{}, err
	}
	if !sc.Topo.RunUntil(func() bool { return out != nil }, budget) {
		return core.Result{}, fmt.Errorf("shard: op on shard %d did not complete in %v", g, budget)
	}
	return *out, nil
}

// FrontierStore returns a store of group g holding the most advanced
// executed state (replicas may trail after faults; auditors want the
// frontier view).
func (sc *Cluster) FrontierStore(g int) *kvstore.Store {
	var best *kvstore.Store
	for _, st := range sc.Stores[g] {
		if st == nil {
			continue
		}
		if best == nil || st.LastExecuted() > best.LastExecuted() {
			best = st
		}
	}
	return best
}

// Metrics sums replica metrics across every group and overlays the
// deployment-level coordinator failover count.
func (sc *Cluster) Metrics() core.Metrics {
	var m core.Metrics
	for _, cl := range sc.Topo.Groups {
		gm := cl.Metrics()
		m.FastCommits += gm.FastCommits
		m.SlowCommits += gm.SlowCommits
		m.Executions += gm.Executions
		m.ViewChanges += gm.ViewChanges
		m.Checkpoints += gm.Checkpoints
		m.StateFetches += gm.StateFetches
		m.NullBlocks += gm.NullBlocks
		m.CollectorTimeouts += gm.CollectorTimeouts
		m.FastPathDowngrades += gm.FastPathDowngrades
		m.ExecFallbacks += gm.ExecFallbacks
		m.ViewRejoins += gm.ViewRejoins
		m.ReadsServed += gm.ReadsServed
		m.ReadsBehind += gm.ReadsBehind
		m.ReadsUnavailable += gm.ReadsUnavailable
		m.ReadBatches += gm.ReadBatches
		m.TxPrepares += gm.TxPrepares
		m.TxCommits += gm.TxCommits
		m.TxAborts += gm.TxAborts
		m.StoreErrors += gm.StoreErrors
		m.CaptureFailures += gm.CaptureFailures
	}
	m.TxCoordFailovers = sc.Failovers
	return m
}

// Close releases every group's resources.
func (sc *Cluster) Close() error { return sc.Topo.Close() }
