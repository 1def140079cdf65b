package cluster

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/evm"
	"sbft/internal/kvstore"
	"sbft/internal/pbft"
	"sbft/internal/sim"
	"sbft/internal/storage"
)

// Protocol selects the replication engine variant.
type Protocol int

// The paper's five protocol configurations (§IX).
const (
	ProtoPBFT Protocol = iota
	ProtoLinearPBFT
	ProtoLinearFast
	ProtoSBFT
)

// String names the protocol like the paper's figures.
func (p Protocol) String() string {
	switch p {
	case ProtoPBFT:
		return "PBFT"
	case ProtoLinearPBFT:
		return "Linear-PBFT"
	case ProtoLinearFast:
		return "Linear-PBFT+Fast"
	case ProtoSBFT:
		return "SBFT"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// AppKind selects the replicated application.
type AppKind int

// Applications used in the evaluation: the key-value micro-benchmark and
// the EVM smart-contract ledger.
const (
	AppKV AppKind = iota
	AppEVM
)

// Options configures a simulated deployment.
type Options struct {
	Protocol Protocol
	F        int
	C        int // SBFT redundant servers; ignored for other protocols
	App      AppKind
	// Clients is the number of closed-loop clients.
	Clients int
	// NetCfg is the WAN model; defaults to ContinentProfile(Seed).
	NetCfg *sim.Config
	// Seed drives all simulation randomness.
	Seed int64
	// Batch overrides the block batch size (0 keeps the default 64).
	Batch int
	// ClientTimeout is the client's §V-A retry timeout (0 = default 4s).
	ClientTimeout time.Duration
	// Costs overrides the per-message CPU model (nil = DefaultCosts).
	Costs *CostModel
	// Tune mutates the SBFT config after defaults are applied.
	Tune func(*core.Config)
	// TunePBFT mutates the PBFT config after defaults are applied.
	TunePBFT func(*pbft.Config)
	// GenesisEVM, when App == AppEVM, runs against every replica's ledger
	// before the protocol starts (e.g. minting balances, deploying the
	// token contract deterministically).
	GenesisEVM func(app *apps.EVMApp)
	// Persist gives every SBFT-variant replica a durable storage.Ledger
	// block store, enabling RestartReplica (restart-from-storage). The
	// data lives in a temporary directory removed by Close. A persisted
	// SBFT replica also gets an asynchronous core.SnapshotSink: the encode
	// and disk write land after snapshotPersistDelay of virtual time, off
	// the checkpoint critical path, and a crash can race the durable write
	// — exactly the window the chaos sweeps should exercise.
	Persist bool
	// CryptoPool, when positive, gives every SBFT-variant replica a
	// modeled pool of that many crypto workers (a deterministic
	// core.CryptoSink advancing in virtual time): share verification and
	// signature combination move off the replica's event loop onto
	// per-worker busy horizons, and the cost model stops charging them
	// on message receipt. 0 keeps the synchronous inline path — the
	// baseline the throughput benchmarks compare against.
	CryptoPool int
	// WrapApp, when set, wraps each replica's application (e.g. with the
	// chaos harness's execution recorder) before the replica is built.
	WrapApp func(id int, app core.Application) core.Application
}

// Node is a protocol event machine attachable to the simulator.
type Node interface {
	Deliver(from int, msg any)
}

// Cluster is a fully wired simulated deployment.
type Cluster struct {
	Opts    Options
	Sched   *sim.Scheduler
	Net     *sim.Network
	N       int
	Suite   core.CryptoSuite
	Cfg     core.Config // valid unless Protocol == ProtoPBFT
	PBFTCfg pbft.Config // valid when Protocol == ProtoPBFT

	Replicas     []*core.Replica // nil entries when PBFT
	PBFTReplicas []*pbft.Replica // nil entries when SBFT variants
	Apps         []core.Application
	Clients      []*core.Client
	// Stores holds each replica's durable block store when Opts.Persist
	// is set (1-based; nil entries for PBFT).
	Stores []*storage.Ledger

	// OnResult, when set, observes every completed client operation during
	// RunClosedLoop (client id, result) — the safety auditor's ack log.
	OnResult func(clientID int, res core.Result)

	// FaultErrors collects failures from scheduled fault steps (e.g. a
	// RestartReplica that could not reopen its store). Scheduled callbacks
	// cannot return errors, so they accumulate here for the caller.
	FaultErrors []error

	dataDir string // cluster-owned temp dir when Opts.Persist is set
	keys    []core.ReplicaKeys
	envs    []*env
	// costs is the effective CPU model; the crypto-pool sinks price
	// their work from it.
	costs CostModel
	// byzantine marks replicas a Byzantine fault kind has armed at any
	// point. The mark is sticky: the safety audit must not hold Byzantine
	// replicas to honest-replica invariants even after a FaultByzRestore.
	byzantine map[int]bool
	// attacker is the active adaptive role-targeting attacker, if any
	// (StartAdaptiveAttack / StopAdaptiveAttack).
	attacker *roleAttacker
}

// env adapts one node id to core.Env over the simulator. A replica
// restart kills its env: a dead env drops sends and suppresses pending
// timer callbacks, modeling process death (the replaced replica's timers
// must not act under the restarted node's identity).
type env struct {
	id    int
	net   *sim.Network
	sched *sim.Scheduler
	dead  bool
}

var _ core.Env = (*env)(nil)

func (e *env) Send(to int, msg core.Message) {
	if e.dead {
		return
	}
	e.net.Send(sim.NodeID(e.id), sim.NodeID(to), msg)
}

func (e *env) Now() time.Duration { return e.sched.Now() }

func (e *env) After(d time.Duration, fn func()) func() {
	return e.sched.Schedule(d, func() {
		if e.dead {
			return
		}
		fn()
	})
}

// ledgerSink is the simulated cluster's core.SnapshotSink: certified
// snapshots are encoded and written to the replica's storage.Ledger after
// a modeled disk delay, scheduled on the deterministic event loop. The
// simulator has no real threads — what matters is that adoption no longer
// waits for persistence, and that a crash or restart can land between
// adoption and the durable write (a dead env suppresses the pending
// write, exactly like a process dying mid-write; the replica then re-serves
// from its previous durable snapshot).
type ledgerSink struct {
	env *env
	led *storage.Ledger
}

// snapshotPersistDelay is the modeled disk hand-off latency of the async
// snapshot sink, in virtual time.
const snapshotPersistDelay = 2 * time.Millisecond

// PersistSnapshot implements core.SnapshotSink.
func (s *ledgerSink) PersistSnapshot(cs *core.CertifiedSnapshot, keepFrom uint64, done func(error)) {
	s.env.After(snapshotPersistDelay, func() {
		done(core.PersistCertified(s.led, cs, keepFrom))
	})
}

// handler adapts Node to sim.Handler.
type handler struct{ n Node }

func (h handler) Deliver(from sim.NodeID, msg any) { h.n.Deliver(int(from), msg) }

// New builds a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.F < 1 {
		return nil, fmt.Errorf("cluster: F must be ≥ 1")
	}
	if opts.Clients < 0 {
		return nil, fmt.Errorf("cluster: negative client count")
	}
	cl := &Cluster{Opts: opts, byzantine: make(map[int]bool)}
	cl.Sched = sim.NewScheduler(opts.Seed)

	netCfg := sim.ContinentProfile(opts.Seed)
	if opts.NetCfg != nil {
		netCfg = *opts.NetCfg
	}

	switch opts.Protocol {
	case ProtoPBFT:
		cl.PBFTCfg = pbft.DefaultConfig(opts.F)
		if opts.Batch > 0 {
			cl.PBFTCfg.Batch = opts.Batch
		}
		if opts.TunePBFT != nil {
			opts.TunePBFT(&cl.PBFTCfg)
		}
		cl.N = cl.PBFTCfg.N()
	default:
		c := 0
		if opts.Protocol == ProtoSBFT {
			c = opts.C
		}
		cfg := core.DefaultConfig(opts.F, c)
		switch opts.Protocol {
		case ProtoLinearPBFT:
			cfg.FastPath = false
			cfg.ExecCollectors = false
		case ProtoLinearFast:
			cfg.FastPath = true
			cfg.ExecCollectors = false
		}
		if opts.Batch > 0 {
			cfg.Batch = opts.Batch
		}
		if opts.Tune != nil {
			opts.Tune(&cfg)
		}
		cl.Cfg = cfg
		cl.N = cfg.N()
	}

	// Now that n is known, install the per-message CPU model.
	cm := DefaultCosts()
	if opts.Costs != nil {
		cm = *opts.Costs
	}
	cm.n = cl.N
	cm.collectors = opts.C + 2
	cm.offload = opts.CryptoPool > 0 && opts.Protocol != ProtoPBFT
	cm.workers = opts.CryptoPool
	netCfg.SendCost = cm.SendCost
	netCfg.RecvCost = cm.RecvCost
	cl.costs = cm
	var err error
	cl.Net, err = sim.NewNetwork(cl.Sched, netCfg)
	if err != nil {
		return nil, err
	}

	// Durable per-replica block stores (restart-from-storage support).
	// Any later constructor error must release what was opened (stores,
	// cluster-owned temp dir); callers only Close() built clusters.
	built := false
	defer func() {
		if !built {
			cl.Close()
		}
	}()
	if opts.Persist {
		cl.dataDir, err = os.MkdirTemp("", "sbft-cluster-")
		if err != nil {
			return nil, fmt.Errorf("cluster: creating data dir: %w", err)
		}
		cl.Stores = make([]*storage.Ledger, cl.N+1)
	}

	// The simulation uses the insecure threshold scheme; crypto CPU cost
	// is modeled via the network cost model above (see DESIGN.md). PBFT
	// clients verify nothing beyond f+1 matching replies, but the shared
	// core.Client needs a suite and the quorum sizes: an equivalent
	// core.Config (F matches; QuorumExec = f+1 is what the reply path
	// uses; Primary round-robin matches).
	clientCfg := cl.Cfg
	if opts.Protocol == ProtoPBFT {
		clientCfg = core.DefaultConfig(opts.F, 0)
		cl.PBFTReplicas = make([]*pbft.Replica, cl.N+1)
	} else {
		cl.Replicas = make([]*core.Replica, cl.N+1) // 1-based
	}
	cl.Suite, cl.keys, err = core.InsecureSuite(clientCfg, fmt.Sprintf("cluster-%d", opts.Seed))
	if err != nil {
		return nil, err
	}
	cl.Apps = make([]core.Application, cl.N+1)
	cl.envs = make([]*env, cl.N+1)
	for id := 1; id <= cl.N; id++ {
		node, err := cl.startReplica(id)
		if err != nil {
			return nil, err
		}
		if err := cl.Net.Register(sim.NodeID(id), (id-1)%netCfg.Regions, handler{node}); err != nil {
			return nil, err
		}
	}

	// Clients.
	verifier := core.ProofVerifier(apps.VerifyKV)
	readKey := kvstore.ReadKey
	if opts.App == AppEVM {
		verifier = apps.VerifyEVM
		readKey = evm.ReadKey
	}
	timeout := opts.ClientTimeout
	if timeout == 0 {
		timeout = 4 * time.Second
	}
	for i := 0; i < opts.Clients; i++ {
		id := core.ClientBase + i
		e := &env{id: id, net: cl.Net, sched: cl.Sched}
		c, err := core.NewClient(id, clientCfg, cl.Suite, e, verifier)
		if err != nil {
			return nil, err
		}
		c.RequestTimeout = timeout
		c.SetReadKey(readKey)
		cl.Clients = append(cl.Clients, c)
		if err := cl.Net.Register(sim.NodeID(id), i%netCfg.Regions, handler{c}); err != nil {
			return nil, err
		}
	}
	built = true
	return cl, nil
}

// startReplica builds replica id and everything that hangs off it, on a
// first start and on a restart alike, and records them in the cluster's
// tables: application → durable store (Options.Persist) → env → engine,
// which replays whatever the store holds → async snapshot sink → modeled
// crypto pool. The order is the one every env.After of a run depends on.
// The caller attaches the returned node to the network.
func (cl *Cluster) startReplica(id int) (Node, error) {
	app, err := cl.newApp(id)
	if err != nil {
		return nil, err
	}
	var led *storage.Ledger
	if cl.Opts.Persist {
		led, err = storage.Open(filepath.Join(cl.dataDir, fmt.Sprintf("r%d", id)), storage.Options{})
		if err != nil {
			return nil, fmt.Errorf("cluster: opening store for replica %d: %w", id, err)
		}
		cl.Stores[id] = led
	}
	e := &env{id: id, net: cl.Net, sched: cl.Sched}
	cl.Apps[id], cl.envs[id] = app, e
	if cl.Opts.Protocol == ProtoPBFT {
		// The baseline keeps its own replay (ROADMAP: internal/pbft is
		// frozen); over an empty store it is NewReplica.
		var rep *pbft.Replica
		if led != nil {
			rep, err = pbft.NewRecoveredReplica(id, cl.PBFTCfg, app, e, led)
		} else {
			rep, err = pbft.NewReplica(id, cl.PBFTCfg, app, e, nil)
		}
		if err != nil {
			return nil, err
		}
		cl.PBFTReplicas[id] = rep
		return rep, nil
	}
	var store core.BlockStore
	if led != nil {
		store = led
	}
	rep, err := core.NewReplica(id, cl.Cfg, cl.Suite, cl.keys[id-1], app, e, store)
	if err != nil {
		return nil, err
	}
	if led != nil {
		rep.SetSnapshotSink(&ledgerSink{env: e, led: led})
	}
	if cl.Opts.CryptoPool > 0 {
		rep.SetCryptoSink(newPoolSink(e, cl.Suite, cl.costs, cl.Opts.CryptoPool))
	}
	cl.Replicas[id] = rep
	return rep, nil
}

func (cl *Cluster) newApp(id int) (core.Application, error) {
	var app core.Application
	switch cl.Opts.App {
	case AppKV:
		app = apps.NewKVApp()
	case AppEVM:
		a := apps.NewEVMApp()
		if cl.Opts.GenesisEVM != nil {
			cl.Opts.GenesisEVM(a)
		}
		app = a
	default:
		return nil, fmt.Errorf("cluster: unknown app kind %d", cl.Opts.App)
	}
	if cl.Opts.WrapApp != nil {
		app = cl.Opts.WrapApp(id, app)
	}
	return app, nil
}

// Close releases durable stores and removes cluster-owned data.
func (cl *Cluster) Close() error {
	var first error
	for _, led := range cl.Stores {
		if led == nil {
			continue
		}
		if err := led.Close(); err != nil && first == nil {
			first = err
		}
	}
	if cl.dataDir != "" {
		if err := os.RemoveAll(cl.dataDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MarkByzantine records a replica as adversarial for the safety audit.
func (cl *Cluster) MarkByzantine(id int) { cl.byzantine[id] = true }

// IsByzantine reports whether a replica has ever behaved adversarially.
func (cl *Cluster) IsByzantine(id int) bool { return cl.byzantine[id] }

// CrashReplicas crashes k replicas, skipping the view-0 primary (the
// paper's failure experiments measure throughput under crashed backups).
func (cl *Cluster) CrashReplicas(k int) []int {
	var crashed []int
	for id := cl.N; id >= 2 && len(crashed) < k; id-- {
		cl.Net.Crash(sim.NodeID(id))
		crashed = append(crashed, id)
	}
	return crashed
}

// SetStragglers makes k non-primary replicas slow by extra.
func (cl *Cluster) SetStragglers(k int, extra time.Duration) []int {
	var slowed []int
	for id := cl.N; id >= 2 && len(slowed) < k; id-- {
		cl.Net.SetStraggler(sim.NodeID(id), extra)
		slowed = append(slowed, id)
	}
	return slowed
}

// Metrics sums every replica's counters field by field. core.Metrics is
// all uint64 counters, so a counter added there is summed without a
// change here.
func (cl *Cluster) Metrics() core.Metrics {
	var m core.Metrics
	sum := reflect.ValueOf(&m).Elem()
	for _, r := range cl.Replicas {
		if r == nil {
			continue
		}
		rm := reflect.ValueOf(r.Metrics)
		for i := range sum.NumField() {
			f := sum.Field(i)
			f.SetUint(f.Uint() + rm.Field(i).Uint())
		}
	}
	return m
}

// PBFTMetrics aggregates the baseline engine's metrics.
func (cl *Cluster) PBFTMetrics() pbft.Metrics {
	var m pbft.Metrics
	for _, r := range cl.PBFTReplicas {
		if r == nil {
			continue
		}
		m.Commits += r.Metrics.Commits
		m.Executions += r.Metrics.Executions
		m.ViewChanges += r.Metrics.ViewChanges
		m.Checkpoints += r.Metrics.Checkpoints
	}
	return m
}

// WorkloadResult summarizes a closed-loop run.
type WorkloadResult struct {
	Completed   uint64
	Duration    time.Duration
	Throughput  float64 // operations per second of virtual time
	MeanLatency time.Duration
	P50Latency  time.Duration
	P95Latency  time.Duration
	FastAcks    uint64
	Retries     uint64
	MsgsSent    uint64
	BytesSent   uint64
	Events      uint64
}

// OpGen produces the i-th operation of a client.
type OpGen func(client, i int) []byte

// RunClosedLoop drives every client through opsPerClient sequential
// operations (the paper's measurement loop: each client sends 1000
// requests, §IX) and runs the simulation until all complete or the horizon
// passes.
func (cl *Cluster) RunClosedLoop(opsPerClient int, gen OpGen, horizon time.Duration) WorkloadResult {
	var (
		latencies   []time.Duration
		completions []time.Duration
		completed   uint64
		fastAcks    uint64
		retries     uint64
	)
	remaining := len(cl.Clients) * opsPerClient
	start := cl.Sched.Now()
	lastDone := start

	for ci, c := range cl.Clients {
		ci, c := ci, c
		count := 0
		c.SetOnResult(func(res core.Result) {
			completed++
			remaining--
			lastDone = cl.Sched.Now()
			completions = append(completions, lastDone)
			latencies = append(latencies, res.Latency)
			if cl.OnResult != nil {
				cl.OnResult(c.ID(), res)
			}
			if res.FastAck {
				fastAcks++
			}
			if res.Retried {
				retries++
			}
			count++
			if count < opsPerClient {
				if err := c.Submit(gen(ci, count)); err != nil {
					remaining -= opsPerClient - count
				}
			}
		})
		// Stagger initial submissions slightly for realism.
		cl.Sched.Schedule(time.Duration(ci)*50*time.Microsecond, func() {
			if err := c.Submit(gen(ci, 0)); err != nil {
				remaining -= opsPerClient
			}
		})
	}

	deadline := start + horizon
	for remaining > 0 && cl.Sched.Now() < deadline {
		if cl.Sched.Run(deadline, 50_000) == 0 {
			break
		}
	}
	// Throughput is measured to the last completion, not to whatever
	// background activity (timers, checkpoints) ran afterwards.
	dur := lastDone - start
	res := WorkloadResult{
		Completed: completed,
		Duration:  dur,
		FastAcks:  fastAcks,
		Retries:   retries,
		MsgsSent:  cl.Net.MsgsSent,
		BytesSent: cl.Net.BytesSent,
		Events:    cl.Sched.Events(),
	}
	if dur > 0 {
		res.Throughput = float64(completed) / dur.Seconds()
	}
	// Steady-state throughput over the 10th–90th percentile completion
	// window: robust against warmup and a retried straggler stretching
	// the tail (the paper measures steady-state rates).
	if len(completions) >= 20 {
		sort.Slice(completions, func(i, j int) bool { return completions[i] < completions[j] })
		lo, hi := completions[len(completions)/10], completions[len(completions)*9/10]
		if hi > lo {
			res.Throughput = 0.8 * float64(len(completions)) / (hi - lo).Seconds()
		}
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		res.MeanLatency = sum / time.Duration(len(latencies))
		res.P50Latency = latencies[len(latencies)/2]
		res.P95Latency = latencies[int(math.Ceil(float64(len(latencies))*0.95))-1]
	}
	return res
}

// Run advances the simulation until the horizon or quiescence.
func (cl *Cluster) Run(horizon time.Duration) {
	cl.Sched.Run(cl.Sched.Now()+horizon, 0)
}
