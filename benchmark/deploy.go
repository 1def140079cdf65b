package main

import (
	"fmt"
	"runtime"
	"time"

	"sbft/internal/apps"
	"sbft/internal/core"
	"sbft/internal/crypto/threshbls"
	"sbft/internal/cryptopool"
	"sbft/internal/kvstore"
	"sbft/internal/transport"
)

// clientSlots is a constant, not a function of nproc: the smallest count at
// which blocks carry several requests, so core's batching is on the
// measured path.
const clientSlots = 8

// retryTimeout is the clients' §V-A retry timeout. A lost execute-ack (see
// README, finding 1) stalls its clients for exactly this long.
const retryTimeout = time.Second

// deployment is n replicas and the client slots, all inside this process
// and all over loopback TCP, wired as cmd/sbft-node and cmd/sbft-client
// wire them.
type deployment struct {
	cfg      core.Config
	shells   []*transport.Shell // replica id-1
	replicas []*core.Replica
	apps     []*apps.KVApp
	pools    []*cryptopool.Pool
	slots    []*slot
	tracers  []*tracer // replicas first, then clients; nil when untraced
}

// boot starts the deployment for w. With traced set, every public seam is
// wrapped by the decorators in trace.go.
func boot(w workload, traced bool) (d *deployment, err error) {
	cfg := core.DefaultConfig(1, 0)
	if w.checkpointInterval > 0 {
		cfg.CheckpointInterval = w.checkpointInterval
	}
	var suite core.CryptoSuite
	var keys []core.ReplicaKeys
	if w.bls {
		suite, keys, err = core.DealSuite(cfg, threshbls.Dealer{})
	} else {
		suite, keys, err = core.InsecureSuite(cfg, "sbft-benchmark")
	}
	if err != nil {
		return nil, fmt.Errorf("dealing keys: %w", err)
	}

	d = &deployment{cfg: cfg}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	epoch := time.Now()
	n := cfg.N()
	// The peers book lists replicas only, as a peers file does; clients
	// announce their dial-back address in the handshake.
	peers := make(map[int]string, n)
	for id := 1; id <= n; id++ {
		sh, err := transport.NewShell(id, "127.0.0.1:0", peers)
		if err != nil {
			return nil, err
		}
		d.shells = append(d.shells, sh)
		peers[id] = sh.Addr()
	}
	for id := 1; id <= n; id++ {
		sh := d.shells[id-1]
		app := apps.NewKVApp()
		d.apps = append(d.apps, app)
		var (
			env   core.Env         = sh
			rapp  core.Application = app
			rkeys                  = keys[id-1]
			rsuit                  = suite
			tr    *tracer
		)
		if traced {
			tr = newTracer(id, len(d.tracers), epoch, w.bls)
			d.tracers = append(d.tracers, tr)
			env, rapp = tracedEnv{sh, tr}, tracedApp{app, tr}
			rkeys, rsuit = traceKeys(rkeys, tr), traceSuite(suite, tr)
		}
		rep, err := core.NewReplica(id, cfg, rsuit, rkeys, rapp, env, nil)
		if err != nil {
			return nil, err
		}
		d.replicas = append(d.replicas, rep)
		if w.bls {
			pool := cryptopool.New(rsuit, runtime.NumCPU(), sh.Do)
			d.pools = append(d.pools, pool)
			if traced {
				rep.SetCryptoSink(tracedSink{pool, tr})
			} else {
				rep.SetCryptoSink(pool)
			}
		}
		if traced {
			sh.Start(tracedNode{rep, tr, "core.deliver"})
		} else {
			sh.Start(rep)
		}
	}
	for i := 0; i < clientSlots; i++ {
		id := core.ClientBase + i
		sh, err := transport.NewShell(id, "127.0.0.1:0", peers)
		if err != nil {
			return nil, err
		}
		s := &slot{index: i, shell: sh, idle: make(chan struct{}, 1)}
		d.slots = append(d.slots, s)
		var (
			env    core.Env = sh
			verify          = core.ProofVerifier(apps.VerifyKV)
			csuite          = suite
		)
		if traced {
			tr := newTracer(id, len(d.tracers), epoch, false)
			d.tracers = append(d.tracers, tr)
			env, verify, csuite = tracedEnv{sh, tr}, traceVerifier(verify, tr), traceSuite(suite, tr)
			s.tracer = tr
		}
		s.client, err = core.NewClient(id, cfg, csuite, env, verify)
		if err != nil {
			return nil, err
		}
		s.client.RequestTimeout = retryTimeout
		s.client.SetReadKey(kvstore.ReadKey)
		s.client.SetOnResult(s.onResult)
		s.client.SetOnReadResult(s.onReadResult)
		if traced {
			sh.Start(tracedNode{s.client, s.tracer, "client.deliver"})
		} else {
			sh.Start(s.client)
		}
		sh.AnnounceAll()
	}
	return d, nil
}

// close stops every goroutine the deployment started and waits for them:
// clients first (no new load), then the pools (their completions route
// through the replica shells), then the replicas.
func (d *deployment) close() {
	for _, s := range d.slots {
		s.shell.Close()
	}
	for _, p := range d.pools {
		p.Close()
	}
	for _, sh := range d.shells {
		sh.Close()
	}
}

// replicaState is one replica's execution frontier and state digest.
type replicaState struct {
	executed uint64
	digest   string
}

func (d *deployment) state(i int) (st replicaState) {
	d.shells[i].Do(func() {
		st = replicaState{d.replicas[i].LastExecuted(), string(d.apps[i].Digest())}
	})
	return st
}

// converge waits until every replica reports the same frontier twice in a
// row (backups execute asynchronously after the clients' acks) and checks
// that they hold the same state digest there.
func (d *deployment) converge() error {
	deadline := time.Now().Add(10 * time.Second)
	var prev []replicaState
	for {
		cur := make([]replicaState, len(d.shells))
		same := true
		for i := range d.shells {
			cur[i] = d.state(i)
			if cur[i].executed != cur[0].executed || (prev != nil && prev[i] != cur[i]) {
				same = false
			}
		}
		if same && prev != nil {
			for i := range cur {
				if cur[i].digest != cur[0].digest {
					return fmt.Errorf("replica %d digest differs from replica 1 at block %d", i+1, cur[0].executed)
				}
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge: frontiers %v", frontiers(cur))
		}
		prev = cur
		time.Sleep(20 * time.Millisecond)
	}
}

func frontiers(st []replicaState) []uint64 {
	out := make([]uint64, len(st))
	for i, s := range st {
		out[i] = s.executed
	}
	return out
}

// metrics returns every replica's core.Metrics, read on its event loop.
func (d *deployment) metrics() []core.Metrics {
	out := make([]core.Metrics, len(d.shells))
	for i := range d.shells {
		d.shells[i].Do(func() { out[i] = d.replicas[i].Metrics })
	}
	return out
}
