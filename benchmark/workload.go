package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/transport"
)

// workload is one traffic mix on one deployment shape. Names are fixed:
// later issues cite them.
type workload struct {
	name string
	why  string
	// bls deals real BN254 threshold keys and installs the cryptopool sink;
	// otherwise InsecureSuite (HMAC) with core's inline sink.
	bls bool
	// bundle is the number of puts per request; an operation is one put.
	bundle int
	// readers is how many of the client slots issue certified reads of
	// their own pre-filled keys instead of puts.
	readers int
	// checkpointInterval overrides core.DefaultConfig when non-zero.
	checkpointInterval uint64
}

var workloads = []workload{
	{
		name: "bls4_write", bls: true, bundle: 1,
		why: "real BN254 threshold signatures carry every put: >99% of CPU is crypto, and only here are the off-loop pool, staging and RLC batch-verify on the path",
	},
	{
		name: "hmac4_write", bundle: 1,
		why: "crypto costs nothing, so transport (gob, sockets), core event handling and message count do the work; bypasses cryptopool and threshbls",
	},
	{
		name: "hmac4_bundle", bundle: 64,
		why: "64 puts per request (the paper's batching mode) amortise consensus 64x, so kvstore/merkle execution and proof generation dominate",
	},
	{
		name: "hmac4_readmix", bundle: 1, readers: 6, checkpointInterval: 16,
		// The default interval of 128 would leave the certified frontier
		// seconds behind every reader.
		why: "6 slots issue proof-carrying certified reads beside 2 writers with a checkpoint every 16 blocks: capture on the event loop and the read path, the other way through kvstore/merkle/snapcodec",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Driver modes, shared by all slots of a run.
const (
	modeStop    int32 = iota // finish the outstanding op, then go idle
	modeRun                  // issue ops, record nothing (settle)
	modeMeasure              // issue ops, record completions
)

// prefillBundle is the puts per pre-fill request: large, so that set-up is
// a few dozen requests even at BLS speed.
const prefillBundle = 256

// opTimeout is how long an op may stay unacknowledged before it counts as
// failed.
const opTimeout = 10 * time.Second

// prefillTimeout bounds the whole pre-fill of one set-up.
const prefillTimeout = 60 * time.Second

type kv struct {
	key int
	val []byte
}

// slot is one closed-loop client: one outstanding request, the next one
// submitted from the completion callback. Apart from mode and idle, its
// fields are touched only on its shell's event loop while the loop runs,
// and by the driver once the slot is idle.
type slot struct {
	index  int
	shell  *transport.Shell
	client *core.Client
	tracer *tracer
	mode   *atomic.Int32
	idle   chan struct{}

	w       workload
	rng     *rand.Rand
	reader  bool
	keys    []string
	last    [][]byte // last value acknowledged per key: the expected state
	prefill [][]kv   // pre-fill requests not yet submitted
	salt    uint64

	// The outstanding request.
	puts []kv
	want []byte

	rec record
}

// record is what one slot saw complete while the mode was modeMeasure.
type record struct {
	writeLat, readLat          []time.Duration
	ops, writeOps              uint64 // operations: puts and reads
	failed                     uint64
	retried, fastAcks, slowOps uint64 // write requests
	readOrdered, readFailovers uint64
}

func (r *record) add(o record) {
	r.writeLat = append(r.writeLat, o.writeLat...)
	r.readLat = append(r.readLat, o.readLat...)
	r.ops += o.ops
	r.writeOps += o.writeOps
	r.failed += o.failed
	r.retried += o.retried
	r.fastAcks += o.fastAcks
	r.slowOps += o.slowOps
	r.readOrdered += o.readOrdered
	r.readFailovers += o.readFailovers
}

// prepare derives the slot's inputs from the seed: its keyspace, the
// pre-fill values and the stream the measured ops are drawn from.
func (s *slot) prepare(w workload, seed int64, keys int, mode *atomic.Int32) {
	s.w, s.mode = w, mode
	s.rng = rand.New(rand.NewSource(seed*1000003 + int64(s.index)))
	s.reader = s.index < w.readers
	s.keys = make([]string, keys)
	s.last = make([][]byte, keys)
	for k := range s.keys {
		s.keys[k] = fmt.Sprintf("c%d/%04d", s.index, k)
	}
	for k := 0; k < keys; k += prefillBundle {
		var b []kv
		for j := k; j < k+prefillBundle && j < keys; j++ {
			b = append(b, kv{j, s.value()})
		}
		s.prefill = append(s.prefill, b)
	}
}

// value draws 6 bytes: with the 7-byte key a put encodes to 22 bytes.
func (s *slot) value() []byte {
	v := make([]byte, 6)
	s.rng.Read(v)
	return v
}

// issue submits the slot's next request, or reports the slot idle.
func (s *slot) issue() {
	var err error
	switch {
	case len(s.prefill) > 0:
		s.puts, s.prefill = s.prefill[0], s.prefill[1:]
		err = s.submitPuts(true)
	case s.mode.Load() == modeStop:
		s.idle <- struct{}{}
		return
	case s.reader:
		k := s.rng.Intn(len(s.keys))
		s.salt++
		s.want = s.last[k]
		err = s.client.SubmitRead(kvstore.GetUnique(s.keys[k], s.salt))
	default:
		s.puts = s.puts[:0]
		for i := 0; i < s.w.bundle; i++ {
			s.puts = append(s.puts, kv{s.rng.Intn(len(s.keys)), s.value()})
		}
		err = s.submitPuts(s.w.bundle > 1)
	}
	if err != nil {
		// Submit fails only with a request already outstanding: a driver bug.
		panic(err)
	}
}

func (s *slot) submitPuts(bundle bool) error {
	ops := make([][]byte, len(s.puts))
	for i, p := range s.puts {
		ops[i] = kvstore.Put(s.keys[p.key], p.val)
	}
	if !bundle {
		s.want = []byte("OK")
		return s.client.Submit(ops[0])
	}
	s.want = []byte(fmt.Sprintf("OK:%d", len(ops)))
	return s.client.Submit(kvstore.Bundle(ops...))
}

func (s *slot) onResult(res core.Result) {
	ok := bytes.Equal(res.Val, s.want)
	if ok {
		for _, p := range s.puts {
			s.last[p.key] = p.val
		}
	}
	if s.mode.Load() == modeMeasure {
		r := &s.rec
		r.writeLat = append(r.writeLat, res.Latency)
		r.ops += uint64(len(s.puts))
		r.writeOps += uint64(len(s.puts))
		if !ok {
			r.failed++
		}
		if res.Retried {
			r.retried++
		}
		if res.FastAck {
			r.fastAcks++
		}
		if res.Latency > time.Second {
			r.slowOps++
		}
	} else if !ok {
		s.rec.failed++ // a refused pre-fill or settle op fails the run too
	}
	s.issue()
}

func (s *slot) onReadResult(res core.ReadResult) {
	ok := res.Found && bytes.Equal(res.Val, s.want)
	if s.mode.Load() == modeMeasure {
		r := &s.rec
		r.readLat = append(r.readLat, res.Latency)
		r.ops++
		if !ok {
			r.failed++
		}
		if res.Ordered {
			r.readOrdered++
		}
		r.readFailovers += uint64(res.Failovers)
	} else if !ok {
		s.rec.failed++
	}
	s.issue()
}

// runConfig sizes one run of one workload.
type runConfig struct {
	seed    int64
	keys    int // per client slot
	setups  int // set-ups timed; the last one is measured on
	settle  time.Duration
	measure time.Duration
	traced  bool
}

// runResult is everything one run observed.
type runResult struct {
	w       workload
	setups  []time.Duration
	wall    time.Duration
	cpu     time.Duration
	speed   float64       // machine speed over the window (probe.go)
	kernel  time.Duration // the probe kernel's mean CPU time over the window
	rssMB   float64
	hung    uint64 // ops still unacknowledged opTimeout after the window
	correct bool
	err     error // why correct is false
	record

	// Replica-side counters over the measured window, and (traced runs)
	// the span aggregates summed over replicas and over clients.
	before, after []core.Metrics
	replicaStats  map[string]layerStat
	clientStats   map[string]layerStat
	tracers       []*tracer
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS sleeps for d and returns the highest resident set size seen in
// the meantime, in MiB, sampled every 100 ms. ru_maxrss would not do: the
// process's lifetime peak falls in the repeated set-ups, not in the
// measured phase.
func peakRSS(d time.Duration) (peak float64) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for end := time.Now().Add(d); time.Now().Before(end); <-tick.C {
		var size, resident int
		if b, err := os.ReadFile("/proc/self/statm"); err == nil {
			fmt.Sscan(string(b), &size, &resident)
		}
		peak = max(peak, float64(resident*os.Getpagesize())/(1<<20))
	}
	return peak
}

// waitIdle waits for every slot to report idle; it returns how many did not
// within the deadline.
func waitIdle(slots []*slot, deadline time.Time) (hung uint64) {
	for _, s := range slots {
		select {
		case <-s.idle:
		case <-time.After(time.Until(deadline)):
			hung++
		}
	}
	return hung
}

// run executes one workload once: set-up (timed, cfg.setups times), settle,
// the measured window, quiesce, verification.
func run(w workload, cfg runConfig) (res runResult) {
	res.w = w
	var d *deployment
	mode := new(atomic.Int32)
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		d, err = boot(w, cfg.traced)
		if err != nil {
			res.err = err
			return res
		}
		for _, s := range d.slots {
			s.prepare(w, cfg.seed, cfg.keys, mode)
			s.shell.Do(s.issue)
		}
		if hung := waitIdle(d.slots, time.Now().Add(prefillTimeout)); hung > 0 {
			d.close()
			res.err = fmt.Errorf("pre-fill: %d client slots not done within %v", hung, prefillTimeout)
			return res
		}
		res.setups = append(res.setups, time.Since(start))
	}
	defer d.close()
	// The earlier set-ups (and, when several workloads share the process,
	// the earlier workloads) must not count towards this run's memory.
	debug.FreeOSMemory()

	mode.Store(modeRun)
	for _, s := range d.slots {
		s.shell.Do(s.issue)
	}
	time.Sleep(cfg.settle)

	for _, t := range d.tracers {
		t.reset()
	}
	res.before = d.metrics()
	cpu0 := cpuTime()
	probe, err := startProbe()
	if err != nil {
		res.err = err
		return res
	}
	t0 := time.Now()
	mode.Store(modeMeasure)
	res.rssMB = peakRSS(cfg.measure)
	mode.Store(modeRun)
	res.wall = time.Since(t0)
	res.speed, res.kernel = probe.finish()
	res.cpu = cpuTime() - cpu0
	res.after = d.metrics()
	res.replicaStats, res.clientStats = map[string]layerStat{}, map[string]layerStat{}
	for _, t := range d.tracers {
		into := res.replicaStats
		if core.IsClient(t.node) {
			into = res.clientStats
		}
		for name, st := range t.aggregates() {
			sum := into[name]
			sum.count += st.count
			sum.units += st.units
			sum.total += st.total
			sum.self += st.self
			into[name] = sum
		}
	}
	res.tracers = d.tracers

	mode.Store(modeStop)
	res.hung = waitIdle(d.slots, time.Now().Add(opTimeout))
	if res.hung > 0 {
		// The hung slots' event loops still own their records.
		res.failed = res.hung
		res.err = fmt.Errorf("%d ops unacknowledged after %v", res.hung, opTimeout)
		return res
	}
	for _, s := range d.slots {
		res.record.add(s.rec)
	}
	sort.Slice(res.writeLat, func(i, j int) bool { return res.writeLat[i] < res.writeLat[j] })
	sort.Slice(res.readLat, func(i, j int) bool { return res.readLat[i] < res.readLat[j] })

	if res.failed > 0 {
		res.err = fmt.Errorf("%d ops refused or answered with the wrong value", res.failed)
	} else if res.ops == 0 {
		res.err = fmt.Errorf("no operation completed in the measured window")
	} else if err := d.converge(); err != nil {
		res.err = err
	} else {
		res.err = d.checkState()
	}
	res.correct = res.err == nil
	return res
}

// checkState reads every key of every slot back from every replica's store
// and compares it with the last value the slot saw acknowledged.
func (d *deployment) checkState() error {
	for i := range d.shells {
		var err error
		d.shells[i].Do(func() {
			for _, s := range d.slots {
				for k, key := range s.keys {
					got, ok := d.apps[i].Store.Value(key)
					if !ok || !bytes.Equal(got, s.last[k]) {
						err = fmt.Errorf("replica %d holds %x for key %s, last acknowledged put wrote %x", i+1, got, key, s.last[k])
						return
					}
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// percentile is the nearest-rank q-quantile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
