package harness

import (
	"strings"
	"testing"
	"time"

	"sbft/internal/apps"
	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/kvstore"
)

// TestScriptedCrashFRestartMidBatch is the ISSUE's scripted acceptance
// scenario: crash f replicas mid-batch, restart them from their durable
// stores, and still reach commit on everything.
func TestScriptedCrashFRestartMidBatch(t *testing.T) {
	const f = 2 // n = 7
	rep, err := Run(Scenario{
		Name: "crash-f-restart-mid-batch",
		Opts: cluster.Options{
			Protocol: cluster.ProtoSBFT, F: f, C: 0,
			Clients: 3, Seed: 100, Persist: true,
			ClientTimeout: time.Second,
			Tune: func(c *core.Config) {
				c.Batch = 4
				c.ViewChangeTimeout = time.Second
			},
		},
		Schedule: cluster.Schedule{
			// Mid-batch: the workload starts immediately; at 300ms the
			// cluster is deep in flight. Crash f=2 backups together …
			{At: 300 * time.Millisecond, Kind: cluster.FaultCrash, Node: 6},
			{At: 300 * time.Millisecond, Kind: cluster.FaultCrash, Node: 7},
			// … and bring them back from storage while traffic continues.
			{At: 1200 * time.Millisecond, Kind: cluster.FaultRestart, Node: 6},
			{At: 1500 * time.Millisecond, Kind: cluster.FaultRestart, Node: 7},
		},
		OpsPerClient:       15,
		Horizon:            10 * time.Minute,
		Settle:             time.Minute,
		ExpectAllCommitted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("scenario failed: %s", rep.Summary())
	}
	if rep.Completed != rep.Expected {
		t.Fatalf("completed %d of %d", rep.Completed, rep.Expected)
	}
}

// TestScriptedPrimaryPartitionWindow scripts the paper's §VII experiment
// shape: partition the view-0 primary at t=1s, heal at t=3s; the cluster
// must view-change around it and finish the workload.
func TestScriptedPrimaryPartitionWindow(t *testing.T) {
	opts := cluster.Options{
		Protocol: cluster.ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: 101,
		ClientTimeout: time.Second,
		Tune: func(c *core.Config) {
			c.ViewChangeTimeout = time.Second
		},
	}
	sched := cluster.Schedule{
		{At: time.Second, Kind: cluster.FaultPartition, Node: 1, Group: 1},
		{At: time.Second, Kind: cluster.FaultPartition, Node: 2, Group: 2},
		{At: time.Second, Kind: cluster.FaultPartition, Node: 3, Group: 2},
		{At: time.Second, Kind: cluster.FaultPartition, Node: 4, Group: 2},
		{At: 3 * time.Second, Kind: cluster.FaultHeal},
	}
	rep, err := Run(Scenario{
		Name: "primary-partition-window", Opts: opts, Schedule: sched,
		OpsPerClient: 15, Horizon: 10 * time.Minute, Settle: 30 * time.Second,
		ExpectAllCommitted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("scenario failed: %s", rep.Summary())
	}
}

// TestScenarioDeterminism: one seed, two runs, identical outcomes.
func TestScenarioDeterminism(t *testing.T) {
	run := func() string {
		rep, err := Run(DefaultGen(7))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Summary()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic scenario:\n%s\n%s", a, b)
	}
}

// TestAuditorDetectsLogDivergence feeds the auditor a forged divergent
// execution record: the audit must fail (auditor self-test — a checker
// that cannot fail verifies nothing).
func TestAuditorDetectsLogDivergence(t *testing.T) {
	recorders := make(map[int]*Recorder)
	opts := cluster.Options{
		Protocol: cluster.ProtoSBFT, F: 1, C: 0, Clients: 2, Seed: 55,
		WrapApp: func(id int, app core.Application) core.Application {
			rec := NewRecorder(app)
			recorders[id] = rec
			return rec
		},
	}
	cl, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res := cl.RunClosedLoop(5, UniqueKVGen, time.Minute)
	if res.Completed != 10 {
		t.Fatalf("completed %d of 10", res.Completed)
	}
	if a := AuditCluster(cl, recorders, nil); !a.OK() {
		t.Fatalf("clean run audited dirty: %v", a.Divergences)
	}

	// Forge: replica 2 "executed" something else at seq 1.
	rec := recorders[2].Records[1]
	rec.OpHashes = append([][32]byte{}, rec.OpHashes...)
	rec.OpHashes[0][0] ^= 0xff
	recorders[2].Records[1] = rec
	if a := AuditCluster(cl, recorders, nil); a.OK() {
		t.Fatal("auditor missed a forged log divergence")
	}

	// A fabricated ack no replica executed must also be caught.
	recorders[2].Records[1] = recorders[1].Records[1] // repair
	bogus := []Ack{{Client: core.ClientBase, Timestamp: 99, Seq: 1, Op: []byte("never-executed")}}
	if a := AuditCluster(cl, recorders, bogus); a.OK() {
		t.Fatal("auditor missed a lost ack")
	}
}

// dropPut is a replica whose store silently loses the first put it
// executes: the block runs, so its results and digest are its peers', and
// then the key goes back to what it held before.
type dropPut struct {
	*apps.KVApp
	dropped bool
}

func (d *dropPut) ExecuteBlock(seq uint64, ops [][]byte) [][]byte {
	results := d.KVApp.ExecuteBlock(seq, ops)
	for _, raw := range ops {
		if op, err := kvstore.DecodeOp(raw); err == nil && op.Kind == kvstore.OpPut && !d.dropped {
			d.Delete(op.Key) // UniqueKVGen never writes a key twice
			d.dropped = true
		}
	}
	return results
}

// TestAuditorDetectsSilentlyDroppedPut: a replica that lost one write
// with an unchanged result must fail the state check of the auditor and
// of the degradation benchmark, whatever its state digest covers.
func TestAuditorDetectsSilentlyDroppedPut(t *testing.T) {
	recorders := make(map[int]*Recorder)
	opts := cluster.Options{
		Protocol: cluster.ProtoSBFT, F: 1, C: 0, Clients: 2, Seed: 56,
		WrapApp: func(id int, app core.Application) core.Application {
			if id == 2 {
				app = &dropPut{KVApp: app.(*apps.KVApp)}
			}
			rec := NewRecorder(app)
			recorders[id] = rec
			return rec
		},
	}
	cl, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res := cl.RunClosedLoop(5, UniqueKVGen, time.Minute)
	if res.Completed != 10 {
		t.Fatalf("completed %d of 10", res.Completed)
	}
	a := AuditCluster(cl, recorders, nil)
	if !strings.Contains(strings.Join(a.Divergences, "\n"), "state divergence") {
		t.Fatalf("auditor missed the dropped put: %v", a.Divergences)
	}
	if degradationSafety(cl) {
		t.Fatal("degradation safety check missed the dropped put")
	}
}
