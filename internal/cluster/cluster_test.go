package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/sim"
)

func kvGen(client, i int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d/k%d", client, i), []byte(fmt.Sprintf("v%d", i)))
}

func newKV(t *testing.T, opts Options) *Cluster {
	t.Helper()
	cl, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return cl
}

// TestMetricsSumsEveryCounter gives every counter of every replica its
// own value and checks that the cluster sum carries each one: a counter
// the sum left out would read 0.
func TestMetricsSumsEveryCounter(t *testing.T) {
	cl := newKV(t, Options{Protocol: ProtoSBFT, F: 1, Seed: 1})
	var want core.Metrics
	w := reflect.ValueOf(&want).Elem()
	for id := 1; id <= cl.N; id++ {
		rm := reflect.ValueOf(&cl.Replicas[id].Metrics).Elem()
		for i := range rm.NumField() {
			v := uint64(1000*id + i + 1)
			rm.Field(i).SetUint(v)
			w.Field(i).SetUint(w.Field(i).Uint() + v)
		}
	}
	got := reflect.ValueOf(cl.Metrics())
	for i := range w.NumField() {
		if g := got.Field(i).Uint(); g != w.Field(i).Uint() {
			t.Errorf("Metrics().%s = %d, want %d", w.Type().Field(i).Name, g, w.Field(i).Uint())
		}
	}
}

// digestsAgree checks that all live replicas that executed to the same
// frontier share the state digest (the paper's safety property §VI applied
// to the app layer).
func digestsAgree(t *testing.T, cl *Cluster) {
	t.Helper()
	byFrontier := make(map[uint64][]byte)
	for id := 1; id <= cl.N; id++ {
		if cl.Net.Crashed(sim.NodeID(id)) {
			continue
		}
		var le uint64
		if cl.Replicas != nil && cl.Replicas[id] != nil {
			le = cl.Replicas[id].LastExecuted()
		} else if cl.PBFTReplicas != nil && cl.PBFTReplicas[id] != nil {
			le = cl.PBFTReplicas[id].LastExecuted()
		}
		d := cl.Apps[id].Digest()
		if prev, ok := byFrontier[le]; ok && !bytes.Equal(prev, d) {
			t.Fatalf("replica %d digest differs at frontier %d", id, le)
		}
		byFrontier[le] = d
	}
}

func TestSBFTSmallClusterCommits(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 4, Seed: 1,
	})
	res := cl.RunClosedLoop(10, kvGen, 60*time.Second)
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40 ops (retries=%d)", res.Completed, res.Retries)
	}
	if res.FastAcks == 0 {
		t.Error("no operations confirmed through the single-ack fast path")
	}
	m := cl.Metrics()
	if m.FastCommits == 0 {
		t.Error("no fast-path commits in a failure-free run")
	}
	if m.ViewChanges != 0 {
		t.Errorf("unexpected view changes: %d", m.ViewChanges)
	}
	digestsAgree(t, cl)
}

func TestSBFTWithRedundancy(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 1, // n = 6
		Clients: 4, Seed: 2,
	})
	res := cl.RunClosedLoop(10, kvGen, 60*time.Second)
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40", res.Completed)
	}
	digestsAgree(t, cl)
}

func TestSBFTFastPathSurvivesCStragglers(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 1, // fast quorum 3f+c+1 = 5 of 6
		Clients: 2, Seed: 3,
	})
	cl.SetStragglers(1, 2*time.Second)
	res := cl.RunClosedLoop(10, kvGen, 120*time.Second)
	if res.Completed != 20 {
		t.Fatalf("completed %d of 20", res.Completed)
	}
	m := cl.Metrics()
	if m.FastCommits == 0 {
		t.Error("fast path abandoned despite c-tolerable straggler")
	}
	digestsAgree(t, cl)
}

func TestSBFTFallsBackToSlowPathOnCrashes(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0, // n=4, fast quorum 4
		Clients: 2, Seed: 4,
		Tune: func(c *core.Config) {
			c.FastPathTimeout = 50 * time.Millisecond
		},
	})
	cl.CrashReplicas(1) // one crash kills the fast path (needs all 4)
	res := cl.RunClosedLoop(10, kvGen, 120*time.Second)
	if res.Completed != 20 {
		t.Fatalf("completed %d of 20 (retries=%d)", res.Completed, res.Retries)
	}
	m := cl.Metrics()
	if m.SlowCommits == 0 {
		t.Error("no slow-path commits despite fast quorum being unreachable")
	}
	// The downgrade must be observable, not inferred: collectors waited
	// out their fast timers and engaged the linear path.
	if m.CollectorTimeouts == 0 {
		t.Error("no collector fast-timer expirations recorded")
	}
	if m.FastPathDowngrades == 0 {
		t.Error("no fast→linear downgrades recorded despite slow commits")
	}
	digestsAgree(t, cl)
}

func TestLinearPBFTVariant(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoLinearPBFT, F: 1,
		Clients: 3, Seed: 5,
	})
	res := cl.RunClosedLoop(10, kvGen, 60*time.Second)
	if res.Completed != 30 {
		t.Fatalf("completed %d of 30", res.Completed)
	}
	if res.FastAcks != 0 {
		t.Error("exec-collector acks seen with collectors disabled")
	}
	m := cl.Metrics()
	if m.FastCommits != 0 {
		t.Error("fast commits seen with fast path disabled")
	}
	digestsAgree(t, cl)
}

func TestLinearFastVariant(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoLinearFast, F: 1,
		Clients: 3, Seed: 6,
	})
	res := cl.RunClosedLoop(10, kvGen, 60*time.Second)
	if res.Completed != 30 {
		t.Fatalf("completed %d of 30", res.Completed)
	}
	m := cl.Metrics()
	if m.FastCommits == 0 {
		t.Error("no fast commits with fast path enabled")
	}
	digestsAgree(t, cl)
}

func TestPBFTBaseline(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoPBFT, F: 1,
		Clients: 3, Seed: 7,
	})
	res := cl.RunClosedLoop(10, kvGen, 60*time.Second)
	if res.Completed != 30 {
		t.Fatalf("completed %d of 30", res.Completed)
	}
	digestsAgree(t, cl)
}

func TestViewChangeOnPrimaryCrash(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: 8,
		Tune: func(c *core.Config) {
			c.ViewChangeTimeout = 500 * time.Millisecond
		},
		ClientTimeout: time.Second,
	})
	// Crash the view-0 primary (replica 1) mid-stream.
	cl.Sched.Schedule(700*time.Millisecond, func() {
		cl.Net.Crash(1)
	})
	res := cl.RunClosedLoop(20, kvGen, 5*time.Minute)
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40 after primary crash (retries=%d)", res.Completed, res.Retries)
	}
	m := cl.Metrics()
	if m.ViewChanges == 0 {
		t.Error("no view change despite primary crash")
	}
	for id := 2; id <= cl.N; id++ {
		if v := cl.Replicas[id].View(); v == 0 {
			t.Errorf("replica %d still in view 0", id)
		}
	}
	digestsAgree(t, cl)
}

func TestPBFTViewChangeOnPrimaryCrash(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoPBFT, F: 1,
		Clients: 2, Seed: 9,
		TunePBFT:      nil,
		ClientTimeout: time.Second,
	})
	cl.Sched.Schedule(2*time.Second, func() {
		cl.Net.Crash(1)
	})
	res := cl.RunClosedLoop(20, kvGen, 5*time.Minute)
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40 after primary crash", res.Completed)
	}
	digestsAgree(t, cl)
}

func TestWorldScaleSmall(t *testing.T) {
	netCfg := sim.WorldProfile(10)
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 2, C: 1, // n = 9
		Clients: 4, Seed: 10, NetCfg: &netCfg,
	})
	res := cl.RunClosedLoop(10, kvGen, 2*time.Minute)
	if res.Completed != 40 {
		t.Fatalf("completed %d of 40", res.Completed)
	}
	digestsAgree(t, cl)
}

func TestDeterministicRuns(t *testing.T) {
	run := func() WorkloadResult {
		cl := newKV(t, Options{
			Protocol: ProtoSBFT, F: 1, C: 0,
			Clients: 3, Seed: 11,
		})
		return cl.RunClosedLoop(10, kvGen, 60*time.Second)
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Duration != b.Duration || a.MsgsSent != b.MsgsSent {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestCheckpointGarbageCollection(t *testing.T) {
	cl := newKV(t, Options{
		Protocol: ProtoSBFT, F: 1, C: 0,
		Clients: 2, Seed: 12,
		Tune: func(c *core.Config) {
			c.Win = 8
			c.Batch = 1
			c.CheckpointInterval = 4
		},
	})
	res := cl.RunClosedLoop(30, kvGen, 5*time.Minute)
	if res.Completed != 60 {
		t.Fatalf("completed %d of 60", res.Completed)
	}
	m := cl.Metrics()
	if m.Checkpoints == 0 {
		t.Error("no checkpoints despite small interval")
	}
	for id := 1; id <= cl.N; id++ {
		if ls := cl.Replicas[id].LastStable(); ls == 0 {
			t.Errorf("replica %d never advanced its stable point", id)
		}
	}
	digestsAgree(t, cl)
}
