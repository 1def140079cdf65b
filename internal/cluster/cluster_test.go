package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/kvstore"
	"sbft/internal/merkle"
	"sbft/internal/pbft"
	"sbft/internal/sim"
	"sbft/internal/wire"
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

// TestSimulatedSizeIsFrameSize sends one message of every kind through a
// cluster's network and checks that the bytes it counts are the bytes of
// the frame internal/wire builds for that sender and message: the
// simulator charges what a deployment writes to its socket.
func TestSimulatedSizeIsFrameSize(t *testing.T) {
	cl := newKV(t, Options{Protocol: ProtoSBFT, F: 1, Seed: 1})
	sig := threshsig.Signature{Data: bytes.Repeat([]byte{7}, 33)}
	share := threshsig.Share{Signer: 2, Data: sig.Data}
	reqs := []core.Request{{Client: core.ClientBase, Timestamp: 3, Op: []byte("put k v")}, {Client: core.ClientBase + 1, Timestamp: 9}}
	digest := bytes.Repeat([]byte{1}, 32)
	slot := core.SlotInfo{Seq: 5, HasPrepare: true, PrepareTau: sig, PrepareView: 1, PrepareReqs: reqs, HasPrePrepare: true, SigmaShare: share}
	vc := core.ViewChangeMsg{NewView: 2, Replica: 2, LastStable: 4, StableDigest: digest, StablePi: sig, Slots: []core.SlotInfo{slot, {Seq: 6}}}
	proof := merkle.Proof{Index: 3, Steps: []merkle.ProofStep{{Right: true}, {}}}
	header := core.SnapshotHeader{AppDigest: digest, AppLen: 4096, ChunkSize: 1024, AppChunks: 4}
	pbftVC := pbft.ViewChangeMsg{NewView: 2, LastStable: 4, Replica: 2, Prepared: []pbft.PreparedProof{{Seq: 5, View: 1, Reqs: reqs}}}
	msgs := []any{
		core.RequestMsg{Req: reqs[0]},
		core.PrePrepareMsg{Seq: 5, View: 1, Reqs: reqs},
		core.SignShareMsg{Seq: 5, View: 1, Replica: 2, SigmaSig: share, TauSig: share},
		core.SignShareMsg{Seq: 5, View: 1, Replica: 2, SigmaSig: share},
		core.FetchTauMsg{Seq: 5, View: 1},
		core.FullCommitProofMsg{Seq: 5, View: 1, Sigma: sig},
		core.PrepareMsg{Seq: 5, View: 1, Tau: sig},
		core.CommitMsg{Seq: 5, View: 1, Replica: 2, TauTau: share},
		core.FullCommitProofSlowMsg{Seq: 5, View: 1, Tau: sig, TauTau: sig},
		core.SignStateMsg{Seq: 5, Replica: 2, Digest: digest, PiSig: share},
		core.FullExecuteProofMsg{Seq: 5, Digest: digest, Pi: sig},
		core.ExecuteAckMsg{Seq: 5, L: 1, Val: []byte("v"), Client: core.ClientBase, Timestamp: 3, View: 1, Digest: digest, Pi: sig, Proof: make([]byte, 146)},
		core.ReplyMsg{Seq: 5, L: 1, Replica: 2, Client: core.ClientBase, Timestamp: 3, View: 1, Val: []byte("v")},
		core.BusyMsg{Client: core.ClientBase, Timestamp: 3, RetryAfter: time.Second},
		core.CheckpointShareMsg{Seq: 8, Replica: 2, Digest: digest, PiSig: share},
		core.CheckpointCertMsg{Seq: 8, Digest: digest, Pi: sig},
		core.FetchCommitMsg{Replica: 2, Seq: 5},
		core.CommitInfoMsg{Seq: 5, View: 1, Reqs: reqs, HasFast: true, Sigma: sig},
		core.FetchStateMsg{Replica: 2, Seq: 8},
		core.SnapshotMetaMsg{Seq: 8, Root: digest, Pi: sig, Header: header, Leaves: make([]merkle.Digest, 6)},
		core.FetchSnapshotChunkMsg{Replica: 2, Seq: 8, Index: 3},
		core.SnapshotChunkMsg{Seq: 8, Index: 3, Data: make([]byte, 5000)},
		core.ReadMsg{Client: core.ClientBase, Nonce: 1, Op: []byte("get k"), MinSeq: 4},
		core.ReadReplyMsg{Client: core.ClientBase, Nonce: 1, Replica: 2, Status: core.ReadOK, Seq: 8, Root: digest, Pi: sig,
			Header: header, HeaderProof: proof, ChunkIndex: 3, Chunk: make([]byte, 700), ChunkProof: proof},
		vc,
		core.NewViewMsg{View: 2, ViewChanges: []core.ViewChangeMsg{vc, vc, vc}},
		pbft.PrePrepareMsg{Seq: 5, View: 1, Reqs: reqs},
		pbft.PrepareMsg{Seq: 5, View: 1, Replica: 2},
		pbft.CommitMsg{Seq: 5, View: 1, Replica: 2},
		pbft.CheckpointMsg{Seq: 8, Digest: digest, Replica: 2},
		pbft.FetchCommitMsg{Replica: 2, Seq: 5},
		pbft.CommitInfoMsg{Seq: 5, Replica: 2, Reqs: reqs},
		pbftVC,
		pbft.NewViewMsg{View: 2, ViewChanges: []pbft.ViewChangeMsg{pbftVC, pbftVC}, PrePrepares: []pbft.PrePrepareMsg{{Seq: 5, View: 2, Reqs: reqs}}},
	}
	for _, from := range []int{2, core.ClientBase} {
		for _, m := range msgs {
			frame, err := wire.AppendFrame(nil, from, m)
			if err != nil {
				t.Fatalf("%T: %v", m, err)
			}
			before := cl.Net.BytesSent
			cl.Net.Send(sim.NodeID(from), 1, m)
			if got := cl.Net.BytesSent - before; got != uint64(len(frame)) {
				t.Errorf("%T from %d: network counted %d bytes, frame is %d", m, from, got, len(frame))
			}
		}
	}
}
