package cluster

import (
	"fmt"
	"testing"
	"time"

	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/sim"
)

// shareMsgs lists the share-carrying messages a collector only
// de-duplicates on receipt.
func shareMsgs() []any {
	return []any{
		core.SignShareMsg{},
		core.CommitMsg{},
		core.SignStateMsg{},
	}
}

func poolWorkload(t *testing.T, pool int, seed int64) WorkloadResult {
	t.Helper()
	cl, err := New(Options{
		Protocol:   ProtoSBFT,
		F:          1,
		Clients:    8,
		Seed:       seed,
		CryptoPool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gen := func(client, i int) []byte {
		return []byte(fmt.Sprintf("SET k%d-%d v", client, i))
	}
	res := cl.RunClosedLoop(30, gen, 60*time.Second)
	if res.Completed != 8*30 {
		t.Fatalf("pool=%d completed %d/240 ops", pool, res.Completed)
	}
	return res
}

func TestCryptoPoolCommitsAndIsDeterministic(t *testing.T) {
	a := poolWorkload(t, 2, 42)
	b := poolWorkload(t, 2, 42)
	// The modeled pool runs entirely in virtual time: identical seeds must
	// reproduce the run bit-for-bit, or the chaos sweeps lose their
	// replay-from-seed property.
	if a != b {
		t.Fatalf("pool run not deterministic:\n a=%+v\n b=%+v", a, b)
	}
}

func TestCryptoPoolSingleWorkerStaysLive(t *testing.T) {
	// CryptoPool=1 is the configuration the chaos generators run with:
	// every verification serializes through one modeled worker, which
	// maximizes queueing and batch aggregation. It must still complete a
	// full closed-loop workload.
	poolWorkload(t, 1, 7)
}

func TestCombineThenVerifyCosts(t *testing.T) {
	// One cost story for both sinks: nothing per share on receipt, one
	// interpolation plus ONE Verify per combine — on the sender's loop
	// inline, on a pool worker with offload — and a Verify per share only
	// on the blame path. A checkpoint's quorum is checked as one batch
	// before it is combined: inline that is spread over the n checkpoint
	// shares a replica receives, with offload the worker pays.
	inline := DefaultCosts()
	inline.n = 4
	pooled := inline
	pooled.offload = true
	pooled.workers = 4

	for _, msg := range shareMsgs() {
		for _, cm := range []CostModel{inline, pooled} {
			if got := cm.RecvCost(msg); got != cm.Base {
				t.Fatalf("RecvCost(%T) = %v, want handling floor %v (offload=%v)", msg, got, cm.Base, cm.offload)
			}
		}
	}
	ckpt := core.CheckpointShareMsg{}
	if got, want := inline.RecvCost(ckpt), inline.Base+(2*inline.Verify+inline.CombineVerified)/4; got != want {
		t.Fatalf("inline RecvCost(CheckpointShareMsg) = %v, want %v", got, want)
	}
	if got := pooled.RecvCost(ckpt); got != pooled.Base {
		t.Fatalf("pooled RecvCost(CheckpointShareMsg) = %v, want handling floor %v", got, pooled.Base)
	}
	if got := inline.RecvCost(core.FullExecuteProofMsg{}); got != inline.Base {
		t.Fatalf("RecvCost(FullExecuteProofMsg) = %v, want %v: π(d) is not verified on receipt", got, inline.Base)
	}
	cert := core.FullCommitProofMsg{}
	want := inline.Send + (inline.CombineVerified+inline.Verify)/4
	if got := inline.SendCost(cert); got != want {
		t.Fatalf("inline SendCost(cert) = %v, want %v", got, want)
	}
	if got := pooled.SendCost(cert); got != pooled.Send {
		t.Fatalf("pooled SendCost(cert) = %v, want %v: the worker pays the combine", got, pooled.Send)
	}
	if got := inline.ShareVerifyCost(3); got != 3*inline.Verify {
		t.Fatalf("blaming 3 shares costs %v, want %v", got, 3*inline.Verify)
	}
	if inline.ShareVerifyCost(0) != 0 {
		t.Fatal("empty batch should be free")
	}
}

func TestGarbageSharesFromOneReplicaStayLive(t *testing.T) {
	// One Byzantine replica whose every outbound share — σ, τ, τ(τ), π,
	// checkpoint — is garbage under its own name. Collectors take shares
	// unchecked, so each pays one failed combine for it, blames it and
	// from then on verifies its shares on arrival; the workload completes
	// on the τ path (σ needs all n shares at c = 0) on both sinks.
	garbage := threshsig.Share{Signer: 2, Data: []byte("garbage")}
	for _, pool := range []int{0, 2} {
		cl := newKV(t, Options{Protocol: ProtoSBFT, F: 1, Clients: 4, Seed: 11, CryptoPool: pool})
		cl.MarkByzantine(2)
		cl.Net.SetCorrupter(sim.NodeID(2), sim.CorruptFunc(func(to sim.NodeID, msg any) []sim.Injection {
			switch m := msg.(type) {
			case core.SignShareMsg:
				m.SigmaSig, m.TauSig = garbage, garbage
				msg = m
			case core.CommitMsg:
				m.TauTau = garbage
				msg = m
			case core.SignStateMsg:
				m.PiSig = garbage
				msg = m
			case core.CheckpointShareMsg:
				m.PiSig = garbage
				msg = m
			}
			return sim.PassThrough(to, msg)
		}))
		res := cl.RunClosedLoop(40, kvGen, 5*time.Minute)
		if res.Completed != 4*40 {
			t.Fatalf("pool=%d: completed %d/160 ops with one replica sending garbage shares", pool, res.Completed)
		}
		m := cl.Metrics()
		if m.BadShares == 0 || m.SlowCommits == 0 || m.ViewChanges != 0 {
			t.Fatalf("pool=%d: BadShares=%d SlowCommits=%d ViewChanges=%d, want blamed shares, τ-path commits and no view change",
				pool, m.BadShares, m.SlowCommits, m.ViewChanges)
		}
		digestsAgree(t, cl)
		cl.Close()
	}
}
