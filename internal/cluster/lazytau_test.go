package cluster

import (
	"testing"
	"time"
)

// TestCrashMidRunFallsBackWithoutViewChange: at c = 0 the fast path needs
// every replica, so a backup that crashes after the fast path has run
// sends every later block down the linear-PBFT path (§V-E) — without a
// view change. The blocks in flight when the episode starts had σ alone;
// their collectors ask for τ(h), at most activeWindow = 3 requests, and
// the first slow commit makes every replica sign τ with σ again.
func TestCrashMidRunFallsBackWithoutViewChange(t *testing.T) {
	cl := newKV(t, Options{Protocol: ProtoSBFT, F: 1, Clients: 2, Seed: 3})
	if res := cl.RunClosedLoop(10, kvGen, time.Minute); res.Completed != 20 {
		t.Fatalf("fault-free phase completed %d of 20", res.Completed)
	}
	fast := cl.Metrics().FastCommits
	cl.CrashReplicas(1)
	if res := cl.RunClosedLoop(10, kvGen, time.Minute); res.Completed != 20 {
		t.Fatalf("with a crashed backup: completed %d of 20", res.Completed)
	}
	m := cl.Metrics()
	if m.ViewChanges != 0 {
		t.Fatalf("%d view changes; the slow path needs none", m.ViewChanges)
	}
	if m.SlowCommits == 0 || m.FastCommits != fast {
		t.Fatalf("slow commits %d, fast commits %d after the crash; want the slow path only", m.SlowCommits, m.FastCommits-fast)
	}
	if m.TauFetches == 0 || m.TauFetches > 3 {
		t.Fatalf("%d τ requests for one slow episode, want 1..activeWindow (3)", m.TauFetches)
	}
}

// TestPrimaryFallbackFetchesShares: once the fast path has run, backups
// send their σ-only sign-shares to the hashed C-collectors alone, so at
// c = 0 a slot whose one hashed collector has crashed, or withholds its
// proof, is committed by the primary: its stagger and a fast timer run
// out, it asks every replica for σ and τ, and collects. The impaired
// collector does not answer (crashed, or holding the slot committed by the
// σ(h) it kept), so the slot commits through the slow path, after which
// replicas sign τ and send the primary their shares again. Every slot
// commits, and no view change happens.
func TestPrimaryFallbackFetchesShares(t *testing.T) {
	for _, tc := range []struct {
		name    string
		crashed bool
	}{{"crashed", true}, {"withholding", false}} {
		t.Run(tc.name, func(t *testing.T) {
			cl := newKV(t, Options{Protocol: ProtoSBFT, F: 1, Clients: 2, Seed: 5})
			if res := cl.RunClosedLoop(5, kvGen, time.Minute); res.Completed != 10 {
				t.Fatalf("fault-free phase completed %d of 10", res.Completed)
			}
			if m := cl.Metrics(); m.SlowCommits != 0 || m.FallbackFetches != 0 {
				t.Fatalf("fault-free phase: %d slow commits, %d fallback fetches; want none", m.SlowCommits, m.FallbackFetches)
			}
			cl.ImpairFirstCollectors(tc.crashed)
			if res := cl.RunClosedLoop(15, kvGen, time.Minute); res.Completed != 30 {
				t.Fatalf("completed %d of 30 (retries %d)", res.Completed, res.Retries)
			}
			m := cl.Metrics()
			if m.ViewChanges != 0 {
				t.Fatalf("%d view changes; the primary's fallback needs none", m.ViewChanges)
			}
			if m.FallbackFetches == 0 || m.SlowCommits == 0 {
				t.Fatalf("%d fallback fetches, %d slow commits; want the primary to fetch and commit slow", m.FallbackFetches, m.SlowCommits)
			}
			digestsAgree(t, cl)
		})
	}
}
