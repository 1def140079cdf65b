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
