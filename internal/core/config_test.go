package core

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfigQuorums(t *testing.T) {
	tests := []struct {
		f, c                    int
		n, fast, slow, exec, vc int
	}{
		{1, 0, 4, 4, 3, 2, 3},
		{1, 1, 6, 5, 4, 2, 5},
		{2, 0, 7, 7, 5, 3, 5},
		{64, 0, 193, 193, 129, 65, 129},
		{64, 8, 209, 201, 137, 65, 145},
	}
	for _, tt := range tests {
		cfg := DefaultConfig(tt.f, tt.c)
		if got := cfg.N(); got != tt.n {
			t.Errorf("f=%d c=%d: N=%d, want %d", tt.f, tt.c, got, tt.n)
		}
		if got := cfg.QuorumFast(); got != tt.fast {
			t.Errorf("f=%d c=%d: QuorumFast=%d, want %d", tt.f, tt.c, got, tt.fast)
		}
		if got := cfg.QuorumSlow(); got != tt.slow {
			t.Errorf("f=%d c=%d: QuorumSlow=%d, want %d", tt.f, tt.c, got, tt.slow)
		}
		if got := cfg.QuorumExec(); got != tt.exec {
			t.Errorf("f=%d c=%d: QuorumExec=%d, want %d", tt.f, tt.c, got, tt.exec)
		}
		if got := cfg.QuorumViewChange(); got != tt.vc {
			t.Errorf("f=%d c=%d: QuorumViewChange=%d, want %d", tt.f, tt.c, got, tt.vc)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1, 0).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// Every rejection names the offending field. The last two are the
	// "zero derives the default" fields, where a negative value would
	// otherwise size the admission queue or the snapshot chain below one.
	tests := []struct {
		field string
		set   func(*Config)
	}{
		{"F", func(c *Config) { c.F = 0 }},
		{"C", func(c *Config) { c.C = -1 }},
		{"Win", func(c *Config) { c.Win = 2 }},
		{"Batch", func(c *Config) { c.Batch = 0 }},
		{"MaxPending", func(c *Config) { c.MaxPending = -1 }},
		{"SnapshotRetain", func(c *Config) { c.SnapshotRetain = -1 }},
	}
	for _, tt := range tests {
		cfg := DefaultConfig(1, 0)
		tt.set(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("bad %s accepted", tt.field)
		} else if !strings.Contains(err.Error(), tt.field) {
			t.Errorf("bad %s: error %q does not name the field", tt.field, err)
		}
	}
}

func TestPrimaryRotation(t *testing.T) {
	cfg := DefaultConfig(1, 0) // n = 4
	seen := make(map[int]bool)
	for v := uint64(0); v < 8; v++ {
		p := cfg.Primary(v)
		if p < 1 || p > 4 {
			t.Fatalf("Primary(%d) = %d out of range", v, p)
		}
		seen[p] = true
		if cfg.Primary(v+4) != p {
			t.Fatalf("rotation period wrong at view %d", v)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("round-robin covered %d of 4 replicas", len(seen))
	}
}

func TestCollectorSelection(t *testing.T) {
	cfg := DefaultConfig(2, 2) // n = 11, c+1 = 3 collectors
	for seq := uint64(1); seq <= 50; seq++ {
		cc := cfg.CCollectors(seq, 3)
		if len(cc) != cfg.C+2 { // c+1 plus the primary fallback
			t.Fatalf("CCollectors len = %d, want %d", len(cc), cfg.C+2)
		}
		primary := cfg.Primary(3)
		if cc[len(cc)-1] != primary {
			t.Fatal("primary is not the last staggered collector")
		}
		seen := make(map[int]bool)
		for i, id := range cc {
			if id < 1 || id > cfg.N() {
				t.Fatalf("collector %d out of range", id)
			}
			if i < len(cc)-1 && id == primary {
				t.Fatal("primary selected as a pseudo-random collector")
			}
			if seen[id] {
				t.Fatalf("duplicate collector %d at seq %d", id, seq)
			}
			seen[id] = true
		}
		ec := cfg.ECollectors(seq, 3)
		if len(ec) != cfg.C+1 {
			t.Fatalf("ECollectors len = %d, want %d", len(ec), cfg.C+1)
		}
	}
}

func TestCollectorSelectionDeterministic(t *testing.T) {
	cfg := DefaultConfig(3, 1)
	for seq := uint64(1); seq < 20; seq++ {
		a := cfg.CCollectors(seq, 7)
		b := cfg.CCollectors(seq, 7)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("collector selection nondeterministic")
			}
		}
	}
}

// referenceCollectorSet is the selection as first written: a fresh
// sha256.New per draw and a map of taken ids. collectorSet must return
// the same ids in the same order.
func referenceCollectorSet(c Config, seq, view uint64, kind string, count int) []int {
	n := c.N()
	primary := c.Primary(view)
	if count > n-1 {
		count = n - 1
	}
	out := make([]int, 0, count)
	taken := make(map[int]bool, count+1)
	taken[primary] = true
	var ctr uint64
	for len(out) < count {
		h := sha256.New()
		h.Write([]byte("sbft:collector:"))
		h.Write([]byte(kind))
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], seq)
		h.Write(b[:])
		binary.BigEndian.PutUint64(b[:], view)
		h.Write(b[:])
		binary.BigEndian.PutUint64(b[:], ctr)
		h.Write(b[:])
		ctr++
		id := int(binary.BigEndian.Uint64(h.Sum(nil)[:8])%uint64(n)) + 1
		if taken[id] {
			continue
		}
		taken[id] = true
		out = append(out, id)
	}
	return out
}

func TestCollectorSetMatchesReference(t *testing.T) {
	for _, fc := range [][2]int{{1, 0}, {2, 0}, {2, 1}, {3, 0}, {64, 8}} {
		cfg := DefaultConfig(fc[0], fc[1])
		for seq := uint64(0); seq < 1000; seq++ {
			for view := uint64(0); view < 3; view++ {
				for _, kind := range []string{"commit", "exec"} {
					// The reference draws in a fixed order, so its answer
					// for a smaller count is a prefix of this one.
					want := referenceCollectorSet(cfg, seq, view, kind, cfg.F+1)
					for c := 0; c <= cfg.F; c++ {
						if got := cfg.collectorSet(seq, view, kind, c+1); !slices.Equal(got, want[:c+1]) {
							t.Fatalf("n=%d seq=%d view=%d %s count=%d: %v, want %v", cfg.N(), seq, view, kind, c+1, got, want[:c+1])
						}
					}
				}
			}
		}
	}
}

func TestCollectorLoadSpreads(t *testing.T) {
	cfg := DefaultConfig(4, 0) // n = 13
	counts := make(map[int]int)
	for seq := uint64(1); seq <= 1000; seq++ {
		for _, id := range cfg.ECollectors(seq, 0) {
			counts[id]++
		}
	}
	// All non-primary replicas should collect a reasonable share
	// (pseudo-random balance, §V: "we balance the load over all replicas").
	for id := 2; id <= cfg.N(); id++ {
		if counts[id] < 40 {
			t.Errorf("replica %d selected only %d of ~83 expected times", id, counts[id])
		}
	}
	if counts[cfg.Primary(0)] != 0 {
		t.Error("primary selected as E-collector")
	}
}

func TestBlockHash(t *testing.T) {
	reqs := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("x")}}
	h1 := BlockHash(1, 0, reqs)
	if h1 != BlockHash(1, 0, reqs) {
		t.Fatal("BlockHash not deterministic")
	}
	if h1 == BlockHash(2, 0, reqs) {
		t.Fatal("BlockHash ignores seq")
	}
	if h1 == BlockHash(1, 1, reqs) {
		t.Fatal("BlockHash ignores view (required by §VI safety argument)")
	}
	if h1 == BlockHash(1, 0, nil) {
		t.Fatal("BlockHash ignores requests")
	}
	reqs2 := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("y")}}
	if h1 == BlockHash(1, 0, reqs2) {
		t.Fatal("BlockHash ignores op bytes")
	}
}

func TestQuickBlockHashInjective(t *testing.T) {
	f := func(op1, op2 []byte, ts1, ts2 uint64) bool {
		a := BlockHash(1, 1, []Request{{Client: ClientBase, Timestamp: ts1, Op: op1}})
		b := BlockHash(1, 1, []Request{{Client: ClientBase, Timestamp: ts2, Op: op2}})
		same := ts1 == ts2 && string(op1) == string(op2)
		return (a == b) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDealSuite(t *testing.T) {
	cfg := DefaultConfig(1, 1)
	suite, keys, err := InsecureSuite(cfg, "t")
	if err != nil {
		t.Fatalf("InsecureSuite: %v", err)
	}
	if len(keys) != cfg.N() {
		t.Fatalf("keys = %d, want %d", len(keys), cfg.N())
	}
	if suite.Sigma.Threshold() != cfg.QuorumFast() {
		t.Errorf("σ threshold = %d, want %d", suite.Sigma.Threshold(), cfg.QuorumFast())
	}
	if suite.Tau.Threshold() != cfg.QuorumSlow() {
		t.Errorf("τ threshold = %d, want %d", suite.Tau.Threshold(), cfg.QuorumSlow())
	}
	if suite.Pi.Threshold() != cfg.QuorumExec() {
		t.Errorf("π threshold = %d, want %d", suite.Pi.Threshold(), cfg.QuorumExec())
	}
	for i, k := range keys {
		if k.Sigma.ID() != i+1 || k.Tau.ID() != i+1 || k.Pi.ID() != i+1 {
			t.Fatalf("key ids misaligned at %d", i)
		}
	}
}

func TestMessageWireSizes(t *testing.T) {
	msgs := []Message{
		RequestMsg{Req: Request{Op: make([]byte, 100)}},
		PrePrepareMsg{Reqs: []Request{{Op: make([]byte, 100)}}},
		SignShareMsg{},
		FullCommitProofMsg{},
		PrepareMsg{},
		CommitMsg{},
		FullCommitProofSlowMsg{},
		SignStateMsg{},
		FullExecuteProofMsg{},
		ExecuteAckMsg{Val: []byte("v"), Proof: make([]byte, 50)},
		ReplyMsg{Val: []byte("v")},
		CheckpointShareMsg{},
		CheckpointCertMsg{},
		FetchStateMsg{},
		SnapshotMetaMsg{Root: make([]byte, 32)},
		FetchSnapshotChunkMsg{},
		SnapshotChunkMsg{Data: make([]byte, 1000)},
		ViewChangeMsg{Slots: []SlotInfo{{}}},
		NewViewMsg{ViewChanges: []ViewChangeMsg{{}}},
	}
	for _, m := range msgs {
		if m.WireSize() <= 0 {
			t.Errorf("%T WireSize = %d", m, m.WireSize())
		}
	}
	// Linearity sanity: collector certificates are constant-size,
	// independent of n (ingredient 1).
	small := FullCommitProofMsg{}.WireSize()
	if small > 200 {
		t.Errorf("commit proof is %dB; should be constant ~ one signature", small)
	}
}
