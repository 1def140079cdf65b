package pbft

import (
	"testing"
	"time"

	"sbft/internal/core"
)

func TestConfig(t *testing.T) {
	cfg := DefaultConfig(2)
	if cfg.N() != 7 {
		t.Errorf("N = %d, want 7", cfg.N())
	}
	if cfg.Quorum() != 5 {
		t.Errorf("Quorum = %d, want 5", cfg.Quorum())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := cfg
	bad.F = 0
	if err := bad.Validate(); err == nil {
		t.Error("F=0 accepted")
	}
	bad = cfg
	bad.Win = 1
	if err := bad.Validate(); err == nil {
		t.Error("Win=1 accepted")
	}
	bad = cfg
	bad.Batch = 0
	if err := bad.Validate(); err == nil {
		t.Error("Batch=0 accepted")
	}
}

func TestPrimaryRotation(t *testing.T) {
	cfg := DefaultConfig(1)
	seen := map[int]bool{}
	for v := uint64(0); v < 4; v++ {
		seen[cfg.Primary(v)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("rotation covered %d of 4", len(seen))
	}
}

func TestNewReplicaValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	if _, err := NewReplica(0, cfg, nil, nil, nil); err == nil {
		t.Error("id 0 accepted")
	}
	if _, err := NewReplica(5, cfg, nil, nil, nil); err == nil {
		t.Error("id beyond n accepted")
	}
	bad := cfg
	bad.F = 0
	if _, err := NewReplica(1, bad, nil, nil, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCheckpointEvery(t *testing.T) {
	cfg := DefaultConfig(1)
	if got := cfg.checkpointEvery(); got != cfg.Win/2 {
		t.Fatalf("default checkpoint interval = %d, want win/2", got)
	}
	cfg.CheckpointInterval = 10
	if got := cfg.checkpointEvery(); got != 10 {
		t.Fatalf("explicit interval = %d", got)
	}
}

// fakeEnv drives a single replica deterministically for unit tests.
type fakeEnv struct {
	id     int
	now    time.Duration
	sent   []sentMsg
	timers []*fakeTimer
}

type sentMsg struct {
	to  int
	msg core.Message
}

type fakeTimer struct {
	at        time.Duration
	fn        func()
	cancelled bool
}

func (e *fakeEnv) Send(to int, msg core.Message) { e.sent = append(e.sent, sentMsg{to, msg}) }
func (e *fakeEnv) Now() time.Duration            { return e.now }
func (e *fakeEnv) After(d time.Duration, fn func()) func() {
	t := &fakeTimer{at: e.now + d, fn: fn}
	e.timers = append(e.timers, t)
	return func() { t.cancelled = true }
}

// advance fires due timers in order.
func (e *fakeEnv) advance(d time.Duration) {
	e.now += d
	for _, t := range e.timers {
		if !t.cancelled && t.fn != nil && t.at <= e.now {
			fn := t.fn
			t.fn = nil
			fn()
		}
	}
}

type countingApp struct {
	blocks int
	ops    int
}

func (a *countingApp) ExecuteBlock(seq uint64, ops [][]byte) [][]byte {
	a.blocks++
	a.ops += len(ops)
	out := make([][]byte, len(ops))
	for i := range out {
		out[i] = []byte("ok")
	}
	return out
}
func (a *countingApp) Digest() []byte                             { return []byte("digest") }
func (a *countingApp) ProveOperation(uint64, int) ([]byte, error) { return []byte("p"), nil }
func (a *countingApp) SnapshotChunks() ([][]byte, bool, error) {
	return [][]byte{[]byte("s")}, true, nil
}
func (a *countingApp) Restore([]byte) error  { return nil }
func (a *countingApp) GarbageCollect(uint64) {}

// drive delivers a message to a replica as if from `from`.
func deliver(r *Replica, from int, msg any) { r.Deliver(from, msg) }

func TestSingleReplicaProtocolFlow(t *testing.T) {
	// Drive replica 2 (a backup) of a 4-replica PBFT cluster through one
	// block: pre-prepare → prepares → commits → execution + reply.
	cfg := DefaultConfig(1)
	cfg.BatchTimeout = 0
	env := &fakeEnv{id: 2}
	app := &countingApp{}
	r, err := NewReplica(2, cfg, app, env, nil)
	if err != nil {
		t.Fatal(err)
	}

	client := core.ClientBase
	req := core.Request{Client: client, Timestamp: 1, Op: []byte("x")}
	pp := PrePrepareMsg{Seq: 1, View: 0, Reqs: []core.Request{req}}
	deliver(r, 1, pp)

	// The backup must have broadcast a prepare.
	var prepares int
	for _, m := range env.sent {
		if p, ok := m.msg.(PrepareMsg); ok {
			if p.Seq != 1 || p.Hash != core.BlockHash(1, 0, pp.Reqs) {
				t.Fatalf("bad prepare %+v", p)
			}
			prepares++
		}
	}
	if prepares != cfg.N()-1 {
		t.Fatalf("sent %d prepares, want %d", prepares, cfg.N()-1)
	}

	// Prepares from replicas 1 and 3 (plus own) reach the 2f+1 quorum →
	// commit broadcast.
	h := core.BlockHash(1, 0, pp.Reqs)
	deliver(r, 1, PrepareMsg{Seq: 1, View: 0, Hash: h, Replica: 1})
	deliver(r, 3, PrepareMsg{Seq: 1, View: 0, Hash: h, Replica: 3})
	var commits int
	for _, m := range env.sent {
		if _, ok := m.msg.(CommitMsg); ok {
			commits++
		}
	}
	if commits != cfg.N()-1 {
		t.Fatalf("sent %d commits, want %d", commits, cfg.N()-1)
	}

	// Commits from 1 and 3 (plus own) → committed, executed, replied.
	deliver(r, 1, CommitMsg{Seq: 1, View: 0, Hash: h, Replica: 1})
	deliver(r, 3, CommitMsg{Seq: 1, View: 0, Hash: h, Replica: 3})
	if app.blocks != 1 || app.ops != 1 {
		t.Fatalf("executed blocks=%d ops=%d", app.blocks, app.ops)
	}
	var replied bool
	for _, m := range env.sent {
		if rep, ok := m.msg.(core.ReplyMsg); ok && m.to == client {
			if rep.Timestamp != 1 || string(rep.Val) != "ok" {
				t.Fatalf("bad reply %+v", rep)
			}
			replied = true
		}
	}
	if !replied {
		t.Fatal("no reply sent to the client")
	}
	if r.LastExecuted() != 1 {
		t.Fatalf("LastExecuted = %d", r.LastExecuted())
	}
}

func TestReplicaIgnoresWrongViewAndPrimary(t *testing.T) {
	cfg := DefaultConfig(1)
	env := &fakeEnv{id: 2}
	r, _ := NewReplica(2, cfg, &countingApp{}, env, nil)

	req := []core.Request{{Client: core.ClientBase, Timestamp: 1, Op: []byte("x")}}
	// Wrong view.
	deliver(r, 2, PrePrepareMsg{Seq: 1, View: 5, Reqs: req})
	// Wrong sender (replica 3 is not the view-0 primary).
	deliver(r, 3, PrePrepareMsg{Seq: 1, View: 0, Reqs: req})
	for _, m := range env.sent {
		if _, ok := m.msg.(PrepareMsg); ok {
			t.Fatal("replica prepared an invalid pre-prepare")
		}
	}
}

func TestReplyFromCacheOnRetry(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.BatchTimeout = 0
	env := &fakeEnv{id: 2}
	r, _ := NewReplica(2, cfg, &countingApp{}, env, nil)

	client := core.ClientBase
	req := core.Request{Client: client, Timestamp: 1, Op: []byte("x")}
	h := core.BlockHash(1, 0, []core.Request{req})
	deliver(r, 1, PrePrepareMsg{Seq: 1, View: 0, Reqs: []core.Request{req}})
	deliver(r, 1, PrepareMsg{Seq: 1, View: 0, Hash: h, Replica: 1})
	deliver(r, 3, PrepareMsg{Seq: 1, View: 0, Hash: h, Replica: 3})
	deliver(r, 1, CommitMsg{Seq: 1, View: 0, Hash: h, Replica: 1})
	deliver(r, 3, CommitMsg{Seq: 1, View: 0, Hash: h, Replica: 3})

	before := len(env.sent)
	// Retried request: answered straight from the reply cache.
	deliver(r, client, core.RequestMsg{Req: req})
	var cached bool
	for _, m := range env.sent[before:] {
		if rep, ok := m.msg.(core.ReplyMsg); ok && rep.Timestamp == 1 {
			cached = true
		}
	}
	if !cached {
		t.Fatal("no cached reply for a retried request")
	}
}

func TestProgressTimerTriggersViewChange(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.ViewChangeTimeout = 100 * time.Millisecond
	env := &fakeEnv{id: 2}
	r, _ := NewReplica(2, cfg, &countingApp{}, env, nil)

	deliver(r, core.ClientBase, core.RequestMsg{Req: core.Request{
		Client: core.ClientBase, Timestamp: 1, Op: []byte("x")}})
	env.advance(200 * time.Millisecond)
	var vc bool
	for _, m := range env.sent {
		if v, ok := m.msg.(ViewChangeMsg); ok && v.NewView == 1 {
			vc = true
		}
	}
	if !vc {
		t.Fatal("no view change after progress timeout")
	}
	if r.View() != 1 {
		t.Fatalf("view = %d, want 1", r.View())
	}
}
