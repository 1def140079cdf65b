package core

import (
	"bytes"
	"fmt"
	"testing"

	"sbft/internal/crypto/threshsig"
)

// memStore is an in-memory RecoverableStore for unit tests.
type memStore struct {
	blocks  map[uint64][]byte
	nextSeq uint64
}

func newMemStore() *memStore { return &memStore{blocks: make(map[uint64][]byte), nextSeq: 1} }

func (m *memStore) Append(seq uint64, payload []byte) error {
	if seq != m.nextSeq {
		return fmt.Errorf("memStore: out of order append %d, want %d", seq, m.nextSeq)
	}
	m.blocks[seq] = append([]byte(nil), payload...)
	m.nextSeq = seq + 1
	return nil
}

func (m *memStore) Get(seq uint64) ([]byte, error) {
	b, ok := m.blocks[seq]
	if !ok {
		return nil, fmt.Errorf("memStore: no block %d", seq)
	}
	return b, nil
}

func (m *memStore) NextSeq() uint64 { return m.nextSeq }

// countingApp counts executions deterministically and digests the history.
type countingApp struct {
	history []string
}

func (a *countingApp) ExecuteBlock(seq uint64, ops [][]byte) [][]byte {
	out := make([][]byte, len(ops))
	for i, op := range ops {
		a.history = append(a.history, fmt.Sprintf("%d:%s", seq, op))
		out[i] = []byte(fmt.Sprintf("r%d-%d", seq, i))
	}
	return out
}
func (a *countingApp) Digest() []byte {
	d := []byte(fmt.Sprintf("%d", len(a.history)))
	for _, h := range a.history {
		d = append(d, h...)
	}
	return d
}
func (a *countingApp) ProveOperation(uint64, int) ([]byte, error) { return []byte("p"), nil }
func (a *countingApp) SnapshotChunks() ([][]byte, bool, error) {
	return [][]byte{[]byte("s")}, true, nil
}
func (a *countingApp) Restore([]byte) error  { return nil }
func (a *countingApp) GarbageCollect(uint64) {}

func commitBlock(t *testing.T, rg *rig, seq uint64, reqs []Request) {
	t.Helper()
	rg.r.Deliver(1, PrePrepareMsg{Seq: seq, View: 0, Reqs: reqs})
	h := BlockHash(seq, 0, reqs)
	var shares []threshsig.Share
	for i := 1; i <= rg.cfg.QuorumFast(); i++ {
		sh, err := rg.keys[i-1].Sigma.Sign(h[:])
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	sigma, err := rg.suite.Sigma.Combine(h[:], shares)
	if err != nil {
		t.Fatal(err)
	}
	rg.r.Deliver(3, FullCommitProofMsg{Seq: seq, View: 0, Sigma: sigma})
}

func TestBlockPayloadRoundTrip(t *testing.T) {
	reqs := []Request{
		{Client: ClientBase, Timestamp: 3, Op: []byte("put k v")},
		{Client: ClientBase + 1, Timestamp: 9, Op: []byte("get k"), Direct: true},
	}
	results := [][]byte{[]byte("ok"), []byte("v")}
	rec, err := DecodeBlockPayload(EncodeBlockPayload(reqs, results))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Reqs) != 2 || len(rec.Results) != 2 {
		t.Fatalf("round trip lost data: %+v", rec)
	}
	if rec.Reqs[1].Client != ClientBase+1 || !rec.Reqs[1].Direct || !bytes.Equal(rec.Results[1], []byte("v")) {
		t.Fatalf("round trip corrupted fields: %+v", rec)
	}
	if _, err := DecodeBlockPayload([]byte("garbage")); err == nil {
		t.Fatal("garbage payload decoded")
	}
}

func TestRecoveredReplicaReplaysLog(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	cfg.BatchTimeout = 0
	cfg.CollectorStagger = 0
	suite, keys, err := InsecureSuite(cfg, "recovery-test")
	if err != nil {
		t.Fatal(err)
	}
	store := newMemStore()
	before := &countingApp{}
	env := &fakeEnv{}
	r, err := NewReplica(2, cfg, suite, keys[1], before, env, store)
	if err != nil {
		t.Fatal(err)
	}
	rg := &rig{t: t, cfg: cfg, suite: suite, keys: keys, env: env, r: r}

	// Commit and execute three blocks so the store holds durable records.
	for seq := uint64(1); seq <= 3; seq++ {
		reqs := []Request{{Client: ClientBase + int(seq), Timestamp: seq, Op: []byte(fmt.Sprintf("op%d", seq))}}
		commitBlock(t, rg, seq, reqs)
	}
	if r.LastExecuted() != 3 {
		t.Fatalf("pre-crash frontier = %d, want 3", r.LastExecuted())
	}
	preDigest := before.Digest()

	// "Restart": fresh app + replica rebuilt from the store.
	after := &countingApp{}
	r2, err := NewReplica(2, cfg, suite, keys[1], after, &fakeEnv{}, store)
	if err != nil {
		t.Fatal(err)
	}
	if r2.LastExecuted() != 3 {
		t.Fatalf("recovered frontier = %d, want 3", r2.LastExecuted())
	}
	if !bytes.Equal(after.Digest(), preDigest) {
		t.Fatal("replayed application state differs from pre-crash state")
	}
	// The reply cache must serve pre-crash requests.
	ent, ok := r2.replyCache[ClientBase+2]
	if !ok || ent.seq != 2 || !bytes.Equal(ent.val, []byte("r2-0")) {
		t.Fatalf("reply cache not rebuilt: %+v", ent)
	}
	// The recovered replica keeps committing: replay the next block.
	rg2 := &rig{t: t, cfg: cfg, suite: suite, keys: keys, env: &fakeEnv{}, r: r2}
	commitBlock(t, rg2, 4, []Request{{Client: ClientBase + 9, Timestamp: 1, Op: []byte("op4")}})
	if r2.LastExecuted() != 4 {
		t.Fatalf("recovered replica stuck at %d after new commit", r2.LastExecuted())
	}
	if store.NextSeq() != 5 {
		t.Fatalf("store frontier = %d, want 5 (block 4 appended post-restart)", store.NextSeq())
	}
}

func TestRecoveredReplicaDetectsDivergentReplay(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	suite, keys, err := InsecureSuite(cfg, "recovery-test")
	if err != nil {
		t.Fatal(err)
	}
	store := newMemStore()
	// Store a record whose results cannot come from countingApp.
	payload := EncodeBlockPayload(
		[]Request{{Client: ClientBase, Timestamp: 1, Op: []byte("x")}},
		[][]byte{[]byte("not-what-replay-produces")},
	)
	if err := store.Append(1, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplica(2, cfg, suite, keys[1], &countingApp{}, &fakeEnv{}, store); err == nil {
		t.Fatal("divergent replay accepted")
	}
}
