package core

import (
	"errors"
	"testing"

	"sbft/internal/crypto/threshsig"
)

// The two counters of failures a replica swallows and carries on from
// (Metrics.StoreErrors, Metrics.CaptureFailures): every site that bumps
// one, reached the way a run reaches it.

// refusingStore is a disk that has stopped taking writes.
type refusingStore struct{ *memStore }

var errDiskFull = errors.New("disk full")

func (refusingStore) Append(uint64, []byte) error       { return errDiskFull }
func (refusingStore) SaveSnapshot(uint64, []byte) error { return errDiskFull }
func (refusingStore) LoadSnapshot(uint64) ([]byte, error) {
	return nil, errors.New("no snapshot")
}
func (refusingStore) LatestSnapshot() (uint64, error) { return 0, nil }
func (refusingStore) PruneSnapshots(uint64) error     { return nil }

// brokenApp fails the calls it is told to. noChunks answers
// SnapshotChunks with ok=false and no error.
type brokenApp struct {
	fakeApp
	failSnapshot, noChunks, failProve bool
}

func (a *brokenApp) SnapshotChunks() ([][]byte, bool, error) {
	switch {
	case a.failSnapshot:
		return nil, false, errors.New("snapshot failed")
	case a.noChunks:
		return nil, false, nil
	}
	return a.fakeApp.SnapshotChunks()
}

func (a *brokenApp) ProveOperation(seq uint64, l int) ([]byte, error) {
	if a.failProve {
		return nil, errors.New("proof failed")
	}
	return a.fakeApp.ProveOperation(seq, l)
}

// brokenSigner is a key that cannot sign.
type brokenSigner struct{ id int }

func (s brokenSigner) ID() int { return s.id }
func (brokenSigner) Sign([]byte) (threshsig.Share, error) {
	return threshsig.Share{}, errors.New("key unavailable")
}

// counterRig is newRig with the replica's application, store and keys
// chosen by the test; every block is a checkpoint.
func counterRig(t *testing.T, id int, app Application, store BlockStore, breakKeys func(*ReplicaKeys)) *rig {
	t.Helper()
	cfg := DefaultConfig(1, 0)
	cfg.BatchTimeout = 0
	cfg.CollectorStagger = 0
	cfg.CheckpointInterval = 1
	suite, keys, err := InsecureSuite(cfg, "counter-test")
	if err != nil {
		t.Fatal(err)
	}
	own := keys[id-1]
	if breakKeys != nil {
		breakKeys(&own)
	}
	env := &fakeEnv{}
	r, err := NewReplica(id, cfg, suite, own, app, env, store)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, cfg: cfg, suite: suite, keys: keys, env: env, r: r}
}

// syncSnapshotSink persists on the caller's goroutine and reports before
// returning, which the SnapshotSink contract allows.
type syncSnapshotSink struct{ ss SnapshotStore }

func (s syncSnapshotSink) PersistSnapshot(cs *CertifiedSnapshot, keepFrom uint64, done func(error)) {
	done(PersistCertified(s.ss, cs, keepFrom))
}

func TestStoreErrorsCountRefusedWrites(t *testing.T) {
	store := refusingStore{newMemStore()}
	rg := counterRig(t, 2, &fakeApp{}, store, nil)
	rg.r.SetSnapshotSink(syncSnapshotSink{store})
	reqs := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("op")}}

	// The block executes and is answered; its append is refused.
	commitBlock(t, rg, 1, reqs)
	if rg.r.LastExecuted() != 1 || rg.r.Metrics.StoreErrors != 1 {
		t.Fatalf("executed %d with StoreErrors = %d, want 1 and 1", rg.r.LastExecuted(), rg.r.Metrics.StoreErrors)
	}
	// Its checkpoint stabilises: the synchronous persist is refused too,
	// and the durable serving point stays where it was.
	root := rg.r.snaps.pendingSnap[1].Root()
	for i := 1; i <= rg.cfg.QuorumExec(); i++ {
		sh, err := rg.keys[i-1].Pi.Sign(CheckpointSigDigest(1, root))
		if err != nil {
			t.Fatal(err)
		}
		rg.r.Deliver(i, CheckpointShareMsg{Seq: 1, Replica: i, Digest: root, PiSig: sh})
	}
	if rg.r.SnapshotSeq() != 1 || rg.r.DurableSnapshotSeq() != 0 || rg.r.Metrics.StoreErrors != 2 {
		t.Fatalf("serving %d, durable %d, StoreErrors = %d; want 1, 0 and 2",
			rg.r.SnapshotSeq(), rg.r.DurableSnapshotSeq(), rg.r.Metrics.StoreErrors)
	}
	// The async sink's refusal is TestAsyncSnapshotSinkArmsDurableOnCompletion's.
}

func TestCaptureFailuresCount(t *testing.T) {
	reqs := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("op")}}
	cfg := DefaultConfig(1, 0)
	collector := cfg.ECollectors(1, 0)[0] // proves block 1's operations as it executes
	bystander := collector%cfg.N() + 1
	if bystander == cfg.Primary(0) {
		bystander = bystander%cfg.N() + 1
	}

	t.Run("checkpoint capture", func(t *testing.T) {
		rg := counterRig(t, bystander, &brokenApp{failSnapshot: true}, nil, nil)
		commitBlock(t, rg, 1, reqs)
		if rg.r.LastExecuted() != 1 || rg.r.Metrics.CaptureFailures != 1 {
			t.Fatalf("executed %d with CaptureFailures = %d, want 1 and 1", rg.r.LastExecuted(), rg.r.Metrics.CaptureFailures)
		}
		if rg.sentOfType(func(m Message) bool { _, ok := m.(CheckpointShareMsg); return ok }) != 0 {
			t.Fatal("a checkpoint share went out over a capture that failed")
		}
	})
	t.Run("operation proof", func(t *testing.T) {
		rg := counterRig(t, collector, &brokenApp{failProve: true}, nil, nil)
		commitBlock(t, rg, 1, reqs)
		if rg.r.Metrics.CaptureFailures != 1 {
			t.Fatalf("CaptureFailures = %d, want 1", rg.r.Metrics.CaptureFailures)
		}
	})
	t.Run("share signing", func(t *testing.T) {
		for name, breakKeys := range map[string]func(*ReplicaKeys){
			"tau":   func(k *ReplicaKeys) { k.Tau = brokenSigner{bystander} },
			"sigma": func(k *ReplicaKeys) { k.Sigma = brokenSigner{bystander} },
			"pi":    func(k *ReplicaKeys) { k.Pi = brokenSigner{bystander} },
		} {
			rg := counterRig(t, bystander, &fakeApp{}, nil, breakKeys)
			commitBlock(t, rg, 1, reqs)
			want := uint64(1) // the sign-share of block 1
			if name == "pi" {
				want = 2 // its sign-state share and its checkpoint share
			}
			if got := rg.r.Metrics.CaptureFailures; got != want {
				t.Errorf("%s key broken: CaptureFailures = %d, want %d", name, got, want)
			}
		}
	})
	t.Run("root disagrees with the certified digest", func(t *testing.T) {
		rg := counterRig(t, bystander, &fakeApp{}, nil, nil)
		commitBlock(t, rg, 1, reqs)
		other := []byte("a root this replica did not capture")
		for i := 1; i <= rg.cfg.QuorumExec(); i++ {
			sh, err := rg.keys[i-1].Pi.Sign(CheckpointSigDigest(1, other))
			if err != nil {
				t.Fatal(err)
			}
			rg.r.Deliver(i, CheckpointShareMsg{Seq: 1, Replica: i, Digest: other, PiSig: sh})
		}
		if rg.r.LastStable() != 1 || rg.r.SnapshotSeq() != 0 || rg.r.Metrics.CaptureFailures != 1 {
			t.Fatalf("stable %d, serving %d, CaptureFailures = %d; want 1, 0 and 1",
				rg.r.LastStable(), rg.r.SnapshotSeq(), rg.r.Metrics.CaptureFailures)
		}
	})
	// A fetched snapshot the host refuses to install is
	// TestFetcherInstallErrorStartsOverAtTheSameTarget's.
}

// TestCaptureRefusesUnchunkedApp: an application that answers
// SnapshotChunks with ok=false has given the engine nothing to commit.
// The checkpoint is a capture failure — counted, with no π share sent —
// not a fall back to some other layout.
func TestCaptureRefusesUnchunkedApp(t *testing.T) {
	rg := counterRig(t, 2, &brokenApp{noChunks: true}, nil, nil)
	commitBlock(t, rg, 1, []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("op")}})
	if rg.r.LastExecuted() != 1 || rg.r.Metrics.CaptureFailures != 1 {
		t.Fatalf("executed %d with CaptureFailures = %d, want 1 and 1", rg.r.LastExecuted(), rg.r.Metrics.CaptureFailures)
	}
	if rg.sentOfType(func(m Message) bool { s, ok := m.(CheckpointShareMsg); return ok && s.Seq == 1 }) != 0 {
		t.Fatal("a checkpoint share went out for a capture the application refused")
	}
	if _, ok := rg.r.snaps.pendingSnap[1]; ok {
		t.Fatal("a refused capture is pending adoption")
	}
}
