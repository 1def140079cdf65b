package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"sbft/internal/merkle"
)

// The fetcher on its own: a fake host and the fake Env, no Replica.

// fakeHost is a fetchHost that records what it is asked to install.
type fakeHost struct {
	le        uint64
	installed []uint64
	err       error                    // returned by install when set
	onInstall func(*CertifiedSnapshot) // runs first, inside install
}

func (h *fakeHost) LastExecuted() uint64 { return h.le }

func (h *fakeHost) install(cs *CertifiedSnapshot) error {
	if h.onInstall != nil {
		h.onInstall(cs)
	}
	if h.err != nil {
		return h.err
	}
	h.installed = append(h.installed, cs.Seq)
	h.le = cs.Seq
	return nil
}

// fetchRig is a fetcher for replica 1 over a fake host. Its rig part has
// no replica: it only deals the keys that certify the snapshots served.
type fetchRig struct {
	*rig
	host *fakeHost
	ft   *fetcher
}

func newFetchRig(t *testing.T, tune func(*Config)) *fetchRig {
	t.Helper()
	cfg := DefaultConfig(1, 0)
	if tune != nil {
		tune(&cfg)
	}
	suite, keys, err := InsecureSuite(cfg, "fetcher-test")
	if err != nil {
		t.Fatal(err)
	}
	rg := &rig{t: t, cfg: cfg, suite: suite, keys: keys, env: &fakeEnv{}, app: &fakeApp{}}
	host := &fakeHost{}
	metrics := &Metrics{}
	snaps := newSnapChain(cfg.snapshotRetain(), rg.env, metrics)
	return &fetchRig{rig: rg, host: host, ft: &fetcher{
		id: 1, cfg: cfg, env: rg.env, pi: suite.Pi, host: host, snaps: &snaps,
		metrics: metrics, blames: make(map[int]int),
	}}
}

// adoptMeta feeds snapshot metadata from server `from` and waits out the
// meta-collection window.
func (fr *fetchRig) adoptMeta(m SnapshotMetaMsg, from int) {
	fr.ft.onSnapshotMeta(from, m)
	fr.env.advance(snapshotMetaWait + time.Millisecond)
}

func isFetchState(m Message) bool { _, ok := m.(FetchStateMsg); return ok }

func TestFetcherWindowNeverExceeded(t *testing.T) {
	fr := newFetchRig(t, nil)
	cs := certifiedSized(t, fr.rig, 4, tinyChunks(100), nil)
	if len(cs.Chunks) < 3*fetchWindow {
		t.Fatalf("snapshot has %d chunks; the test needs several windows", len(cs.Chunks))
	}
	fr.ft.want(4)
	fr.adoptMeta(metaOf(t, cs), 2)
	for fr.ft.fetch != nil {
		f := fr.ft.fetch
		if len(f.inflight) == 0 || len(f.inflight) > fetchWindow {
			t.Fatalf("%d requests in flight with %d chunks missing, window %d", len(f.inflight), f.missing, fetchWindow)
		}
		// Answer the lowest outstanding request from whoever was asked.
		next, server := 0, 0
		for idx, req := range f.inflight {
			if next == 0 || idx < next {
				next, server = idx, req.server
			}
		}
		fr.ft.onSnapshotChunk(server, chunkOf(t, cs, next))
	}
	if len(fr.host.installed) != 1 || fr.host.installed[0] != 4 {
		t.Fatalf("installed %v, want [4]", fr.host.installed)
	}
	if got := int(fr.ft.metrics.SnapshotChunks); got != len(cs.Chunks) {
		t.Fatalf("fetched %d chunks, snapshot has %d", got, len(cs.Chunks))
	}
}

func TestFetcherTamperedChunkBlamedAndRequestedElsewhere(t *testing.T) {
	fr := newFetchRig(t, nil)
	cs := certifiedAt(t, fr.rig, 4, nil)
	fr.ft.want(4)
	fr.adoptMeta(metaOf(t, cs), 2)

	f := fr.ft.fetch
	evil := 0
	for idx, req := range f.inflight {
		if req.server == 2 {
			evil = idx
		}
	}
	if evil == 0 {
		t.Fatal("nothing was requested from server 2")
	}
	bad := chunkOf(t, cs, evil)
	bad.Data = append([]byte(nil), bad.Data...)
	bad.Data[0] ^= 0xFF
	fr.ft.onSnapshotChunk(2, bad)

	if fr.ft.blames[2] != 1 || fr.ft.metrics.SnapshotBlames != 1 || !f.blamed[2] {
		t.Fatalf("tampering server not blamed: blames %v, excluded %v", fr.ft.blames, f.blamed)
	}
	if req, ok := f.inflight[evil]; !ok || req.server == 2 {
		t.Fatalf("chunk %d not re-requested from another server (in flight: %v, %+v)", evil, ok, req)
	}
	for i := 1; i <= len(cs.Chunks); i++ {
		fr.ft.onSnapshotChunk(3, chunkOf(t, cs, i))
	}
	if len(fr.host.installed) != 1 {
		t.Fatalf("transfer did not complete after the blame: installed %v", fr.host.installed)
	}
}

// TestForgedLeafListRefused: a meta whose leaf list does not hash to its
// certified root, has the wrong shape, or does not commit to its header is
// refused and blames its sender, which then gets no chunk request; so is
// a consistent snapshot whose root π does not certify. An honest meta
// completes the transfer. The snapshot has 7 chunks, so 8 leaves: the last
// four can be replaced by the subtree node above them and the list still
// hashes to the root.
func TestForgedLeafListRefused(t *testing.T) {
	subtree := func(l []merkle.Digest) merkle.Digest {
		return merkle.InteriorHash(merkle.InteriorHash(l[0], l[1]), merkle.InteriorHash(l[2], l[3]))
	}
	uncertified := NewCertifiedSnapshotChunked(8, []byte{0}, tinyChunks(7), encodeReplyTable(nil), nil)
	for _, tc := range []struct {
		name  string
		forge func(m *SnapshotMetaMsg)
	}{
		{"flipped leaf", func(m *SnapshotMetaMsg) { m.Leaves[2][0] ^= 1 }},
		{"one leaf short", func(m *SnapshotMetaMsg) { m.Leaves = m.Leaves[:len(m.Leaves)-1] }},
		{"one leaf extra", func(m *SnapshotMetaMsg) { m.Leaves = append(m.Leaves, m.Leaves[len(m.Leaves)-1]) }},
		{"header leaf moved", func(m *SnapshotMetaMsg) { m.Leaves[0], m.Leaves[1] = m.Leaves[1], m.Leaves[0] }},
		{"subtree for its leaves", func(m *SnapshotMetaMsg) { m.Leaves = append(m.Leaves[:4], subtree(m.Leaves[4:])) }},
		{"header not its leaf", func(m *SnapshotMetaMsg) { m.Header.AppDigest = []byte("forged") }},
		{"root not certified", func(m *SnapshotMetaMsg) {
			m.Root, m.Header, m.Leaves = uncertified.Root(), uncertified.Header, uncertified.Leaves()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := newFetchRig(t, nil)
			cs := certifiedSized(t, fr.rig, 8, tinyChunks(6), nil)
			if len(cs.Leaves()) != 8 {
				t.Fatalf("snapshot has %d leaves, the forgeries assume 8", len(cs.Leaves()))
			}
			fr.ft.want(8)

			forged := metaOf(t, cs)
			forged.Leaves = slices.Clone(forged.Leaves)
			tc.forge(&forged)
			fr.adoptMeta(forged, 2)
			if f := fr.ft.fetch; f.seq != 0 {
				t.Fatalf("forged leaf list adopted at %d", f.seq)
			}
			if fr.ft.blames[2] != 1 || !fr.ft.fetch.blamed[2] {
				t.Fatalf("forger not blamed: blames %v", fr.ft.blames)
			}

			fr.adoptMeta(metaOf(t, cs), 3)
			for _, s := range fr.env.sent {
				if _, ok := s.msg.(FetchSnapshotChunkMsg); ok && s.to == 2 {
					t.Fatal("chunk requested from the forger")
				}
			}
			for i := 1; i <= len(cs.Chunks); i++ {
				fr.ft.onSnapshotChunk(3, chunkOf(t, cs, i))
			}
			if len(fr.host.installed) != 1 || fr.host.installed[0] != 8 {
				t.Fatalf("installed %v, want [8]", fr.host.installed)
			}
		})
	}
}

func TestFetcherInstallErrorStartsOverAtTheSameTarget(t *testing.T) {
	fr := newFetchRig(t, nil)
	fr.host.err = errors.New("restore failed")
	cs := certifiedAt(t, fr.rig, 8, nil)
	fr.ft.want(6)
	fr.adoptMeta(metaOf(t, cs), 2)
	old := fr.ft.fetch
	asked := fr.sentOfType(isFetchState)
	for i := 1; i <= len(cs.Chunks); i++ {
		fr.ft.onSnapshotChunk(3, chunkOf(t, cs, i))
	}
	f := fr.ft.fetch
	if f == nil || f == old || f.target != 6 || f.seq != 0 {
		t.Fatalf("after a failed install: transfer %+v, want a fresh one with target 6", f)
	}
	if fr.ft.metrics.StateFetches != 2 || fr.sentOfType(isFetchState) <= asked {
		t.Fatalf("no second transfer started (%d fetches, %d→%d metadata requests)",
			fr.ft.metrics.StateFetches, asked, fr.sentOfType(isFetchState))
	}
	if old.retry.armed() || old.pacer.armed() || old.metaTimer.armed() {
		t.Fatal("the failed transfer left a timer armed")
	}
	if got := fr.ft.metrics.CaptureFailures; got != 1 {
		t.Fatalf("CaptureFailures = %d after one refused install, want 1", got)
	}
}

func TestFetcherClearedBeforeInstall(t *testing.T) {
	fr := newFetchRig(t, nil)
	cs := certifiedAt(t, fr.rig, 4, nil)
	fr.ft.want(4)
	fr.adoptMeta(metaOf(t, cs), 2)
	old := fr.ft.fetch
	ran := false
	fr.host.onInstall = func(cs *CertifiedSnapshot) {
		ran = true
		if fr.ft.fetch != nil || old.retry.armed() || old.pacer.armed() {
			t.Errorf("install ran with the transfer still in flight (%v) or its timers armed", fr.ft.fetch != nil)
		}
		// What Replica.install does through recordStable: the snapshot is
		// not in yet and the next stable point is already known.
		fr.ft.want(cs.Seq + 4)
	}
	for i := 1; i <= len(cs.Chunks); i++ {
		fr.ft.onSnapshotChunk(3, chunkOf(t, cs, i))
	}
	if !ran {
		t.Fatal("install never ran")
	}
	f := fr.ft.fetch
	if f == nil || f == old || f.target != 8 {
		t.Fatalf("the transfer install asked for was lost: %+v", f)
	}
	if len(fr.host.installed) != 1 || fr.ft.metrics.StateFetches != 2 {
		t.Fatalf("installed %v over %d transfers, want [4] over 2", fr.host.installed, fr.ft.metrics.StateFetches)
	}
}
