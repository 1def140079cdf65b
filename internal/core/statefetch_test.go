package core

import (
	"bytes"
	"errors"
	"testing"
	"time"
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
	snaps := newSnapChain(cfg.snapshotRetain(), rg.env, nil, metrics)
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
	fr := newFetchRig(t, func(c *Config) { c.FetchWindow = 3 })
	cs := certifiedSized(t, fr.rig, 4, bytes.Repeat([]byte("w"), 10*SnapshotChunkSize), nil)
	if len(cs.Chunks) < 9 {
		t.Fatalf("snapshot has %d chunks; the test needs several windows", len(cs.Chunks))
	}
	fr.ft.want(4)
	fr.adoptMeta(metaOf(t, cs), 2)
	for fr.ft.fetch != nil {
		f := fr.ft.fetch
		if len(f.inflight) == 0 || len(f.inflight) > 3 {
			t.Fatalf("%d requests in flight with %d chunks missing, window 3", len(f.inflight), f.missing)
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

func TestFetcherLyingDeltaCostsOnlyThePrefill(t *testing.T) {
	fr := newFetchRig(t, nil)
	sa, sb := chunkSnaps() // they differ in chunk 2 only
	cs4 := certifiedSized(t, fr.rig, 4, sa, nil)
	cs8 := certifiedSized(t, fr.rig, 8, sb, nil)
	fr.ft.snaps.adopt(cs4)
	fr.host.le = 4

	fr.ft.want(8)
	// Server 2 lies: "only chunk 1 changed since 4". Chunk 1 is fetched;
	// the rest, the changed chunk 2 among them, is seeded from the base.
	fr.adoptMeta(deltaMetaOf(t, cs8, 4, []int{1}), 2)
	f := fr.ft.fetch
	if f.missing != 1 || len(f.prefilled) != len(cs8.Chunks)-1 {
		t.Fatalf("missing %d, prefilled %v: want 1 to fetch and the rest seeded", f.missing, f.prefilled)
	}
	fr.ft.onSnapshotChunk(3, chunkOf(t, cs8, 1))

	if fr.ft.fetch != f || len(fr.host.installed) != 0 {
		t.Fatal("a snapshot that does not reproduce the certified root was handed to the host")
	}
	if fr.ft.blames[2] != 1 {
		t.Fatalf("the delta's sender was not blamed: %v", fr.ft.blames)
	}
	if f.chunks[0] == nil || f.missing != len(cs8.Chunks)-1 {
		t.Fatalf("missing %d of %d (chunk 1 kept: %v): the lie must cost the seeded chunks and no verified one",
			f.missing, len(cs8.Chunks), f.chunks[0] != nil)
	}
	for i := 2; i <= len(cs8.Chunks); i++ {
		fr.ft.onSnapshotChunk(3, chunkOf(t, cs8, i))
	}
	if len(fr.host.installed) != 1 || fr.host.installed[0] != 8 {
		t.Fatalf("installed %v, want [8]", fr.host.installed)
	}
	if fr.ft.metrics.SnapshotTransferRestarts != 0 {
		t.Fatalf("recovering from the lie counted %d restarts", fr.ft.metrics.SnapshotTransferRestarts)
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
