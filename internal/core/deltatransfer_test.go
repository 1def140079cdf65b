package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"sbft/internal/storage"
)

// Tests for incremental checkpoints and delta-based state transfer: the
// bounded retention chain of snapshot generations, per-generation delta
// sets, delta-advertising metadata, prefill from locally held bases, and
// the satellite fixes that ride along (pendingSnap GC, laggard-server
// demotion, durable-point retention gating).

// chunkSnaps builds two same-shape app snapshots (3 full chunks) that
// differ only inside the second chunk, so the certified delta between
// them is exactly chunk index 2.
func chunkSnaps() (a, b [][]byte) {
	a = splitChunks(bytes.Repeat([]byte{0xA1}, 3*SnapshotChunkSize), SnapshotChunkSize)
	b = slices.Clone(a)
	b[1] = bytes.Clone(b[1])
	b[1][100] ^= 0xFF
	return a, b
}

// deltaMetaOf is metaOf plus the advisory delta fields.
func deltaMetaOf(t *testing.T, cs *CertifiedSnapshot, base uint64, delta []int) SnapshotMetaMsg {
	t.Helper()
	m := metaOf(t, cs)
	m.DeltaBase = base
	m.DeltaChunks = delta
	return m
}

func TestSnapshotDeltaLeafDiff(t *testing.T) {
	sa, sb := chunkSnaps()
	csA := NewCertifiedSnapshotChunked(4, []byte{0}, sa, encodeReplyTable(nil), nil)
	csB := NewCertifiedSnapshotChunked(8, []byte{0}, sb, encodeReplyTable(nil), nil)
	got := snapshotDelta(csA, csB)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("snapshotDelta = %v, want [2]", got)
	}
	// Growth: a successor with more chunks includes every new index.
	csC := certifiedSplit(12, []byte{0}, bytes.Repeat([]byte{0xA1}, 5*SnapshotChunkSize), encodeReplyTable(nil))
	grown := snapshotDelta(csA, csC)
	want := map[int]bool{5: true, 6: true} // two new app chunks (table chunk shifts index)
	for _, idx := range grown {
		delete(want, idx)
	}
	if len(want) != 0 {
		t.Fatalf("snapshotDelta growth %v missed new indexes %v", grown, want)
	}
}

func TestRetentionChainBounded(t *testing.T) {
	rg := newRig(t, 1, func(c *Config) { c.SnapshotRetain = 3 })
	for seq := uint64(4); seq <= 24; seq += 4 {
		rg.r.snaps.adopt(certifiedAt(t, rg, seq, nil))
	}
	got := rg.r.RetainedSnapshotSeqs()
	want := []uint64{16, 20, 24}
	if len(got) != len(want) {
		t.Fatalf("retained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retained %v, want %v", got, want)
		}
	}
	// Every retained generation past the first carries a known delta.
	for i, g := range rg.r.snaps.snapGens {
		if i > 0 && !g.deltaKnown {
			t.Fatalf("generation %d adopted in sequence lacks its delta", g.cs.Seq)
		}
	}
}

func TestDeltaSinceUnionAcrossGenerations(t *testing.T) {
	rg := newRig(t, 1, nil)
	sa, sb := chunkSnaps()
	sc := slices.Clone(sb)
	sc[0] = bytes.Clone(sc[0])
	sc[0][100] ^= 0xFF // third generation additionally dirties chunk 1
	rg.r.snaps.adopt(certifiedSized(t, rg, 4, sa, nil))
	rg.r.snaps.adopt(certifiedSized(t, rg, 8, sb, nil))
	rg.r.snaps.adopt(certifiedSized(t, rg, 12, sc, nil))

	delta, ok := rg.r.snaps.deltaSince(4)
	if !ok {
		t.Fatal("deltaSince(4) not servable despite full retention")
	}
	if len(delta) != 2 || delta[0] != 1 || delta[1] != 2 {
		t.Fatalf("deltaSince(4) = %v, want [1 2]", delta)
	}
	delta, ok = rg.r.snaps.deltaSince(8)
	if !ok || len(delta) != 1 || delta[0] != 1 {
		t.Fatalf("deltaSince(8) = %v (ok=%v), want [1]", delta, ok)
	}
	if _, ok := rg.r.snaps.deltaSince(2); ok {
		t.Fatal("deltaSince served for a base never retained")
	}
}

// TestServerAdvertisesDelta: a FetchState carrying HaveSeq for a retained
// generation gets metadata with the delta fields populated; an unknown
// base gets plain full-transfer metadata.
func TestServerAdvertisesDelta(t *testing.T) {
	rg := newRig(t, 1, nil)
	sa, sb := chunkSnaps()
	rg.r.snaps.adopt(certifiedSized(t, rg, 4, sa, nil))
	rg.r.snaps.adopt(certifiedSized(t, rg, 8, sb, nil))

	before := len(rg.env.sent)
	rg.r.Deliver(2, FetchStateMsg{Replica: 2, Seq: 8, HaveSeq: 4})
	var meta *SnapshotMetaMsg
	for _, s := range rg.env.sent[before:] {
		if m, ok := s.msg.(SnapshotMetaMsg); ok && s.to == 2 {
			mm := m
			meta = &mm
		}
	}
	if meta == nil {
		t.Fatal("no metadata served")
	}
	if meta.DeltaBase != 4 || len(meta.DeltaChunks) != 1 || meta.DeltaChunks[0] != 2 {
		t.Fatalf("delta advertisement = base %d chunks %v, want base 4 chunks [2]", meta.DeltaBase, meta.DeltaChunks)
	}

	before = len(rg.env.sent)
	rg.r.Deliver(2, FetchStateMsg{Replica: 2, Seq: 8, HaveSeq: 3})
	for _, s := range rg.env.sent[before:] {
		if m, ok := s.msg.(SnapshotMetaMsg); ok {
			if m.DeltaBase != 0 || m.DeltaChunks != nil {
				t.Fatalf("unknown base got delta advertisement: base %d chunks %v", m.DeltaBase, m.DeltaChunks)
			}
		}
	}
}

// TestDeltaTransferPrefillsFromRetainedBase: the tentpole fetcher path. A
// laggard holding generation 4 asks for 8; the meta's delta names one
// changed chunk; every other chunk is seeded locally and only the delta
// crosses the wire.
func TestDeltaTransferPrefillsFromRetainedBase(t *testing.T) {
	rg := newRig(t, 1, nil)
	sa, sb := chunkSnaps()
	cs4 := certifiedSized(t, rg, 4, sa, nil)
	cs8 := certifiedSized(t, rg, 8, sb, nil)
	rg.r.snaps.adopt(cs4)
	rg.r.lastExecuted = 4

	rg.r.fetcher.want(8)
	// The metadata poll advertises the held base.
	advertised := false
	for _, s := range rg.env.sent {
		if m, ok := s.msg.(FetchStateMsg); ok && m.HaveSeq == 4 {
			advertised = true
		}
	}
	if !advertised {
		t.Fatal("FetchState did not advertise the held base generation")
	}
	rg.r.Deliver(2, deltaMetaOf(t, cs8, 4, snapshotDelta(cs4, cs8)))
	rg.env.advance(snapshotMetaWait + time.Millisecond)

	f := rg.r.fetcher.fetch
	if f == nil || f.seq != 8 {
		t.Fatalf("transfer not adopted at 8")
	}
	if got := chunkReqCount(rg, 8); got != 1 {
		t.Fatalf("delta transfer requested %d chunks, want 1", got)
	}
	rg.r.Deliver(3, chunkOf(t, cs8, 2))
	if rg.r.LastExecuted() != 8 {
		t.Fatalf("delta transfer did not complete (le=%d, want 8)", rg.r.LastExecuted())
	}
	m := rg.r.Metrics
	if m.SnapshotDeltaTransfers != 1 {
		t.Fatalf("SnapshotDeltaTransfers = %d, want 1", m.SnapshotDeltaTransfers)
	}
	if want := uint64(len(cs8.Chunks) - 1); m.SnapshotChunksReused != want {
		t.Fatalf("SnapshotChunksReused = %d, want %d", m.SnapshotChunksReused, want)
	}
	if m.SnapshotTransferRestarts != 0 {
		t.Fatalf("delta transfer counted %d restarts", m.SnapshotTransferRestarts)
	}
	if m.SnapshotBlames != 0 {
		t.Fatalf("honest delta transfer recorded %d blames", m.SnapshotBlames)
	}
	if rg.r.SnapshotSeq() != 8 {
		t.Fatalf("completed delta transfer not servable (SnapshotSeq=%d)", rg.r.SnapshotSeq())
	}
}

// TestMidTransferSupersessionKeepsProgressViaDelta: a checkpoint
// superseding the snapshot mid-transfer, with a delta against the
// in-flight base, carries every verified chunk forward — the transfer
// spans the interval boundary without restarting.
func TestMidTransferSupersessionKeepsProgressViaDelta(t *testing.T) {
	rg := newRig(t, 1, nil)
	sa, sb := chunkSnaps()
	cs4 := certifiedSized(t, rg, 4, sa, nil)
	cs8 := certifiedSized(t, rg, 8, sb, nil)

	rg.r.fetcher.want(4)
	deliverMeta(t, rg, cs4, 2)
	rg.r.Deliver(3, chunkOf(t, cs4, 1)) // verified progress on the old base
	if rg.r.fetcher.fetch.fetched != 1 {
		t.Fatalf("fetched = %d, want 1", rg.r.fetcher.fetch.fetched)
	}
	// Supersession with a delta against the in-flight base: adopted
	// immediately — no stall needed — and the verified chunk carries over.
	rg.r.Deliver(3, deltaMetaOf(t, cs8, 4, snapshotDelta(cs4, cs8)))
	f := rg.r.fetcher.fetch
	if f == nil || f.seq != 8 {
		t.Fatal("delta supersession not adopted")
	}
	if f.chunks[0] == nil {
		t.Fatal("verified chunk discarded across delta supersession")
	}
	if rg.r.Metrics.SnapshotTransferRestarts != 0 {
		t.Fatalf("delta supersession counted as restart")
	}
	// Remaining chunks (the changed one, and clean ones never fetched
	// against the old base) complete against the new snapshot.
	deliverAllChunks(t, rg, cs8, 4)
	if rg.r.LastExecuted() != 8 {
		t.Fatalf("superseded transfer did not complete at 8 (le=%d)", rg.r.LastExecuted())
	}
	if rg.r.Metrics.SnapshotTransferRestarts != 0 {
		t.Fatalf("restart counted on a progress-preserving supersession")
	}
}

// TestDiscardingSupersessionCountsRestart: a STALLED transfer superseded
// WITHOUT a usable delta throws its fetched chunks away — that, and only
// that, is a transfer restart.
func TestDiscardingSupersessionCountsRestart(t *testing.T) {
	rg := newRig(t, 1, nil)
	old := certifiedAt(t, rg, 4, nil)
	newer := certifiedAt(t, rg, 8, nil)

	rg.r.fetcher.want(4)
	deliverMeta(t, rg, old, 2)
	rg.r.Deliver(3, chunkOf(t, old, 1)) // progress that will be lost
	rg.env.advance(2*rg.cfg.chunkRetryTimeout() + 100*time.Millisecond)
	rg.r.Deliver(3, metaOf(t, newer)) // no delta: full restart
	f := rg.r.fetcher.fetch
	if f == nil || f.seq != newer.Seq {
		t.Fatal("stalled transfer did not restart at the newer snapshot")
	}
	if rg.r.Metrics.SnapshotTransferRestarts != 1 {
		t.Fatalf("SnapshotTransferRestarts = %d, want 1", rg.r.Metrics.SnapshotTransferRestarts)
	}
}

// TestLyingDeltaListBlamedAndRefetched: the delta fields ride outside the
// π-certified root, so a Byzantine server can claim changed chunks clean.
// The reassembled root exposes the lie; the fetcher blames the meta
// sender, drops only the seeded chunks, and refetches them — verified
// progress survives and the transfer still completes.
func TestLyingDeltaListBlamedAndRefetched(t *testing.T) {
	rg := newRig(t, 1, nil)
	sa, sb := chunkSnaps()
	cs4 := certifiedSized(t, rg, 4, sa, nil)
	cs8 := certifiedSized(t, rg, 8, sb, nil)
	rg.r.snaps.adopt(cs4)
	rg.r.lastExecuted = 4

	rg.r.fetcher.want(8)
	// Server 2 lies: "nothing changed since 4" — so every chunk seeds
	// from the base, including the one that actually differs.
	rg.r.Deliver(2, deltaMetaOf(t, cs8, 4, nil))
	rg.env.advance(snapshotMetaWait + time.Millisecond)

	if rg.r.Metrics.SnapshotBlames != 1 || rg.r.SnapshotBlameCounts()[2] != 1 {
		t.Fatalf("lying meta sender not blamed: %d blames, counts %v",
			rg.r.Metrics.SnapshotBlames, rg.r.SnapshotBlameCounts())
	}
	f := rg.r.fetcher.fetch
	if f == nil {
		t.Fatal("transfer aborted instead of refetching the seeded chunks")
	}
	if f.missing != len(cs8.Chunks) {
		t.Fatalf("refetch covers %d chunks, want all %d (prefill untrusted wholesale)", f.missing, len(cs8.Chunks))
	}
	deliverAllChunks(t, rg, cs8, 3)
	if rg.r.LastExecuted() != 8 {
		t.Fatalf("transfer did not recover from a lying delta (le=%d)", rg.r.LastExecuted())
	}
	if rg.r.Metrics.SnapshotTransferRestarts != 0 {
		t.Fatalf("lying-delta recovery counted %d restarts", rg.r.Metrics.SnapshotTransferRestarts)
	}
}

// TestLaggardServerDemotedOnStaleMeta (fetcher side of the silent-drop
// fix): a server answering with metadata OLDER than the in-flight
// transfer has its outstanding requests expired immediately and takes
// timeout strikes toward soft exclusion — instead of each request routed
// to it burning a full retry timeout.
func TestLaggardServerDemotedOnStaleMeta(t *testing.T) {
	rg := newRig(t, 1, nil)
	old := certifiedAt(t, rg, 4, nil)
	cur := certifiedSized(t, rg, 8, splitChunks(bytes.Repeat([]byte("y"), 64*1024), SnapshotChunkSize), nil)

	rg.r.fetcher.want(8)
	deliverMeta(t, rg, cur, 3)
	f := rg.r.fetcher.fetch
	outstanding := 0
	for _, req := range f.inflight {
		if req.server == 2 {
			outstanding++
		}
	}
	if outstanding == 0 {
		t.Fatal("no requests routed to server 2; rebalance the rig")
	}
	before := chunkReqCount(rg, 8)
	for i := 0; i < fetchTimeoutStrikes; i++ {
		rg.r.Deliver(2, metaOf(t, old))
	}
	for idx, req := range f.inflight {
		if req.server == 2 {
			t.Fatalf("chunk %d still in flight to the demoted laggard", idx)
		}
	}
	if f.stats(2).timeouts < fetchTimeoutStrikes || !f.blamed[2] {
		t.Fatalf("laggard not excluded after %d stale metas (timeouts=%d, excluded=%v)",
			fetchTimeoutStrikes, f.stats(2).timeouts, f.blamed[2])
	}
	if rg.r.Metrics.SnapshotBlames != 0 {
		t.Fatal("stale metadata blamed as tampering")
	}
	if rg.r.Metrics.SnapshotTimeoutExclusions != 1 {
		t.Fatalf("exclusion counter = %d, want 1", rg.r.Metrics.SnapshotTimeoutExclusions)
	}
	if after := chunkReqCount(rg, 8); after <= before {
		t.Fatal("expired requests not re-routed to other servers")
	}
	deliverAllChunks(t, rg, cur, 3)
	if rg.r.LastExecuted() != 8 {
		t.Fatalf("transfer did not complete after demotion (le=%d)", rg.r.LastExecuted())
	}
}

// TestServerAnswersRequestForNewerSnapshot (server side of the
// silent-drop fix): a chunk request for a sequence NEWER than anything
// this server retains is answered with current metadata, so the fetcher
// learns immediately that this server is a laggard.
func TestServerAnswersRequestForNewerSnapshot(t *testing.T) {
	rg := newRig(t, 1, nil)
	cs4 := certifiedAt(t, rg, 4, nil)
	rg.r.snaps.adopt(cs4)

	before := len(rg.env.sent)
	rg.r.Deliver(2, FetchSnapshotChunkMsg{Replica: 2, Seq: 8, Index: 1})
	answered := false
	for _, s := range rg.env.sent[before:] {
		if m, ok := s.msg.(SnapshotMetaMsg); ok && s.to == 2 && m.Seq == 4 {
			answered = true
		}
		if _, ok := s.msg.(SnapshotChunkMsg); ok {
			t.Fatal("server fabricated a chunk for a snapshot it does not hold")
		}
	}
	if !answered {
		t.Fatal("request for a newer snapshot dropped silently")
	}
}

// TestPendingSnapshotGCWhenCatchUpSkipsCheckpoint: a capture whose
// checkpoint sequence is skipped by state-transfer catch-up must still be
// collected — both when stability is first learned while behind, and on
// the early-return re-recording path (install re-enters
// recordStable for an already-stable sequence).
func TestPendingSnapshotGCWhenCatchUpSkipsCheckpoint(t *testing.T) {
	rg := newRig(t, 1, nil)
	cs8 := certifiedAt(t, rg, 8, nil)
	rg.r.snaps.pendingSnap[4] = certifiedAt(t, rg, 4, nil)

	// Stability at 8 learned while behind (lastExecuted=0): the adoption
	// block is skipped, the dead capture at 4 must not be.
	rg.r.recordStable(8, cs8.Root(), cs8.Pi)
	if len(rg.r.snaps.pendingSnap) != 0 {
		t.Fatalf("pendingSnap leaked %d captures on behind-recording", len(rg.r.snaps.pendingSnap))
	}

	// Early-return re-recording of the already-stable checkpoint.
	rg.r.snaps.pendingSnap[6] = certifiedAt(t, rg, 6, nil)
	rg.r.recordStable(8, cs8.Root(), cs8.Pi)
	if len(rg.r.snaps.pendingSnap) != 0 {
		t.Fatalf("pendingSnap leaked %d captures on early-return re-recording", len(rg.r.snaps.pendingSnap))
	}
}

// TestDurableNotArmedForEvictedGeneration: an async persist completing
// after retention evicted its generation must not advance the durable
// serving point — the replica can no longer serve those chunks, and a
// later prune may have removed the file the point would promise.
func TestDurableNotArmedForEvictedGeneration(t *testing.T) {
	rg := newRig(t, 1, func(c *Config) { c.SnapshotRetain = 1 })
	sink := &recordingSink{}
	rg.r.SetSnapshotSink(sink)

	rg.r.snaps.adopt(certifiedAt(t, rg, 4, nil))
	rg.r.snaps.adopt(certifiedAt(t, rg, 8, nil)) // evicts 4
	if len(sink.seqs) != 2 {
		t.Fatalf("sink received %v, want [4 8]", sink.seqs)
	}
	sink.done[0](nil) // late completion for the evicted generation
	if rg.r.DurableSnapshotSeq() != 0 {
		t.Fatalf("durable point armed at %d for an evicted generation", rg.r.DurableSnapshotSeq())
	}
	if rg.r.Metrics.SnapshotPersists != 0 {
		t.Fatal("evicted-generation persist counted")
	}
	sink.done[1](nil)
	if rg.r.DurableSnapshotSeq() != 8 {
		t.Fatalf("durable point = %d, want 8", rg.r.DurableSnapshotSeq())
	}
}

// TestRestartRearmsRetainedSnapshot: the durable store holds the pruned
// retention window; a restarted replica re-arms serving from the newest
// durable snapshot as a single-generation chain (cross-restart delta
// continuity is not reconstructed) and re-offers current metadata for
// anything older.
func TestRestartRearmsRetainedSnapshot(t *testing.T) {
	rg := newRig(t, 1, nil)
	led, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	for seq := uint64(1); seq <= 12; seq++ {
		reqs := []Request{{Client: ClientBase, Timestamp: seq, Op: []byte("op")}}
		if err := led.Append(seq, EncodeBlockPayload(reqs, [][]byte{[]byte("ok")})); err != nil {
			t.Fatal(err)
		}
	}
	cs8 := certifiedAt(t, rg, 8, nil)
	cs12 := certifiedAt(t, rg, 12, nil)
	if err := PersistCertified(led, cs8, 8); err != nil {
		t.Fatal(err)
	}
	if err := PersistCertified(led, cs12, 8); err != nil {
		t.Fatal(err)
	}

	r2, err := NewReplica(1, rg.cfg, rg.suite, rg.keys[0], &fakeApp{}, &fakeEnv{}, led)
	if err != nil {
		t.Fatal(err)
	}
	if r2.SnapshotSeq() != 12 || r2.DurableSnapshotSeq() != 12 {
		t.Fatalf("restart re-armed at %d/%d, want 12/12", r2.SnapshotSeq(), r2.DurableSnapshotSeq())
	}
	if got := r2.RetainedSnapshotSeqs(); len(got) != 1 || got[0] != 12 {
		t.Fatalf("restart chain %v, want [12]", got)
	}
}
