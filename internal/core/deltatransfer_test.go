package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"sbft/internal/storage"
)

// Tests for incremental checkpoints and chunk reuse in state transfer: the
// bounded retention chain of snapshot generations, reuse of every chunk
// held under an equal leaf of the certified leaf list, and the fixes that
// ride along (pendingSnap GC, answers to requests for a newer snapshot,
// durable-point retention gating).

// chunkSnaps builds two same-shape app snapshots (3 full chunks) that
// differ only inside the second chunk, so their leaf lists differ at
// chunk index 2 alone.
func chunkSnaps() (a, b [][]byte) {
	a = splitChunks(bytes.Repeat([]byte{0xA1}, 3*SnapshotChunkSize), SnapshotChunkSize)
	b = slices.Clone(a)
	b[1] = bytes.Clone(b[1])
	b[1][100] ^= 0xFF
	return a, b
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
}

// TestDeltaTransferPrefillsFromRetainedBase: a laggard holding generation
// 4 asks for 8; the meta's leaf list differs from 4's at one chunk; every
// other chunk is seeded locally and only the changed one crosses the wire.
func TestDeltaTransferPrefillsFromRetainedBase(t *testing.T) {
	rg := newRig(t, 1, nil)
	sa, sb := chunkSnaps()
	cs4 := certifiedSized(t, rg, 4, sa, nil)
	cs8 := certifiedSized(t, rg, 8, sb, nil)
	rg.r.snaps.adopt(cs4)
	rg.r.lastExecuted = 4

	rg.r.fetcher.want(8)
	deliverMeta(t, rg, cs8, 2)

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
	if m.SnapshotReuseTransfers != 1 {
		t.Fatalf("SnapshotReuseTransfers = %d, want 1", m.SnapshotReuseTransfers)
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

// TestTransferReusesBaseServerNoLongerRetains: reuse needs nothing of the
// server but the snapshot it serves. The fetcher holds generation 4; the
// only server asked retains generation 8 alone, having evicted 4, and its
// meta for 8 still lets the fetcher reuse every chunk the two share, so
// only the changed chunk is requested.
func TestTransferReusesBaseServerNoLongerRetains(t *testing.T) {
	rg := newRig(t, 1, nil)
	sa, sb := chunkSnaps()
	cs4 := certifiedSized(t, rg, 4, sa, nil)
	cs8 := certifiedSized(t, rg, 8, sb, nil)
	rg.r.snaps.adopt(cs4)
	rg.r.lastExecuted = 4

	server := newRig(t, 2, func(c *Config) { c.SnapshotRetain = 1 })
	server.r.snaps.adopt(cs4)
	server.r.snaps.adopt(cs8)
	if got := server.r.RetainedSnapshotSeqs(); len(got) != 1 || got[0] != 8 {
		t.Fatalf("server retains %v, want [8]", got)
	}

	// The fetcher's metadata request reaches server 2, and its answer
	// comes back; the other servers stay silent.
	rg.r.fetcher.want(8)
	for _, s := range rg.env.sent {
		if m, ok := s.msg.(FetchStateMsg); ok && s.to == 2 {
			server.r.Deliver(1, m)
		}
	}
	for _, s := range server.env.sent {
		if m, ok := s.msg.(SnapshotMetaMsg); ok && s.to == 1 {
			rg.r.Deliver(2, m)
		}
	}
	rg.env.advance(snapshotMetaWait + time.Millisecond)

	if f := rg.r.fetcher.fetch; f == nil || f.seq != 8 {
		t.Fatal("transfer not adopted at 8")
	}
	if got := chunkReqCount(rg, 8); got != 1 {
		t.Fatalf("requested %d of %d chunks, want only the changed one", got, len(cs8.Chunks))
	}
	rg.r.Deliver(2, chunkOf(t, cs8, 2))
	if rg.r.LastExecuted() != 8 {
		t.Fatalf("transfer did not complete (le=%d, want 8)", rg.r.LastExecuted())
	}
	if want := uint64(len(cs8.Chunks) - 1); rg.r.Metrics.SnapshotChunksReused != want {
		t.Fatalf("SnapshotChunksReused = %d, want %d", rg.r.Metrics.SnapshotChunksReused, want)
	}
}

// TestMidTransferSupersessionKeepsProgressViaDelta: a checkpoint
// superseding the snapshot mid-transfer, whose leaf list repeats a chunk
// already verified, carries that chunk forward — the transfer spans the
// interval boundary without restarting.
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
	// Supersession by a snapshot that repeats chunk 1's leaf: adopted
	// immediately — no stall needed — and the verified chunk carries over.
	rg.r.Deliver(3, metaOf(t, cs8))
	f := rg.r.fetcher.fetch
	if f == nil || f.seq != 8 {
		t.Fatal("supersession carrying a verified chunk not adopted")
	}
	if f.chunks[0] == nil {
		t.Fatal("verified chunk discarded across the supersession")
	}
	if rg.r.Metrics.SnapshotTransferRestarts != 0 {
		t.Fatalf("progress-preserving supersession counted as restart")
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
// by a snapshot that repeats none of its fetched chunks throws them away —
// that, and only that, is a transfer restart.
func TestDiscardingSupersessionCountsRestart(t *testing.T) {
	rg := newRig(t, 1, nil)
	old := certifiedAt(t, rg, 4, nil)
	newer := certifiedSized(t, rg, 8, [][]byte{bytes.Repeat([]byte("next"), 64)}, nil)

	rg.r.fetcher.want(4)
	deliverMeta(t, rg, old, 2)
	rg.r.Deliver(3, chunkOf(t, old, 1)) // progress that will be lost
	rg.env.advance(2*chunkRetryTimeout + 100*time.Millisecond)
	rg.r.Deliver(3, metaOf(t, newer)) // chunk 1 changed: nothing carries over
	f := rg.r.fetcher.fetch
	if f == nil || f.seq != newer.Seq {
		t.Fatal("stalled transfer did not restart at the newer snapshot")
	}
	if rg.r.Metrics.SnapshotTransferRestarts != 1 {
		t.Fatalf("SnapshotTransferRestarts = %d, want 1", rg.r.Metrics.SnapshotTransferRestarts)
	}
}

// TestChunkRequestExpiresAtTheConstantDeadline: however slowly a server
// answered before, a request it leaves unanswered for chunkRetryTimeout is
// re-issued at the next pacer tick, and fetchTimeoutStrikes such rounds
// exclude it. Server 2 answers its first request after 900 ms, past the
// deadline, then falls silent; servers 3 and 4 answer every request within
// a tick, after 300 ms at first.
func TestChunkRequestExpiresAtTheConstantDeadline(t *testing.T) {
	const tick = chunkRetryTimeout / 2 // the pacer's period
	rg := newRig(t, 1, func(c *Config) {
		c.ViewChangeTimeout = time.Minute // whole-transfer retry far away
	})
	cs := certifiedSized(t, rg, 4, tinyChunks(8*fetchWindow), nil)
	rg.r.fetcher.want(4)
	deliverMeta(t, rg, cs, 2)
	f := rg.r.fetcher.fetch
	first := -1
	for idx, req := range f.inflight {
		if req.server == 2 && (first < 0 || idx < first) {
			first = idx
		}
	}
	if first < 0 {
		t.Fatal("no request routed to server 2; rebalance the rig")
	}
	answer := func() { // servers 3 and 4 answer what they were asked
		var idxs []int
		for idx, req := range f.inflight {
			if req.server != 2 {
				idxs = append(idxs, idx)
			}
		}
		slices.Sort(idxs)
		for _, idx := range idxs {
			if req, ok := f.inflight[idx]; ok && req.server != 2 {
				rg.r.Deliver(req.server, chunkOf(t, cs, idx))
			}
		}
	}
	rg.env.advance(300 * time.Millisecond)
	answer()
	rg.env.advance(600 * time.Millisecond)
	rg.r.Deliver(2, chunkOf(t, cs, first))
	answered := rg.env.now

	rounds := 0 // pacer ticks that expired a request to server 2
	for !f.blamed[2] {
		if rg.env.now-answered > fetchTimeoutStrikes*(chunkRetryTimeout+tick) {
			t.Fatalf("server 2 not excluded %v after falling silent", rg.env.now-answered)
		}
		answer()
		asked := make(map[int]chunkReq)
		for idx, req := range f.inflight {
			if req.server == 2 {
				asked[idx] = req
			}
		}
		rg.env.advance(tick)
		if rg.r.fetcher.fetch != f {
			t.Fatal("transfer ended before server 2 was excluded; enlarge the snapshot")
		}
		for idx, req := range asked {
			if f.inflight[idx] != req {
				rounds++
				break
			}
		}
		for idx, req := range f.inflight {
			if age := rg.env.now - req.sentAt; req.server == 2 && age >= chunkRetryTimeout+tick {
				t.Fatalf("chunk %d unanswered at server 2 for %v and not re-issued", idx, age)
			}
		}
	}
	if rounds != fetchTimeoutStrikes {
		t.Fatalf("server 2 excluded after %d unanswered rounds, want %d", rounds, fetchTimeoutStrikes)
	}
	if rg.r.Metrics.SnapshotTimeoutExclusions != 1 || rg.r.Metrics.SnapshotBlames != 0 {
		t.Fatalf("exclusions = %d, blames = %d; want 1 and 0",
			rg.r.Metrics.SnapshotTimeoutExclusions, rg.r.Metrics.SnapshotBlames)
	}
	sent := len(rg.env.sent)
	deliverAllChunks(t, rg, cs, 3)
	if rg.r.LastExecuted() != 4 {
		t.Fatalf("transfer did not complete without server 2 (le=%d)", rg.r.LastExecuted())
	}
	for _, s := range rg.env.sent[sent:] {
		if _, ok := s.msg.(FetchSnapshotChunkMsg); ok && s.to == 2 {
			t.Fatal("chunk requested from the excluded server")
		}
	}
}

// TestServerAnswersRequestForNewerSnapshot: a chunk request for a
// sequence NEWER than anything this server retains gets no answer — not
// its older metadata, which the fetcher drops unread, and never a chunk it
// does not hold. A request for a generation superseded beyond retention
// is still answered with the current metadata.
func TestServerAnswersRequestForNewerSnapshot(t *testing.T) {
	rg := newRig(t, 1, func(c *Config) { c.SnapshotRetain = 1 })
	rg.r.snaps.adopt(certifiedAt(t, rg, 4, nil))

	before := len(rg.env.sent)
	rg.r.Deliver(2, FetchSnapshotChunkMsg{Replica: 2, Seq: 8, Index: 1})
	if sent := rg.env.sent[before:]; len(sent) != 0 {
		t.Fatalf("request for a newer snapshot answered with %+v, want silence", sent[0].msg)
	}

	rg.r.snaps.adopt(certifiedAt(t, rg, 8, nil))
	rg.r.Deliver(2, FetchSnapshotChunkMsg{Replica: 2, Seq: 4, Index: 1})
	reoffered := false
	for _, s := range rg.env.sent[before:] {
		if m, ok := s.msg.(SnapshotMetaMsg); ok && s.to == 2 && m.Seq == 8 {
			reoffered = true
		}
		if _, ok := s.msg.(SnapshotChunkMsg); ok {
			t.Fatal("server sent a chunk of a generation it no longer retains")
		}
	}
	if !reoffered {
		t.Fatal("request for a superseded generation not answered with the current metadata")
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
// durable snapshot as a single-generation chain and re-offers current
// metadata for anything older.
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
