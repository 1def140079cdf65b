package core

import (
	"bytes"
	"testing"
	"time"

	"sbft/internal/crypto/threshsig"
)

// certifiedSized builds a valid certified snapshot at seq over the given
// app chunks, π-signed by the rig's keys, matching fakeApp's genesis
// digest (Restore is a no-op and Digest of the untouched fakeApp is [0]).
func certifiedSized(t *testing.T, rg *rig, seq uint64, appChunks [][]byte, table map[int]replyCacheEntry) *CertifiedSnapshot {
	t.Helper()
	cs := NewCertifiedSnapshotChunked(seq, rg.app.Digest(), appChunks, encodeReplyTable(table), nil)
	sd := CheckpointSigDigest(seq, cs.Root())
	var shares []threshsig.Share
	for i := 0; i < rg.cfg.QuorumExec(); i++ {
		sh, err := rg.keys[i].Pi.Sign(sd)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, sh)
	}
	pi, err := rg.suite.Pi.Combine(sd, shares)
	if err != nil {
		t.Fatal(err)
	}
	cs.Pi = pi
	return cs
}

// certifiedAt is certifiedSized with a small default app snapshot.
func certifiedAt(t *testing.T, rg *rig, seq uint64, table map[int]replyCacheEntry) *CertifiedSnapshot {
	t.Helper()
	return certifiedSized(t, rg, seq, [][]byte{bytes.Repeat([]byte("snap"), 64)}, table)
}

// tinyChunks is n one-byte app chunks: a snapshot spanning several fetch
// windows at almost no cost.
func tinyChunks(n int) [][]byte { return splitChunks(bytes.Repeat([]byte("t"), n), 1) }

func metaOf(t *testing.T, cs *CertifiedSnapshot) SnapshotMetaMsg {
	t.Helper()
	return SnapshotMetaMsg{Seq: cs.Seq, Root: cs.Root(), Pi: cs.Pi, Header: cs.Header, Leaves: cs.Leaves()}
}

func chunkOf(t *testing.T, cs *CertifiedSnapshot, i int) SnapshotChunkMsg {
	t.Helper()
	return SnapshotChunkMsg{Seq: cs.Seq, Index: i, Data: cs.Chunks[i-1]}
}

// deliverMeta feeds a meta and advances past the meta-collection window
// so the transfer commits to its choice.
func deliverMeta(t *testing.T, rg *rig, cs *CertifiedSnapshot, from int) {
	t.Helper()
	rg.r.Deliver(from, metaOf(t, cs))
	rg.env.advance(snapshotMetaWait + time.Millisecond)
}

// deliverAllChunks feeds every chunk from the given peer.
func deliverAllChunks(t *testing.T, rg *rig, cs *CertifiedSnapshot, from int) {
	t.Helper()
	for i := 1; i <= len(cs.Chunks); i++ {
		rg.r.Deliver(from, chunkOf(t, cs, i))
	}
}

// chunkReqCount counts FetchSnapshotChunkMsg sends, optionally filtered
// by snapshot sequence (0 matches all).
func chunkReqCount(rg *rig, seq uint64) int {
	n := 0
	for _, s := range rg.env.sent {
		if m, ok := s.msg.(FetchSnapshotChunkMsg); ok && (seq == 0 || m.Seq == seq) {
			n++
		}
	}
	return n
}

func TestChunkedStateTransferCompletes(t *testing.T) {
	rg := newRig(t, 1, nil)
	table := map[int]replyCacheEntry{
		ClientBase: {timestamp: 7, seq: 3, l: 0, val: []byte("certified")},
	}
	cs := certifiedAt(t, rg, 4, table)

	rg.r.fetcher.want(4)
	if rg.sentOfType(func(m Message) bool { _, ok := m.(FetchStateMsg); return ok }) == 0 {
		t.Fatal("no FetchState sent")
	}
	deliverMeta(t, rg, cs, 2)
	if got := chunkReqCount(rg, 0); got != len(cs.Chunks) {
		t.Fatalf("requested %d chunks, want %d", got, len(cs.Chunks))
	}
	deliverAllChunks(t, rg, cs, 3)

	if rg.r.LastExecuted() != 4 {
		t.Fatalf("LastExecuted = %d after transfer, want 4", rg.r.LastExecuted())
	}
	if ent, ok := rg.r.replyCache[ClientBase]; !ok || ent.timestamp != 7 || !bytes.Equal(ent.val, []byte("certified")) {
		t.Fatalf("certified reply table not adopted: %+v", rg.r.replyCache)
	}
	if rg.r.SnapshotSeq() != 4 {
		t.Fatalf("recovered replica does not serve the snapshot (SnapshotSeq=%d)", rg.r.SnapshotSeq())
	}
	if rg.r.Metrics.SnapshotBlames != 0 {
		t.Fatalf("honest transfer recorded %d blames", rg.r.Metrics.SnapshotBlames)
	}
}

func TestChunkedStateTransferBlamesTamperedChunk(t *testing.T) {
	rg := newRig(t, 1, nil)
	cs := certifiedAt(t, rg, 4, map[int]replyCacheEntry{
		ClientBase: {timestamp: 1, seq: 1, l: 0, val: []byte("v")},
	})
	rg.r.fetcher.want(4)
	deliverMeta(t, rg, cs, 2)

	// Tamper the chunk assigned to server 2 so the failed delivery also
	// exercises the in-flight requeue.
	evilIdx := 0
	for idx, req := range rg.r.fetcher.fetch.inflight {
		if req.server == 2 {
			evilIdx = idx
			break
		}
	}
	if evilIdx == 0 {
		t.Fatal("no chunk assigned to server 2")
	}
	evil := chunkOf(t, cs, evilIdx)
	evil.Data = append([]byte(nil), evil.Data...)
	evil.Data[0] ^= 0xFF
	before := chunkReqCount(rg, 0)
	rg.r.Deliver(2, evil)
	if rg.r.Metrics.SnapshotBlames != 1 {
		t.Fatalf("SnapshotBlames = %d after tampered chunk, want 1", rg.r.Metrics.SnapshotBlames)
	}
	if rg.r.SnapshotBlameCounts()[2] != 1 {
		t.Fatalf("blame not attributed to server 2: %v", rg.r.SnapshotBlameCounts())
	}
	after := chunkReqCount(rg, 0)
	if after != before+1 {
		t.Fatalf("tampered chunk not re-requested (%d → %d requests)", before, after)
	}
	// Honest servers finish the job.
	deliverAllChunks(t, rg, cs, 3)
	if rg.r.LastExecuted() != 4 {
		t.Fatalf("transfer did not complete from honest servers (le=%d)", rg.r.LastExecuted())
	}
}

// TestTamperedChunkRefetchAvoidsBlamedServer pins the post-blame routing
// fix: the retry for a failed chunk goes through the per-server scheduler
// over the SHRUNK peer set, so it can never land back on the server just
// excluded. (The old code re-derived the peer from the pre-blame
// rotation, `peers[(index+attempt) % len(peers)]` over the new, smaller
// slice — which could re-ask the excluded server or the same one again.)
func TestTamperedChunkRefetchAvoidsBlamedServer(t *testing.T) {
	rg := newRig(t, 1, nil)
	cs := certifiedSized(t, rg, 4, splitChunks(bytes.Repeat([]byte("x"), 64*1024), SnapshotChunkSize), nil)
	rg.r.fetcher.want(4)
	deliverMeta(t, rg, cs, 2)

	// Tamper every chunk assigned to server 2, one by one.
	tampered := 0
	for idx := 1; idx <= len(cs.Chunks); idx++ {
		req, ok := rg.r.fetcher.fetch.inflight[idx]
		if !ok || req.server != 2 {
			continue
		}
		evil := chunkOf(t, cs, idx)
		evil.Data = append([]byte(nil), evil.Data...)
		evil.Data[0] ^= 0xFF
		mark := len(rg.env.sent)
		rg.r.Deliver(2, evil)
		tampered++
		for _, s := range rg.env.sent[mark:] {
			if m, ok := s.msg.(FetchSnapshotChunkMsg); ok && s.to == 2 {
				t.Fatalf("chunk %d re-requested from the blamed server 2", m.Index)
			}
		}
	}
	if tampered == 0 {
		t.Fatal("scheduler assigned no chunks to server 2")
	}
	deliverAllChunks(t, rg, cs, 3)
	if rg.r.LastExecuted() != 4 {
		t.Fatalf("transfer did not complete (le=%d)", rg.r.LastExecuted())
	}
	for id, n := range rg.r.SnapshotBlameCounts() {
		if id != 2 && n > 0 {
			t.Fatalf("honest server %d blamed %d times", id, n)
		}
	}
}

// TestWindowedFetchRespectsWindowAndRefills: in-flight chunk requests
// never exceed the configured window, and every verified chunk refills
// the window by (at most) one request.
func TestWindowedFetchRespectsWindowAndRefills(t *testing.T) {
	const win = fetchWindow
	rg := newRig(t, 1, nil)
	cs := certifiedSized(t, rg, 4, tinyChunks(80), nil)
	if len(cs.Chunks) <= 2*win {
		t.Fatalf("snapshot too small for the test: %d chunks", len(cs.Chunks))
	}

	rg.r.fetcher.want(4)
	deliverMeta(t, rg, cs, 2)
	if got := chunkReqCount(rg, 0); got != win {
		t.Fatalf("initial requests = %d, want window %d", got, win)
	}
	delivered := 0
	for i := 1; i <= len(cs.Chunks); i++ {
		rg.r.Deliver(3, chunkOf(t, cs, i))
		delivered++
		if f := rg.r.fetcher.fetch; f != nil {
			if len(f.inflight) > win {
				t.Fatalf("window exceeded after %d deliveries: %d in flight", delivered, len(f.inflight))
			}
		}
		if sent := chunkReqCount(rg, 0); sent > delivered+win {
			t.Fatalf("requests (%d) outran deliveries+window (%d+%d)", sent, delivered, win)
		}
	}
	if rg.r.LastExecuted() != 4 {
		t.Fatalf("windowed transfer did not complete (le=%d)", rg.r.LastExecuted())
	}
	// Nothing was lost, so nothing should have been retried.
	if rg.r.Metrics.SnapshotChunkRetries != 0 {
		t.Fatalf("retries = %d on a lossless transfer", rg.r.Metrics.SnapshotChunkRetries)
	}
}

// TestChunkRetryRecoversDroppedRequest: a lost chunk request (or reply)
// is re-issued by the per-chunk retry timer instead of waiting for the
// whole-transfer restart.
func TestChunkRetryRecoversDroppedRequest(t *testing.T) {
	rg := newRig(t, 1, func(c *Config) {
		c.ViewChangeTimeout = time.Minute // whole-transfer retry far away
	})
	cs := certifiedSized(t, rg, 4, tinyChunks(80), nil)
	rg.r.fetcher.want(4)
	deliverMeta(t, rg, cs, 2)
	before := chunkReqCount(rg, 0)
	if before != fetchWindow {
		t.Fatalf("initial requests = %d, want %d", before, fetchWindow)
	}
	// Drop everything: no replies arrive. The pacer must re-issue.
	for i := 0; i < 6; i++ {
		rg.env.advance(chunkRetryTimeout * 6 / 10)
	}
	if rg.r.Metrics.SnapshotChunkRetries == 0 {
		t.Fatal("no per-chunk retries after the timeout")
	}
	if after := chunkReqCount(rg, 0); after <= before {
		t.Fatalf("no chunk requests re-issued (%d → %d)", before, after)
	}
	if f := rg.r.fetcher.fetch; f == nil || len(f.inflight) > fetchWindow {
		t.Fatalf("window exceeded during retries")
	}
	deliverAllChunks(t, rg, cs, 3)
	if rg.r.LastExecuted() != 4 {
		t.Fatalf("transfer did not complete after retries (le=%d)", rg.r.LastExecuted())
	}
}

// TestHighestCertifiedMetaWins is the stale-meta race regression test: a
// Byzantine server racing a STALE-but-valid certified meta at/above the
// requested target must not win the initial choice. The fetcher collects
// competing metas briefly and adopts the highest certified sequence.
func TestHighestCertifiedMetaWins(t *testing.T) {
	rg := newRig(t, 1, nil)
	stale := certifiedAt(t, rg, 4, nil)
	newer := certifiedAt(t, rg, 8, map[int]replyCacheEntry{
		ClientBase: {timestamp: 2, seq: 8, l: 0, val: []byte("new")},
	})

	rg.r.fetcher.want(4)
	// The stale meta arrives FIRST (the Byzantine server wins the race)...
	rg.r.Deliver(2, metaOf(t, stale))
	rg.r.Deliver(3, metaOf(t, newer))
	rg.env.advance(snapshotMetaWait + time.Millisecond)
	// ...but the higher certified sequence wins the choice.
	if got := chunkReqCount(rg, stale.Seq); got != 0 {
		t.Fatalf("%d chunk requests for the stale snapshot %d", got, stale.Seq)
	}
	if got := chunkReqCount(rg, newer.Seq); got == 0 {
		t.Fatal("no chunk requests for the highest certified snapshot")
	}
	deliverAllChunks(t, rg, newer, 4)
	if rg.r.LastExecuted() != 8 {
		t.Fatalf("transfer completed at le=%d, want 8", rg.r.LastExecuted())
	}
}

// TestRestartMidWindowResetsAccounting: a transfer restarted by a newer
// certified meta must wipe the old window's in-flight accounting — late
// chunks of the superseded snapshot are ignored and the new window fills
// completely.
func TestRestartMidWindowResetsAccounting(t *testing.T) {
	const win = fetchWindow
	rg := newRig(t, 1, nil)
	old := certifiedSized(t, rg, 4, tinyChunks(80), nil)
	newer := certifiedSized(t, rg, 8, tinyChunks(80), nil)

	rg.r.fetcher.want(4)
	deliverMeta(t, rg, old, 2)
	if got := chunkReqCount(rg, old.Seq); got != win {
		t.Fatalf("old window holds %d requests, want %d", got, win)
	}
	// The transfer stalls (no chunks arrive for twice the retry deadline),
	// and a strictly newer meta then restarts it mid-window.
	rg.env.advance(2*chunkRetryTimeout + 100*time.Millisecond)
	rg.r.Deliver(3, metaOf(t, newer))
	f := rg.r.fetcher.fetch
	if f == nil || f.seq != newer.Seq {
		t.Fatalf("transfer did not restart at %d", newer.Seq)
	}
	if got := len(f.inflight); got != win {
		t.Fatalf("restarted window holds %d in-flight, want a full window of %d", got, win)
	}
	if got := chunkReqCount(rg, newer.Seq); got != win {
		t.Fatalf("restarted transfer issued %d requests, want %d", got, win)
	}
	// A late chunk of the superseded snapshot changes nothing.
	rg.r.Deliver(2, chunkOf(t, old, 1))
	if f.missing != len(newer.Chunks) || len(f.inflight) != win {
		t.Fatal("stale chunk of the superseded snapshot perturbed the new window")
	}
	deliverAllChunks(t, rg, newer, 4)
	if rg.r.LastExecuted() != 8 {
		t.Fatalf("restarted transfer did not complete (le=%d, want 8)", rg.r.LastExecuted())
	}
}

// TestAdvancingTransferIgnoresNewerMeta: a transfer that is still
// verifying chunks must NOT restart when a newer certified meta shows up
// — restarting throws away everything fetched, and servers retain the
// previous snapshot precisely so in-flight transfers can complete across
// a checkpoint supersession. The newer snapshot shares no chunk with the
// old one, so nothing fetched would carry over.
func TestAdvancingTransferIgnoresNewerMeta(t *testing.T) {
	rg := newRig(t, 1, nil)
	old := certifiedAt(t, rg, 4, nil)
	newer := certifiedSized(t, rg, 8, [][]byte{bytes.Repeat([]byte("next"), 64)}, nil)

	rg.r.fetcher.want(4)
	deliverMeta(t, rg, old, 2)
	rg.r.Deliver(3, chunkOf(t, old, 1)) // the transfer is advancing
	rg.r.Deliver(3, metaOf(t, newer))
	if f := rg.r.fetcher.fetch; f == nil || f.seq != old.Seq {
		t.Fatal("advancing transfer was restarted by a newer meta")
	}
	deliverAllChunks(t, rg, old, 4)
	if rg.r.LastExecuted() != old.Seq {
		t.Fatalf("transfer did not complete at %d (le=%d)", old.Seq, rg.r.LastExecuted())
	}
}

// TestServerServesPreviousSnapshotAfterSupersession: bounded retention on
// the serving side (depth 2 here) — chunk requests for retained
// superseded snapshots are still answered; requests beyond the retention
// depth get the current meta re-offered.
func TestServerServesPreviousSnapshotAfterSupersession(t *testing.T) {
	rg := newRig(t, 1, func(c *Config) { c.SnapshotRetain = 2 })
	older := certifiedAt(t, rg, 2, nil)
	mid := certifiedAt(t, rg, 4, nil)
	cur := certifiedAt(t, rg, 8, nil)
	rg.r.snaps.adopt(older)
	rg.r.snaps.adopt(mid)
	rg.r.snaps.adopt(cur)

	before := len(rg.env.sent)
	rg.r.Deliver(2, FetchSnapshotChunkMsg{Replica: 2, Seq: mid.Seq, Index: 1})
	served := false
	for _, s := range rg.env.sent[before:] {
		if m, ok := s.msg.(SnapshotChunkMsg); ok && m.Seq == mid.Seq && s.to == 2 {
			if chunkLeafHash(m.Index, m.Data) != mid.Leaves()[m.Index] {
				t.Fatal("previous-snapshot chunk does not match its leaf")
			}
			served = true
		}
	}
	if !served {
		t.Fatal("chunk of the retained previous snapshot not served")
	}

	before = len(rg.env.sent)
	rg.r.Deliver(2, FetchSnapshotChunkMsg{Replica: 2, Seq: older.Seq, Index: 1})
	for _, s := range rg.env.sent[before:] {
		if _, ok := s.msg.(SnapshotChunkMsg); ok {
			t.Fatal("chunk served for a snapshot beyond retention")
		}
	}
	reoffered := false
	for _, s := range rg.env.sent[before:] {
		if m, ok := s.msg.(SnapshotMetaMsg); ok && m.Seq == cur.Seq {
			reoffered = true
		}
	}
	if !reoffered {
		t.Fatal("beyond-retention request did not re-offer the current meta")
	}
}

// TestStateTransferRestartsOnNewerSnapshot: a transfer locked to a
// checkpoint the cluster has advanced past (and garbage-collected) must
// restart at the newer certified snapshot instead of re-requesting dead
// chunks forever.
func TestStateTransferRestartsOnNewerSnapshot(t *testing.T) {
	rg := newRig(t, 1, nil)
	old := certifiedAt(t, rg, 4, map[int]replyCacheEntry{})
	newer := certifiedAt(t, rg, 8, map[int]replyCacheEntry{
		ClientBase: {timestamp: 2, seq: 8, l: 0, val: []byte("new")},
	})

	rg.r.fetcher.want(4)
	deliverMeta(t, rg, old, 2)
	// The transfer stalls, then a strictly newer meta arrives: servers
	// advanced past (and garbage-collected) the snapshot being fetched.
	rg.env.advance(2*chunkRetryTimeout + 100*time.Millisecond)
	rg.r.Deliver(3, metaOf(t, newer))
	// Chunks of the superseded snapshot are ignored...
	deliverAllChunks(t, rg, old, 3)
	if rg.r.LastExecuted() == 4 {
		t.Fatal("superseded transfer completed after restart")
	}
	// ...and the newer one completes.
	deliverAllChunks(t, rg, newer, 4)
	if rg.r.LastExecuted() != 8 {
		t.Fatalf("restarted transfer did not complete (le=%d, want 8)", rg.r.LastExecuted())
	}
}

// TestStateFetchDroppedWhenCaughtUp: catching up through other means
// (gap repair) must cancel the in-progress fetch instead of leaving an
// immortal retry timer re-requesting a snapshot the replica no longer
// needs.
func TestStateFetchDroppedWhenCaughtUp(t *testing.T) {
	rg := newRig(t, 1, func(c *Config) { c.ViewChangeTimeout = time.Second })
	rg.r.fetcher.want(4)
	if rg.r.fetcher.fetch == nil {
		t.Fatal("no fetch in progress")
	}
	// Simulate catch-up past the target via the normal pipeline.
	rg.r.lastExecuted = 5
	before := len(rg.env.sent)
	rg.env.advance(3 * time.Second) // retry timer fires
	if rg.r.fetcher.fetch != nil {
		t.Fatal("fetch not dropped after catching up")
	}
	for _, s := range rg.env.sent[before:] {
		if _, ok := s.msg.(FetchStateMsg); ok {
			t.Fatal("caught-up replica still sent FetchState")
		}
	}
}

// TestStateTransferNeverRollsBackExecution: chunks completing AFTER gap
// repair advanced execution past the transfer's snapshot must be
// discarded, not installed — installing would roll back application
// state and the reply table.
func TestStateTransferNeverRollsBackExecution(t *testing.T) {
	rg := newRig(t, 1, nil)
	cs := certifiedAt(t, rg, 4, map[int]replyCacheEntry{
		ClientBase: {timestamp: 1, seq: 1, l: 0, val: []byte("old")},
	})
	rg.r.fetcher.want(4)
	deliverMeta(t, rg, cs, 2)
	// Gap repair advances execution past the in-flight snapshot.
	rg.r.lastExecuted = 6
	rg.r.replyCache[ClientBase] = replyCacheEntry{timestamp: 9, seq: 6, l: 0, val: []byte("newer")}
	deliverAllChunks(t, rg, cs, 3)
	if rg.r.LastExecuted() != 6 {
		t.Fatalf("execution rolled back to %d by a stale transfer", rg.r.LastExecuted())
	}
	if ent := rg.r.replyCache[ClientBase]; ent.timestamp != 9 {
		t.Fatalf("reply table rolled back to ts=%d by a stale transfer", ent.timestamp)
	}
	if rg.r.fetcher.fetch != nil {
		t.Fatal("stale transfer not dropped")
	}
}

// recordingSink captures PersistSnapshot hand-offs without persisting.
type recordingSink struct {
	seqs []uint64
	done []func(error)
}

func (s *recordingSink) PersistSnapshot(cs *CertifiedSnapshot, _ uint64, done func(error)) {
	s.seqs = append(s.seqs, cs.Seq)
	s.done = append(s.done, done)
}

// TestAsyncSnapshotSinkArmsDurableOnCompletion: with a SnapshotSink
// installed, adoption arms in-memory serving immediately, the event loop
// never touches the store, and the durable serving point advances only
// when the sink reports completion.
func TestAsyncSnapshotSinkArmsDurableOnCompletion(t *testing.T) {
	rg := newRig(t, 1, nil)
	sink := &recordingSink{}
	rg.r.SetSnapshotSink(sink)

	cs, err := rg.r.buildSnapshot(4, rg.app.Digest())
	if err != nil {
		t.Fatal(err)
	}
	rg.r.snaps.adopt(cs)
	if rg.r.SnapshotSeq() != 4 {
		t.Fatalf("in-memory serving not armed on adoption (SnapshotSeq=%d)", rg.r.SnapshotSeq())
	}
	if len(sink.seqs) != 1 || sink.seqs[0] != 4 {
		t.Fatalf("sink received %v, want [4]", sink.seqs)
	}
	if rg.r.DurableSnapshotSeq() != 0 {
		t.Fatal("durable serving point armed before the sink completed")
	}
	sink.done[0](nil)
	if rg.r.DurableSnapshotSeq() != 4 {
		t.Fatalf("durable serving point = %d after completion, want 4", rg.r.DurableSnapshotSeq())
	}
	if rg.r.Metrics.SnapshotPersists != 1 {
		t.Fatalf("SnapshotPersists = %d, want 1", rg.r.Metrics.SnapshotPersists)
	}

	// A failed persist must not arm the durable point.
	cs8, err := rg.r.buildSnapshot(8, rg.app.Digest())
	if err != nil {
		t.Fatal(err)
	}
	rg.r.snaps.adopt(cs8)
	sink.done[1](ErrInvalidProof)
	if rg.r.DurableSnapshotSeq() != 4 {
		t.Fatalf("failed persist advanced the durable point to %d", rg.r.DurableSnapshotSeq())
	}
	if rg.r.Metrics.StoreErrors != 1 {
		t.Fatalf("StoreErrors = %d after one failed persist, want 1", rg.r.Metrics.StoreErrors)
	}
}
