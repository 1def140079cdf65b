package core

import (
	"bytes"
	"sort"

	"sbft/internal/crypto/threshsig"
)

// This file is the checkpoint stage (§V-F): the stable-checkpoint
// certificate, garbage collection below it, and the chain of certified
// snapshot generations the certificate adopts and state transfer serves.

// initiateCheckpoint broadcasts this replica's π share over the certified
// execution-state root at a checkpoint sequence. Shares go to all replicas
// so everyone can assemble the stable certificate locally even when
// collectors are crashed; at one checkpoint per win/2 blocks the quadratic
// cost is amortized away (§V-F).
func (r *Replica) initiateCheckpoint(seq uint64, root []byte) {
	share, err := r.keys.Pi.Sign(CheckpointSigDigest(seq, root))
	if err != nil {
		return
	}
	msg := CheckpointShareMsg{Seq: seq, Replica: r.id, Digest: root, PiSig: share}
	r.broadcast(msg)
	r.onCheckpointShare(r.id, msg)
}

func (r *Replica) onCheckpointShare(from int, m CheckpointShareMsg) {
	if m.Seq <= r.lastStable || from != m.Replica || !r.signedBy(from, m.PiSig) {
		return
	}
	if r.ckptShares[m.Seq] == nil {
		r.ckptShares[m.Seq] = make(map[string]map[int]threshsig.Share)
	}
	// Exactly at the quorum, so shares arriving while its check is in flight
	// do not start a second one.
	if group := fileByDigest(r.ckptShares[m.Seq], m.Digest, m.PiSig); len(group) == r.cfg.QuorumExec() {
		r.certifyCheckpoint(m.Seq, m.Digest, group)
	}
}

// certifyCheckpoint assembles the stable-checkpoint certificate from a
// quorum of checkpoint shares: verified as one batched job, then combined
// (cryptosink.go says why these shares are checked first). Shares that
// fail are dropped, and what is left is tried again while it is a quorum.
func (r *Replica) certifyCheckpoint(seq uint64, digest []byte, group map[int]threshsig.Share) {
	job := VerifyJob{Kind: SharePi, Digest: CheckpointSigDigest(seq, digest), Shares: sharesList(group)}
	r.csink.VerifyShares([]VerifyJob{job}, func(ok [][]threshsig.Share) {
		switch good := ok[0]; {
		case seq <= r.lastStable: // stabilized while the shares were in flight
		case len(good) == len(job.Shares):
			r.csink.Combine(SharePi, job.Digest, good, func(pi threshsig.Signature, err error) {
				if err == nil && seq > r.lastStable {
					r.recordStable(seq, digest, pi)
				}
			})
		default:
			r.Metrics.BadShares += uint64(len(job.Shares) - len(good))
			for _, sh := range job.Shares {
				delete(group, sh.Signer)
			}
			for _, sh := range good {
				group[sh.Signer] = sh
			}
			if len(group) >= r.cfg.QuorumExec() {
				r.certifyCheckpoint(seq, digest, group)
			}
		}
	})
}

func (r *Replica) onCheckpointCert(_ int, m CheckpointCertMsg) {
	if m.Seq <= r.lastStable {
		return
	}
	if r.suite.Pi.Verify(CheckpointSigDigest(m.Seq, m.Digest), m.Pi) != nil {
		return
	}
	r.recordStable(m.Seq, m.Digest, m.Pi)
	if r.lastExecuted < m.Seq {
		// We are behind a stable checkpoint: fetch state if the gap is
		// not recoverable through the normal pipeline.
		r.maybeFetchState(m.Seq)
	}
}

func (r *Replica) recordStable(seq uint64, digest []byte, pi threshsig.Signature) {
	if seq <= r.lastStable && r.stableDigest != nil {
		// Even when the checkpoint itself is old news, pending captures
		// at or below the stable frontier are dead. A checkpoint whose
		// sequence was skipped by state-transfer catch-up re-enters here
		// (finishStateFetch → recordStable at the transferred seq) and
		// used to leak its captured snapshot forever: the GC below only
		// ran on the first recording, which had returned early while the
		// replica was still behind.
		r.gcPendingSnap(r.lastStable)
		return
	}
	r.Metrics.Checkpoints++
	prevStable := r.lastStable
	r.lastStable = seq
	if seq > r.windowBase {
		r.windowBase = seq
	}
	r.stableDigest = digest
	r.stablePi = pi
	if r.lastExecuted >= seq {
		// Adopt the certified snapshot captured when seq executed; if none
		// exists (restart, state transfer) capture now — but only when
		// execution has not pipelined past seq, or current state would be
		// mislabeled with the older certified digest and rejected by every
		// receiver. A capture whose root disagrees with the quorum-proven
		// digest must not be served: this replica has diverged and its
		// chunks would (correctly) be blamed by every fetcher.
		cs, ok := r.pendingSnap[seq]
		if !ok && r.lastExecuted == seq && r.SnapshotSeq() < seq {
			if built, err := r.buildSnapshot(seq, r.app.Digest()); err == nil {
				cs, ok = built, true
			}
		}
		if ok {
			if bytes.Equal(cs.Root(), digest) {
				cs.Pi = pi
				r.adoptSnapshot(cs)
			} else {
				r.tracef("checkpoint %d: local root disagrees with certified digest", seq)
			}
		}
		r.app.GarbageCollect(seq)
	}
	// Captures at or below the stable point are dead regardless of whether
	// this replica adopted one: unconditional, or a capture whose
	// stabilization is learned while the replica is behind (and whose
	// sequence is then skipped by catch-up) is never collected.
	r.gcPendingSnap(seq)
	// Drop slot state below the stable point — but never ahead of local
	// execution, or committed-but-unexecuted blocks would be lost. A slot
	// whose clients this E-collector has yet to ack outlives one stable
	// point: the checkpoint quorum can form before the slot's π quorum,
	// and the shares still to come must find the executed slot.
	gcTo := min(seq, r.lastExecuted)
	for n, s := range r.slots {
		owesAcks := n > prevStable && s.executed && !s.execAcked && r.cfg.ExecCollectors && r.isECollector(n)
		if n <= gcTo && !owesAcks {
			delete(r.slots, n)
		}
	}
	for s := range r.ckptShares {
		if s <= seq {
			delete(r.ckptShares, s)
		}
	}
	for s := range r.directReq {
		if s <= gcTo {
			delete(r.directReq, s)
		}
	}
	if r.lastExecuted < seq {
		// The network proved a stable state we have not reached: catch up
		// via state transfer (§VIII).
		r.maybeFetchState(seq)
	}
}

// buildSnapshot captures the certified execution state at seq: the
// application snapshot plus the canonical last-reply table, chunked and
// Merkle-committed. Valid only while app state and reply table are exactly
// at seq. Applications exposing the incremental capture path
// (ChunkedSnapshotter) are captured chunk-by-chunk through the capture
// cache: clean chunks (recognized by slice identity, per the interface
// contract) reuse their previous leaf hashes, so the capture stall is
// proportional to writes since the last checkpoint, not to state size.
func (r *Replica) buildSnapshot(seq uint64, appDigest []byte) (*CertifiedSnapshot, error) {
	if ca, ok := r.app.(ChunkedSnapshotter); ok {
		chunks, supported, err := ca.SnapshotChunks()
		if err != nil {
			return nil, err
		}
		if supported {
			if r.capCache == nil {
				r.capCache = &CaptureCache{}
			}
			cs := NewCertifiedSnapshotChunked(seq, appDigest, chunks, encodeReplyTable(r.replyCache), r.capCache)
			r.Metrics.CheckpointDirtyChunks += uint64(r.capCache.DirtyChunks())
			return cs, nil
		}
	}
	appSnap, err := r.app.Snapshot()
	if err != nil {
		return nil, err
	}
	return NewCertifiedSnapshot(seq, appDigest, appSnap, encodeReplyTable(r.replyCache)), nil
}

// snapGeneration is one retained certified snapshot plus the delta that
// produced it: the 1-based chunk indexes whose commitment leaves differ
// from the chain predecessor's. deltaKnown is false when the predecessor
// was unknown at adoption (first checkpoint, restart, state transfer) —
// such a generation still serves chunks and acts as a delta BASE, but
// cannot appear in the middle of a delta computation.
type snapGeneration struct {
	cs         *CertifiedSnapshot
	delta      []int
	deltaKnown bool
}

// curSnap returns the newest retained certified snapshot (nil when none):
// the snapshot advertised to fetchers.
func (r *Replica) curSnap() *CertifiedSnapshot {
	if len(r.snapGens) == 0 {
		return nil
	}
	return r.snapGens[len(r.snapGens)-1].cs
}

// genAt returns the retained generation at exactly seq, or nil.
func (r *Replica) genAt(seq uint64) *snapGeneration {
	for _, g := range r.snapGens {
		if g.cs.Seq == seq {
			return g
		}
	}
	return nil
}

// retainsSnapshot reports whether the generation at seq is still within
// the retention chain.
func (r *Replica) retainsSnapshot(seq uint64) bool { return r.genAt(seq) != nil }

// deltaSince returns the chunk indexes (1-based, in the CURRENT
// snapshot's numbering, sorted) a fetcher holding the complete retained
// generation at base must fetch to reach the current snapshot: the union
// of every later generation's delta, clipped to the current chunk count
// (indexes past it no longer exist). ok is false when base is not
// retained or an intermediate delta is unknown — the fetcher then needs
// a full transfer. Chunk indexes are stable across generations (leaf i
// commits chunk i), so an index absent from every delta has an unchanged
// leaf, and the base's copy of that chunk is bit-identical to the
// current one.
func (r *Replica) deltaSince(base uint64) ([]int, bool) {
	bi := -1
	for i, g := range r.snapGens {
		if g.cs.Seq == base {
			bi = i
			break
		}
	}
	if bi < 0 {
		return nil, false
	}
	cur := r.curSnap()
	n := cur.Header.NumChunks()
	set := make(map[int]bool)
	for _, g := range r.snapGens[bi+1:] {
		if !g.deltaKnown {
			return nil, false
		}
		for _, idx := range g.delta {
			if idx >= 1 && idx <= n {
				set[idx] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for idx := range set {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out, true
}

// snapshotDelta lists the 1-based chunk indexes whose commitment leaves
// differ between a snapshot and its successor: common indexes whose leaf
// hashes changed, plus every index the successor grew past the
// predecessor. O(chunks) hash comparisons; no chunk bytes are touched.
func snapshotDelta(prev, cur *CertifiedSnapshot) []int {
	np, nc := prev.Header.NumChunks(), cur.Header.NumChunks()
	common := np
	if nc < common {
		common = nc
	}
	var delta []int
	for i := 1; i <= common; i++ {
		ph, perr := prev.LeafHashAt(i)
		ch, cerr := cur.LeafHashAt(i)
		if perr != nil || cerr != nil || ph != ch {
			delta = append(delta, i)
		}
	}
	for i := common + 1; i <= nc; i++ {
		delta = append(delta, i)
	}
	return delta
}

// gcPendingSnap drops pending checkpoint captures at or below the stable
// frontier. Must run on EVERY stability recording — including re-entries
// for already-stable sequences — so captures whose checkpoint was skipped
// by state-transfer catch-up cannot leak.
func (r *Replica) gcPendingSnap(stable uint64) {
	for s := range r.pendingSnap {
		if s <= stable {
			delete(r.pendingSnap, s)
		}
	}
}

// adoptSnapshot appends a stable certified snapshot to the retention
// chain and hands it off for durable persistence so a restarted replica
// can serve state transfer immediately. In-memory serving arms at once
// (the capture is already chunked and Merkle-committed); the delta
// against the previous generation is computed here (leaf-hash diff) so
// laggards can fetch increments. Persistence goes through the async
// SnapshotSink when one is installed — encode+write of a large state
// would otherwise stall the event loop every win/2 executions — and
// falls back to the synchronous SnapshotStore path otherwise. The sink's
// completion callback arms the restart-survivable serving point
// (durableSnap) once the bytes are actually on disk, but only while the
// persisted generation is still retained: a slow persist completing
// after retention evicted its generation must not advertise a serving
// point whose chunks (and, after a later prune, whose durable file) are
// gone.
func (r *Replica) adoptSnapshot(cs *CertifiedSnapshot) {
	cur := r.curSnap()
	if cur != nil && cur.Seq >= cs.Seq {
		return
	}
	gen := &snapGeneration{cs: cs}
	if cur != nil {
		gen.delta = snapshotDelta(cur, cs)
		gen.deltaKnown = true
	}
	r.snapGens = append(r.snapGens, gen)
	if keep := r.cfg.snapshotRetain(); len(r.snapGens) > keep {
		// Copy into a fresh slice so the shrinking window cannot pin
		// evicted generations through the old backing array.
		trimmed := make([]*snapGeneration, keep)
		copy(trimmed, r.snapGens[len(r.snapGens)-keep:])
		r.snapGens = trimmed
	}
	keepFrom := r.snapGens[0].cs.Seq
	if r.sink != nil {
		seq := cs.Seq
		r.sink.PersistSnapshot(cs, keepFrom, func(err error) {
			if err != nil {
				r.tracef("async snapshot persist %d failed: %v", seq, err)
				return
			}
			if seq > r.durableSnap && r.retainsSnapshot(seq) {
				r.durableSnap = seq
				r.Metrics.SnapshotPersists++
			}
		})
		return
	}
	if ss, ok := r.store.(SnapshotStore); ok && r.store != nil {
		if err := PersistCertified(ss, cs, keepFrom); err != nil {
			r.tracef("persisting snapshot %d failed: %v", cs.Seq, err)
		} else if cs.Seq > r.durableSnap {
			r.durableSnap = cs.Seq
			r.Metrics.SnapshotPersists++
		}
	}
}

// SetSnapshotSink installs the asynchronous snapshot persistence hook.
// Call before the replica starts processing messages.
func (r *Replica) SetSnapshotSink(s SnapshotSink) { r.sink = s }

// DurableSnapshotSeq reports the highest snapshot sequence known to be
// durably persisted (0 when none): the serving point that survives a
// restart, as opposed to SnapshotSeq, which arms immediately on adoption.
func (r *Replica) DurableSnapshotSeq() uint64 { return r.durableSnap }

// SnapshotSeq reports the sequence of the newest certified snapshot this
// replica can serve (0 when none).
func (r *Replica) SnapshotSeq() uint64 {
	cs := r.curSnap()
	if cs == nil {
		return 0
	}
	return cs.Seq
}

// RetainedSnapshotSeqs lists the sequences of every retained snapshot
// generation, oldest first — observability for tests and operators.
func (r *Replica) RetainedSnapshotSeqs() []uint64 {
	out := make([]uint64, len(r.snapGens))
	for i, g := range r.snapGens {
		out[i] = g.cs.Seq
	}
	return out
}

func (r *Replica) onFetchState(_ int, m FetchStateMsg) {
	cs := r.curSnap()
	if cs == nil || cs.Seq < m.Seq {
		return
	}
	hp, err := cs.ProveHeader()
	if err != nil {
		return
	}
	meta := SnapshotMetaMsg{
		Seq:         cs.Seq,
		Root:        cs.Root(),
		Pi:          cs.Pi,
		Header:      cs.Header,
		HeaderProof: hp,
	}
	// Delta advertisement: when the fetcher already holds a generation
	// this server retains, list the chunks that changed since — the
	// fetcher seeds the rest locally. Advisory only: the fetcher verifies
	// the reassembled root and falls back to refetching on any mismatch.
	if m.HaveSeq > 0 && m.HaveSeq < cs.Seq {
		if delta, ok := r.deltaSince(m.HaveSeq); ok {
			meta.DeltaBase = m.HaveSeq
			meta.DeltaChunks = delta
		}
	}
	r.env.Send(m.Replica, meta)
}

func (r *Replica) onFetchSnapshotChunk(_ int, m FetchSnapshotChunkMsg) {
	cur := r.curSnap()
	if cur == nil {
		return
	}
	var cs *CertifiedSnapshot
	if g := r.genAt(m.Seq); g != nil {
		// Any retained generation serves: in-flight transfers keep
		// completing across checkpoint supersessions for the whole
		// retention depth.
		cs = g.cs
	} else if cur.Seq > m.Seq {
		// Superseded beyond retention: the chunks are gone, but
		// re-offering the current metadata lets the fetcher restart
		// at the checkpoint this server can actually serve. (The
		// fetcher-side stall gate keeps an advancing transfer from
		// thrashing on this; only a dead one restarts.)
		r.onFetchState(m.Replica, FetchStateMsg{Replica: m.Replica, Seq: m.Seq})
		return
	} else {
		// The fetcher wants a NEWER snapshot than this server holds —
		// this server is the laggard (say, freshly restarted while the
		// fetcher adopted a later certified checkpoint). Dropping the
		// request silently would leave the fetcher burning a retry
		// timeout per request routed here; answering with current
		// metadata (below the requested sequence) lets the fetcher's
		// scheduler demote this server immediately instead.
		r.onFetchState(m.Replica, FetchStateMsg{Replica: m.Replica})
		return
	}
	if m.Index < 1 || m.Index > len(cs.Chunks) {
		return
	}
	proof, err := cs.ProveChunk(m.Index)
	if err != nil {
		return
	}
	r.env.Send(m.Replica, SnapshotChunkMsg{
		Seq:   m.Seq,
		Index: m.Index,
		Data:  cs.Chunks[m.Index-1],
		Proof: proof,
	})
}
