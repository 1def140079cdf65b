package core

import (
	"bytes"
	"errors"

	"sbft/internal/crypto/threshsig"
)

// This file is the checkpoint stage (§V-F): the stable-checkpoint
// certificate, garbage collection below it, and snapChain, the chain of
// certified snapshot generations the certificate adopts and state transfer
// and certified reads are served from.

// initiateCheckpoint captures the certified snapshot at a checkpoint
// sequence NOW, while application state and reply table are exactly at
// seq, and broadcasts this replica's π share over its Merkle root, which
// commits to both — so a single honest snapshot server suffices for
// verified state transfer. The stable certificate adopts the capture when
// it arrives. Shares go to all replicas so everyone can assemble the
// certificate locally even when collectors are crashed; at one checkpoint
// per win/2 blocks the quadratic cost is amortized away.
func (r *Replica) initiateCheckpoint(seq uint64, appDigest []byte) {
	cs, err := r.buildSnapshot(seq, appDigest)
	if err != nil {
		// The certified root cannot be computed without the snapshot
		// chunks, so this replica abstains from this checkpoint (the π
		// quorum needs only f+1 of n; a deterministic app's capture
		// failing on a quorum of replicas is an application bug, not a
		// protocol state).
		r.Metrics.CaptureFailures++
		return
	}
	r.snaps.pendingSnap[seq] = cs
	root := cs.Root()
	share, err := r.keys.Pi.Sign(CheckpointSigDigest(seq, root))
	if err != nil {
		r.Metrics.CaptureFailures++
		return
	}
	msg := CheckpointShareMsg{Seq: seq, Replica: r.id, Digest: root, PiSig: share}
	r.broadcast(msg)
	r.onCheckpointShare(r.id, msg)
}

func (r *Replica) onCheckpointShare(from int, m CheckpointShareMsg) {
	if m.Seq <= r.lastStable || from != m.Replica || m.PiSig.Signer != from {
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
// (collector.go says why these shares are checked first). Shares that
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
		r.fetcher.want(m.Seq)
	}
}

func (r *Replica) recordStable(seq uint64, digest []byte, pi threshsig.Signature) {
	if seq <= r.lastStable && r.stableDigest != nil {
		// Even when the checkpoint itself is old news, pending captures
		// at or below the stable frontier are dead. A checkpoint whose
		// sequence was skipped by state-transfer catch-up re-enters here
		// (install → recordStable at the transferred seq) and used to leak
		// its captured snapshot forever: the GC below only ran on the
		// first recording, which had returned early while the replica was
		// still behind.
		dropThrough(r.snaps.pendingSnap, r.lastStable)
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
		cs := r.snaps.pendingSnap[seq]
		if cs == nil && r.lastExecuted == seq && r.snaps.seq() < seq {
			cs, _ = r.buildSnapshot(seq, r.app.Digest())
		}
		switch {
		case cs == nil:
		case bytes.Equal(cs.Root(), digest):
			cs.Pi = pi
			r.snaps.adopt(cs)
		default:
			r.Metrics.CaptureFailures++
		}
		r.app.GarbageCollect(seq)
	}
	// Captures at or below the stable point are dead regardless of whether
	// this replica adopted one: unconditional, and on EVERY recording (the
	// early return above included), or a capture whose stabilization is
	// learned while the replica is behind (and whose sequence is then
	// skipped by catch-up) is never collected.
	dropThrough(r.snaps.pendingSnap, seq)
	// Drop slot state below the stable point — but never ahead of local
	// execution, or committed-but-unexecuted blocks would be lost. A slot
	// whose clients this E-collector has yet to ack outlives one stable
	// point: the checkpoint quorum can form before the slot's π quorum,
	// and the shares still to come must find the executed slot.
	gcTo := min(seq, r.lastExecuted)
	for n, s := range r.slots {
		if n <= gcTo && !(n > prevStable && r.owesAcks(s)) {
			delete(r.slots, n)
		}
	}
	dropThrough(r.ckptShares, seq)
	dropThrough(r.directReq, gcTo)
	if r.lastExecuted < seq {
		// The network proved a stable state we have not reached: catch up
		// via state transfer (§VIII).
		r.fetcher.want(seq)
	}
}

// buildSnapshot captures the certified execution state at seq: the
// application snapshot plus the canonical last-reply table. Valid only
// while app state and reply table are exactly at seq.
func (r *Replica) buildSnapshot(seq uint64, appDigest []byte) (*CertifiedSnapshot, error) {
	return r.snaps.capture(r.app, seq, appDigest, encodeReplyTable(r.replyCache))
}

// SetSnapshotSink installs the snapshot persistence hook; without one,
// snapshots are not persisted.
// Call before the replica starts processing messages.
func (r *Replica) SetSnapshotSink(s SnapshotSink) { r.snaps.sink = s }

// DurableSnapshotSeq reports the highest snapshot sequence known to be
// durably persisted (0 when none): the serving point that survives a
// restart, as opposed to SnapshotSeq, which arms immediately on adoption.
func (r *Replica) DurableSnapshotSeq() uint64 { return r.snaps.durableSnap }

// SnapshotSeq reports the sequence of the newest certified snapshot this
// replica can serve (0 when none).
func (r *Replica) SnapshotSeq() uint64 { return r.snaps.seq() }

// RetainedSnapshotSeqs lists the sequences of every retained snapshot
// generation, oldest first — observability for tests and operators.
func (r *Replica) RetainedSnapshotSeqs() []uint64 { return r.snaps.seqs() }

// ---------------------------------------------------------------------------
// The snapshot chain.

// snapChain owns a replica's certified snapshots, from capture to durable
// persistence, and serves them to fetchers. It knows nothing of the
// protocol: the checkpoint stage above says when a capture is taken and
// when one became stable.
type snapChain struct {
	retain  int // Config.SnapshotRetain, derived
	env     Env
	metrics *Metrics

	// snapGens is the bounded chain of retained stable certified
	// snapshot generations, oldest first; the newest entry is the one
	// advertised to fetchers. Older generations stay servable (in
	// memory) so fetchers mid-transfer keep completing across
	// checkpoint supersessions, and this replica's own transfers take
	// every chunk of them whose leaf the fetched snapshot repeats.
	snapGens []*CertifiedSnapshot
	// capCache carries chunk identities and leaf hashes between
	// consecutive checkpoint captures, so a checkpoint costs
	// O(chunks-changed) rather than O(state).
	capCache *CaptureCache
	// pendingSnap holds certified snapshots captured at the moment a
	// checkpoint sequence executed, keyed by that sequence. Stabilization
	// (the π quorum) arrives a round-trip later, when execution may have
	// pipelined past the checkpoint; capturing then would mislabel newer
	// state (and a newer reply table) with the older certified digest.
	pendingSnap map[uint64]*CertifiedSnapshot
	// sink, when set, receives adopted snapshots for persistence (see
	// SnapshotSink); nil keeps them in memory only.
	sink SnapshotSink
	// durableSnap is the highest snapshot sequence known persisted (the
	// restart-survivable serving point, armed by the sink's completion).
	durableSnap uint64
}

func newSnapChain(retain int, env Env, metrics *Metrics) snapChain {
	return snapChain{
		retain: retain, env: env, metrics: metrics,
		pendingSnap: make(map[uint64]*CertifiedSnapshot),
	}
}

// capture builds the certified snapshot of app at seq over its digest and
// the encoded reply table, chunk by chunk through the capture cache: clean
// chunks (recognized by slice identity, per the ChunkedSnapshotter
// contract) reuse their previous leaf hashes, so the capture stall is
// proportional to writes since the last checkpoint, not to state size.
func (c *snapChain) capture(app Application, seq uint64, appDigest, replyTable []byte) (*CertifiedSnapshot, error) {
	chunks, ok, err := app.SnapshotChunks()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errors.New("core: application returned no snapshot chunks")
	}
	if c.capCache == nil {
		c.capCache = &CaptureCache{}
	}
	cs := NewCertifiedSnapshotChunked(seq, appDigest, chunks, replyTable, c.capCache)
	c.metrics.CheckpointDirtyChunks += uint64(c.capCache.DirtyChunks())
	return cs, nil
}

// restored forgets the capture cache: a Restore replaced application state
// wholesale, so cached chunk identities no longer describe it. The next
// checkpoint re-hashes every chunk and re-seeds the cache.
func (c *snapChain) restored() { c.capCache = nil }

// cur returns the newest retained certified snapshot (nil when none): the
// snapshot advertised to fetchers.
func (c *snapChain) cur() *CertifiedSnapshot {
	if len(c.snapGens) == 0 {
		return nil
	}
	return c.snapGens[len(c.snapGens)-1]
}

// seqs lists the retained generations' sequences, oldest first.
func (c *snapChain) seqs() []uint64 {
	out := make([]uint64, len(c.snapGens))
	for i, cs := range c.snapGens {
		out[i] = cs.Seq
	}
	return out
}

// seq is the sequence of cur, 0 when there is none.
func (c *snapChain) seq() uint64 {
	if cs := c.cur(); cs != nil {
		return cs.Seq
	}
	return 0
}

// genAt returns the retained generation at exactly seq, or nil.
func (c *snapChain) genAt(seq uint64) *CertifiedSnapshot {
	for _, cs := range c.snapGens {
		if cs.Seq == seq {
			return cs
		}
	}
	return nil
}

// adopt appends a stable certified snapshot to the retention chain and
// hands it off for durable persistence so a restarted replica can serve
// state transfer immediately. In-memory serving arms at once (the capture
// is already chunked and Merkle-committed). Persistence goes through the
// SnapshotSink, and without one nothing is written. The sink's
// completion callback arms the restart-survivable serving point
// (durableSnap) once the bytes are actually on disk, but only while the
// persisted generation is still retained: a slow persist completing after
// retention evicted its generation must not advertise a serving point
// whose chunks (and, after a later prune, whose durable file) are gone.
func (c *snapChain) adopt(cs *CertifiedSnapshot) {
	if cur := c.cur(); cur != nil && cur.Seq >= cs.Seq {
		return
	}
	c.snapGens = append(c.snapGens, cs)
	if len(c.snapGens) > c.retain {
		// Copy into a fresh slice so the shrinking window cannot pin
		// evicted generations through the old backing array.
		c.snapGens = append([]*CertifiedSnapshot(nil), c.snapGens[len(c.snapGens)-c.retain:]...)
	}
	if c.sink == nil {
		return
	}
	seq := cs.Seq
	c.sink.PersistSnapshot(cs, c.snapGens[0].Seq, func(err error) {
		if err != nil {
			c.metrics.StoreErrors++
			return
		}
		if seq > c.durableSnap && c.genAt(seq) != nil {
			c.durableSnap = seq
			c.metrics.SnapshotPersists++
		}
	})
}

// rearm restarts the chain from a snapshot read back from durable storage:
// a single generation, regrowing from the next stable checkpoint.
func (c *snapChain) rearm(cs *CertifiedSnapshot) {
	c.snapGens = []*CertifiedSnapshot{cs}
	c.durableSnap = cs.Seq
}

// onFetchState answers a fetcher's request for snapshot metadata with the
// newest generation, if that is at or above what the fetcher needs.
func (c *snapChain) onFetchState(m FetchStateMsg) {
	cs := c.cur()
	if cs == nil || cs.Seq < m.Seq {
		return
	}
	c.env.Send(m.Replica, SnapshotMetaMsg{Seq: cs.Seq, Root: cs.Root(), Pi: cs.Pi, Header: cs.Header, Leaves: cs.Leaves()})
}

func (c *snapChain) onFetchSnapshotChunk(m FetchSnapshotChunkMsg) {
	cur := c.cur()
	if cur == nil {
		return
	}
	cs := c.genAt(m.Seq)
	if cs == nil {
		// Superseded beyond retention (cur.Seq > m.Seq): the chunks are
		// gone, but re-offering the current metadata lets the fetcher
		// restart at the checkpoint this server can actually serve. (The
		// fetcher-side stall gate keeps an advancing transfer from
		// thrashing on this; only a dead one restarts.) Otherwise the
		// fetcher wants a NEWER snapshot than this server holds — this
		// server is the laggard (say, freshly restarted while the fetcher
		// adopted a later certified checkpoint). Dropping the request
		// silently would leave the fetcher burning a retry timeout per
		// request routed here; answering with current metadata (below the
		// requested sequence) lets the fetcher's scheduler demote this
		// server immediately instead.
		c.onFetchState(FetchStateMsg{Replica: m.Replica, Seq: min(m.Seq, cur.Seq)})
		return
	}
	// Any retained generation serves: in-flight transfers keep completing
	// across checkpoint supersessions for the whole retention depth.
	if m.Index < 1 || m.Index > len(cs.Chunks) {
		return
	}
	c.env.Send(m.Replica, SnapshotChunkMsg{Seq: m.Seq, Index: m.Index, Data: cs.Chunks[m.Index-1]})
}
