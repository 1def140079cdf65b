package core

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"sbft/internal/crypto/threshsig"
)

// This file is the client side of state transfer (§VIII): a lagging
// replica fetches the newest certified snapshot in chunks through a
// bounded window, verifies each against the threshold-signed root, and
// installs the result.

// SnapshotBlameCounts reports, per server id, how many pieces of snapshot
// material from that server failed verification against a certified root.
func (r *Replica) SnapshotBlameCounts() map[int]int {
	out := make(map[int]int, len(r.snapshotBlames))
	for id, n := range r.snapshotBlames {
		out[id] = n
	}
	return out
}

// fetchTimeoutStrikes is how many consecutive unanswered chunk requests
// exclude a server from the rest of the transfer (soft exclusion — no
// tamper blame is recorded, but a slow-trickling server stops consuming
// window slots the way a tampering one stops serving chunks at all).
const fetchTimeoutStrikes = 3

// fetchStats accumulates one server's observed state-transfer service
// quality for the window scheduler: outstanding load, consecutive
// timeouts, and an EWMA of request→verified-chunk latency. Faster
// servers absorb more of the window; unresponsive ones lose share and
// are eventually excluded.
type fetchStats struct {
	outstanding int
	timeouts    int // consecutive unanswered requests
	ewma        time.Duration
	ewmaSet     bool
}

// observe folds one request→verified-chunk latency into the EWMA (α=1/4).
func (st *fetchStats) observe(d time.Duration) {
	if !st.ewmaSet {
		st.ewma, st.ewmaSet = d, true
		return
	}
	st.ewma += (d - st.ewma) / 4
}

// score ranks observed service quality (lower is better). Unknown
// servers score zero so every peer gets probed; each consecutive timeout
// doubles the effective latency, steering the window away from
// slow-trickling servers well before the exclusion threshold.
func (st *fetchStats) score() time.Duration {
	s := st.ewma
	strikes := st.timeouts
	if strikes > 8 {
		strikes = 8
	}
	for i := 0; i < strikes; i++ {
		s = 2*s + 10*time.Millisecond
	}
	return s
}

// chunkReq is one in-flight chunk request of the bounded window.
type chunkReq struct {
	server int
	sentAt time.Duration
}

// stateFetch tracks one in-progress chunked state transfer.
type stateFetch struct {
	target uint64 // minimum acceptable snapshot sequence
	// Meta collection: competing verified metas gathered for a short
	// window before the transfer commits to the HIGHEST certified
	// sequence among them — a Byzantine server racing a stale-but-valid
	// meta can no longer steer the transfer by answering first.
	bestMeta  *SnapshotMetaMsg
	metaTimer func() // cancel
	// Filled once a meta is adopted:
	seq     uint64
	root    []byte
	pi      threshsig.Signature
	header  SnapshotHeader
	chunks  [][]byte
	missing int
	next    int // refill scan cursor (1-based chunk index)
	// Delta-transfer state. prefilled lists the chunk indexes seeded
	// from a locally held base instead of fetched; deltaBase is that
	// base's sequence (0 = full transfer). The delta fields of a meta
	// ride OUTSIDE the π-certified root, so prefilled chunks are only
	// trusted once the fully assembled snapshot reproduces the certified
	// root (finishStateFetch); metaFrom remembers who supplied the delta
	// list so a mismatch blames the right server. fetched counts chunks
	// verified over the wire this transfer — the progress a restart
	// would discard.
	prefilled []int
	deltaBase uint64
	metaFrom  int
	fetched   int
	// bestFrom is the sender of bestMeta (meta under collection).
	bestFrom int
	// inflight is the bounded request window: chunk index → outstanding
	// request. Wiped whole when a newer meta restarts the transfer, so
	// stale accounting can never leak into the new window.
	inflight map[int]chunkReq
	// servers is the per-server accounting the scheduler steers by.
	servers map[int]*fetchStats
	// blamed servers are excluded from further requests this transfer.
	blamed  map[int]bool
	attempt int
	// lastProgress is when the transfer last advanced (created, meta
	// accepted, or a chunk verified): the signal separating a healthy
	// long transfer from a stalled one.
	lastProgress time.Duration
	// svc is the transfer-wide request→verified-chunk latency EWMA: the
	// retry deadline's fallback before a specific server's own EWMA is
	// seeded (early in a transfer the queue tail behind a full window
	// easily exceeds any fixed timeout; expiring it would churn).
	svc    time.Duration
	svcSet bool
	cancel func() // whole-transfer retry timer
	pacer  func() // per-chunk retry scan timer
}

// stats returns the accounting entry for a server, creating it lazily.
func (f *stateFetch) stats(id int) *fetchStats {
	st, ok := f.servers[id]
	if !ok {
		st = &fetchStats{}
		f.servers[id] = st
	}
	return st
}

// stopTimers cancels every timer owned by the transfer.
func (f *stateFetch) stopTimers() {
	if f.cancel != nil {
		f.cancel()
		f.cancel = nil
	}
	if f.pacer != nil {
		f.pacer()
		f.pacer = nil
	}
	if f.metaTimer != nil {
		f.metaTimer()
		f.metaTimer = nil
	}
}

// fetchPeers lists the servers still eligible for this transfer. If every
// peer has been excluded the set resets: with at most f Byzantine servers
// a full exclusion list means transient corruption or loss, not a hostile
// majority. The reset also forgives timeout strikes so every server gets
// a fresh probe instead of being instantly re-excluded.
func (r *Replica) fetchPeers(f *stateFetch) []int {
	peers := make([]int, 0, r.cfg.N()-1)
	for id := 1; id <= r.cfg.N(); id++ {
		if id != r.id && !f.blamed[id] {
			peers = append(peers, id)
		}
	}
	if len(peers) == 0 {
		f.blamed = make(map[int]bool)
		for _, st := range f.servers {
			st.timeouts = 0
		}
		for id := 1; id <= r.cfg.N(); id++ {
			if id != r.id {
				peers = append(peers, id)
			}
		}
	}
	return peers
}

// blameSnapshotServer records a server whose snapshot material failed
// verification against the certified root (§VIII: any single honest server
// suffices; a tampering one is excluded and provably at fault, since
// correct material is Merkle-provable against a threshold-signed root).
func (r *Replica) blameSnapshotServer(f *stateFetch, id int, why string) {
	r.tracef("blaming snapshot server %d: %s", id, why)
	f.blamed[id] = true
	r.snapshotBlames[id]++
	r.Metrics.SnapshotBlames++
}

func (r *Replica) maybeFetchState(target uint64) {
	if r.lastExecuted >= target {
		return
	}
	if r.fetch != nil {
		if target > r.fetch.target {
			r.fetch.target = target
		}
		return
	}
	r.fetch = &stateFetch{
		target:       target,
		blamed:       make(map[int]bool),
		servers:      make(map[int]*fetchStats),
		lastProgress: r.env.Now(),
	}
	r.Metrics.StateFetches++
	r.sendFetchState()
	r.armFetchRetry()
}

// sendFetchState asks every eligible peer for snapshot metadata. The
// request is tiny and the answers compete: the fetcher adopts the highest
// certified sequence it collects (see onSnapshotMeta). HaveSeq advertises
// the newest base this fetcher could apply a delta against: mid-transfer
// that is the snapshot being fetched (a delta against it carries the
// verified chunks forward through a supersession), otherwise the newest
// retained generation.
func (r *Replica) sendFetchState() {
	f := r.fetch
	have := uint64(0)
	if f.seq != 0 {
		have = f.seq
	} else if cs := r.curSnap(); cs != nil {
		have = cs.Seq
	}
	for _, peer := range r.fetchPeers(f) {
		r.env.Send(peer, FetchStateMsg{Replica: r.id, Seq: f.target, HaveSeq: have})
	}
}

// dropStaleFetch cancels an in-progress state transfer that can no longer
// deliver anything: local execution caught up with both the requested
// target and (if metadata was already accepted) the transfer's snapshot
// sequence. Without this, a replica that catches up through gap repair
// keeps an immortal retry timer and may later re-download a snapshot it
// does not need.
func (r *Replica) dropStaleFetch() {
	f := r.fetch
	if f == nil || r.lastExecuted < f.target || r.lastExecuted < f.seq {
		return
	}
	f.stopTimers()
	r.fetch = nil
}

// armFetchRetry re-drives a stalled transfer at the whole-transfer level:
// metadata requests repeat while no meta has been adopted, and every few
// attempts the metadata request repeats even mid-transfer — servers
// garbage-collect superseded snapshots, so a transfer locked to a
// checkpoint the whole cluster has advanced past must discover the newer
// one and restart rather than re-request dead chunks forever. Individual
// lost chunk requests recover much sooner through the per-chunk pacer.
func (r *Replica) armFetchRetry() {
	f := r.fetch
	f.cancel = r.env.After(4*r.cfg.ViewChangeTimeout/3, func() {
		if r.fetch != f {
			return
		}
		r.dropStaleFetch()
		if r.fetch != f {
			return
		}
		f.attempt++
		if f.seq == 0 {
			r.adoptBestMeta() // a meta under collection beats re-polling
		}
		if f.seq == 0 || f.attempt%3 == 0 {
			r.sendFetchState()
		}
		if f.seq != 0 {
			r.fillFetchWindow()
		}
		r.armFetchRetry()
	})
}

func (r *Replica) onSnapshotMeta(from int, m SnapshotMetaMsg) {
	r.dropStaleFetch()
	f := r.fetch
	if f == nil {
		return
	}
	if from < 1 || from > r.cfg.N() || from == r.id {
		return
	}
	if m.Seq <= r.lastExecuted || m.Seq < f.target || (f.seq != 0 && m.Seq < f.seq) {
		// Metadata BELOW what the transfer needs. The sender is a laggard
		// — an honest server behind the adopted checkpoint (say, freshly
		// restarted) answering chunk requests with the only snapshot it
		// has. It cannot serve this transfer's chunks, so demote it:
		// expire its in-flight requests and let the scheduler shift its
		// window share elsewhere immediately, instead of burning a full
		// retry timeout per request routed to it. Staleness is not
		// tampering — no blame — and a server can only demote itself, so
		// acting before certificate verification is safe.
		r.demoteLaggardServer(f, from, m.Seq)
		return
	}
	// Mid-transfer, only a strictly newer certified snapshot is
	// interesting: it means servers advanced past the one being fetched.
	// Metadata for the sequence already in flight is ignored.
	if f.seq != 0 && m.Seq == f.seq {
		return
	}
	// π over the certified root, then the header's membership proof: after
	// this every chunk is independently verifiable, from any server.
	if r.suite.Pi.Verify(CheckpointSigDigest(m.Seq, m.Root), m.Pi) != nil {
		r.blameSnapshotServer(f, from, "snapshot certificate invalid")
		return
	}
	if err := VerifySnapshotHeader(m.Root, m.Header, m.HeaderProof); err != nil {
		r.blameSnapshotServer(f, from, err.Error())
		return
	}
	// Sanitize the ADVISORY delta fields before they can influence the
	// transfer: indexes must name real chunks of THIS meta's snapshot and
	// the base must be one this fetcher can actually seed from. A lying
	// list that survives this (wrongly claiming chunks clean) is caught
	// by the whole-snapshot root check in finishStateFetch.
	if m.DeltaBase != 0 {
		ok := m.DeltaBase == f.seq || r.retainsSnapshot(m.DeltaBase)
		n := m.Header.NumChunks()
		if len(m.DeltaChunks) > n {
			ok = false
		}
		for _, idx := range m.DeltaChunks {
			if idx < 1 || idx > n {
				ok = false
				break
			}
		}
		if !ok {
			m.DeltaBase, m.DeltaChunks = 0, nil
		}
	}
	if f.seq != 0 {
		// Mid-transfer supersession. A delta against the in-flight base
		// carries every verified chunk forward, so adopting the newer
		// meta costs nothing and skips re-fetching state the transfer
		// already proved — take it immediately. Without that delta,
		// restarting throws away every chunk fetched so far, so an
		// advancing transfer ignores the newer meta and completes
		// (servers retain superseded generations precisely to let it);
		// only a STALLED transfer — its snapshot garbage-collected
		// everywhere, nothing arriving — restarts at the newer state.
		if m.DeltaBase == f.seq {
			r.tracef("state transfer advancing %d → %d via delta (%d changed chunks)", f.seq, m.Seq, len(m.DeltaChunks))
			r.adoptMeta(from, m)
			return
		}
		if !r.fetchStalled(f) {
			return
		}
		r.tracef("state transfer restarting at %d (superseded stalled %d)", m.Seq, f.seq)
		r.adoptMeta(from, m)
		return
	}
	// Initial choice: collect competing metas briefly and adopt the
	// highest certified sequence. Taking the first meta at or above the
	// target instead would let a Byzantine server race a STALE-but-valid
	// certified snapshot and win — pinning recovery to a checkpoint whose
	// chunks the honest servers may already have garbage-collected.
	if f.bestMeta == nil || m.Seq > f.bestMeta.Seq {
		mm := m
		f.bestMeta = &mm
		f.bestFrom = from
	}
	if f.metaTimer == nil {
		f.metaTimer = r.env.After(r.cfg.snapshotMetaWait(), func() {
			f.metaTimer = nil
			if r.fetch == f {
				r.adoptBestMeta()
			}
		})
	}
}

// expiryLimit is the adaptive per-request retry deadline: the configured
// age stretched to cover the observed service latency (the server's own
// EWMA, falling back to the transfer-wide one before it is seeded),
// bounded so a dead server still expires.
func expiryLimit(f *stateFetch, st *fetchStats, age time.Duration) time.Duration {
	limit := age
	ewma := f.svc
	if st != nil && st.ewmaSet && st.ewma > ewma {
		ewma = st.ewma
	}
	if adaptive := 4 * ewma; adaptive > limit {
		limit = adaptive
	}
	if bound := 8 * age; limit > bound {
		limit = bound
	}
	return limit
}

// fetchStalled reports whether the in-flight transfer has stopped
// advancing: no verified chunk (or accepted meta) within twice the
// (adaptive) retry deadline — a transfer merely waiting out slow-server
// retries is NOT stalled. Used to gate mid-transfer restarts and the
// progress-timeout suppression.
func (r *Replica) fetchStalled(f *stateFetch) bool {
	return r.env.Now()-f.lastProgress >= 2*expiryLimit(f, nil, r.cfg.chunkRetryTimeout())
}

// demoteLaggardServer reacts to snapshot metadata OLDER than the
// transfer in flight: the sender cannot serve the in-flight chunks (it
// does not have them), so its outstanding requests are expired at once
// and it takes a timeout strike, shifting its window share to servers
// with current material. Repeated stale answers accumulate strikes into
// a soft exclusion, exactly like unresponsiveness — and like
// unresponsiveness it is forgiven if the peer set resets.
func (r *Replica) demoteLaggardServer(f *stateFetch, from int, seq uint64) {
	if f.seq == 0 || seq >= f.seq {
		return
	}
	st := f.stats(from)
	var expired []int
	for idx, req := range f.inflight {
		if req.server == from {
			expired = append(expired, idx)
		}
	}
	sort.Ints(expired)
	for _, idx := range expired {
		delete(f.inflight, idx)
		st.outstanding--
	}
	st.timeouts++
	if st.timeouts >= fetchTimeoutStrikes && !f.blamed[from] {
		r.tracef("snapshot server %d serves only %d < %d; excluding from transfer", from, seq, f.seq)
		f.blamed[from] = true
		r.Metrics.SnapshotTimeoutExclusions++
	}
	if len(expired) > 0 {
		r.fillFetchWindow()
	}
}

// adoptBestMeta commits the transfer to the highest certified meta
// collected so far.
func (r *Replica) adoptBestMeta() {
	f := r.fetch
	if f == nil || f.seq != 0 || f.bestMeta == nil {
		return
	}
	m := *f.bestMeta
	from := f.bestFrom
	f.bestMeta = nil
	r.adoptMeta(from, m)
}

// deltaBaseChunks resolves the chunk source for a delta prefill: a
// complete retained generation at base, or — when the delta is against
// the very snapshot this transfer was fetching (mid-transfer
// supersession) — the superseded window's verified chunks, so fetched
// progress carries over instead of being discarded.
func (r *Replica) deltaBaseChunks(base, prevSeq uint64, prevChunks [][]byte) [][]byte {
	if g := r.genAt(base); g != nil {
		return g.cs.Chunks
	}
	if base != 0 && base == prevSeq {
		return prevChunks
	}
	return nil
}

// adoptMeta (re)starts the transfer at a verified meta. All in-flight
// accounting from a superseded window is wiped so it cannot leak into the
// new one: late chunks for the old sequence are dropped by the seq check
// in onSnapshotChunk, and per-server outstanding counters reset so the
// new window fills completely (a restart that inherited phantom
// outstanding requests would under-fill its window forever). When the
// meta carries a usable delta, the chunks it marks clean are seeded from
// the base this replica already holds — a laggard several checkpoint
// intervals behind then moves base + deltas over the wire instead of
// base × intervals, and a transfer superseded mid-flight keeps its
// verified chunks rather than restarting.
func (r *Replica) adoptMeta(from int, m SnapshotMetaMsg) {
	f := r.fetch
	if f.metaTimer != nil {
		f.metaTimer()
		f.metaTimer = nil
	}
	f.bestMeta = nil
	prevSeq, prevChunks, prevFetched := f.seq, f.chunks, f.fetched
	f.seq = m.Seq
	f.root = append([]byte(nil), m.Root...)
	f.pi = m.Pi
	f.header = m.Header
	f.chunks = make([][]byte, m.Header.NumChunks())
	f.missing = len(f.chunks)
	f.next = 1
	f.inflight = make(map[int]chunkReq)
	f.prefilled = nil
	f.deltaBase = 0
	f.metaFrom = 0
	f.fetched = 0
	for _, st := range f.servers {
		st.outstanding = 0
	}
	f.lastProgress = r.env.Now()
	if m.DeltaBase != 0 {
		if base := r.deltaBaseChunks(m.DeltaBase, prevSeq, prevChunks); base != nil {
			inDelta := make(map[int]bool, len(m.DeltaChunks))
			for _, idx := range m.DeltaChunks {
				inDelta[idx] = true
			}
			for i := 1; i <= len(f.chunks) && i <= len(base); i++ {
				if inDelta[i] || base[i-1] == nil {
					continue
				}
				f.chunks[i-1] = base[i-1]
				f.missing--
				f.prefilled = append(f.prefilled, i)
			}
			if len(f.prefilled) > 0 {
				f.deltaBase = m.DeltaBase
				f.metaFrom = from
				r.Metrics.SnapshotDeltaTransfers++
				r.Metrics.SnapshotChunksReused += uint64(len(f.prefilled))
			}
		}
	}
	if prevSeq != 0 && prevFetched > 0 && !(f.deltaBase == prevSeq && f.deltaBase != 0) {
		// This supersession discarded chunks already verified over the
		// wire — the restart the retention chain and delta path exist to
		// avoid. (Supersessions that carried progress forward, or hit
		// before anything was fetched, do not count.)
		r.Metrics.SnapshotTransferRestarts++
	}
	r.tracef("state transfer to %d: %d chunks to fetch, %d reused (window %d)", f.seq, f.missing, len(f.prefilled), r.cfg.fetchWindow())
	if f.missing == 0 {
		r.finishStateFetch()
		return
	}
	r.fillFetchWindow()
	r.armChunkPacer()
}

// pickFetchServer selects the server for the next chunk request: the
// non-excluded server with the fewest outstanding requests, ties broken
// by the better observed service score, then by id (determinism). Fast
// servers therefore absorb more of the window and slow or unresponsive
// ones naturally lose share (§VIII needs only one honest server; the
// scheduler just prefers the good ones).
func (r *Replica) pickFetchServer(f *stateFetch) int {
	best := -1
	var bestSt *fetchStats
	for _, id := range r.fetchPeers(f) {
		st := f.stats(id)
		if best < 0 || st.outstanding < bestSt.outstanding ||
			(st.outstanding == bestSt.outstanding && st.score() < bestSt.score()) {
			best, bestSt = id, st
		}
	}
	return best
}

// fillFetchWindow tops the bounded in-flight window up with requests for
// missing, not-yet-requested chunks, each routed through the per-server
// scheduler. This is the only place chunk requests are issued.
func (r *Replica) fillFetchWindow() {
	f := r.fetch
	if f == nil || f.seq == 0 || f.missing == 0 {
		return
	}
	win := r.cfg.fetchWindow()
	n := len(f.chunks)
	for scanned := 0; len(f.inflight) < win && scanned < n; scanned++ {
		idx := f.next
		f.next++
		if f.next > n {
			f.next = 1
		}
		if f.chunks[idx-1] != nil {
			continue
		}
		if _, ok := f.inflight[idx]; ok {
			continue
		}
		server := r.pickFetchServer(f)
		if server < 0 {
			return
		}
		f.inflight[idx] = chunkReq{server: server, sentAt: r.env.Now()}
		f.stats(server).outstanding++
		r.env.Send(server, FetchSnapshotChunkMsg{Replica: r.id, Seq: f.seq, Index: idx})
	}
}

// expireInflight removes in-flight requests older than their deadline,
// penalizing the assigned servers: consecutive timeouts shrink a
// server's scheduler share and eventually exclude it from the transfer.
// The deadline adapts to the assigned server's observed service latency
// — a loaded-but-honest server answering in 800ms must not be treated
// like a dead one by a fixed 500ms timer (the spurious retries would
// more than double the transferred bytes) — but stays bounded so an
// actually dead server still expires. Indexes are processed in sorted
// order so simulated runs stay deterministic.
func (r *Replica) expireInflight(f *stateFetch, age time.Duration) {
	now := r.env.Now()
	var expired []int
	for idx, req := range f.inflight {
		if now-req.sentAt >= expiryLimit(f, f.stats(req.server), age) {
			expired = append(expired, idx)
		}
	}
	sort.Ints(expired)
	struck := make(map[int]bool)
	for _, idx := range expired {
		req := f.inflight[idx]
		delete(f.inflight, idx)
		st := f.stats(req.server)
		st.outstanding--
		r.Metrics.SnapshotChunkRetries++
		// One strike per server per scan: a single tick expiring several
		// of one server's dropped replies is one observation of
		// unresponsiveness, not three.
		if !struck[req.server] {
			struck[req.server] = true
			st.timeouts++
			if st.timeouts >= fetchTimeoutStrikes && !f.blamed[req.server] {
				r.tracef("snapshot server %d unanswered %d scans; excluding from transfer", req.server, st.timeouts)
				f.blamed[req.server] = true
				r.Metrics.SnapshotTimeoutExclusions++
			}
		}
	}
}

// armChunkPacer runs the per-chunk retry scan: an outstanding request
// unanswered for ChunkRetryTimeout is treated as lost and its chunk
// re-enters the window toward a better server. A dropped SnapshotChunkMsg
// now costs one retry interval instead of a whole-transfer restart.
func (r *Replica) armChunkPacer() {
	f := r.fetch
	timeout := r.cfg.chunkRetryTimeout()
	if f.pacer != nil {
		return
	}
	tick := timeout / 2
	if tick <= 0 {
		tick = timeout
	}
	f.pacer = r.env.After(tick, func() {
		f.pacer = nil
		if r.fetch != f || f.seq == 0 {
			return
		}
		r.expireInflight(f, timeout)
		r.fillFetchWindow()
		if f.missing > 0 {
			r.armChunkPacer()
		}
	})
}

func (r *Replica) onSnapshotChunk(from int, m SnapshotChunkMsg) {
	f := r.fetch
	if f == nil || f.seq == 0 || m.Seq != f.seq {
		return
	}
	if from < 1 || from > r.cfg.N() || from == r.id {
		return
	}
	if m.Index < 1 || m.Index > len(f.chunks) || f.chunks[m.Index-1] != nil {
		return
	}
	req, wasInflight := f.inflight[m.Index]
	if err := VerifySnapshotChunk(f.root, f.header, m.Index, m.Data, m.Proof); err != nil {
		// Tampered or corrupt: blame the sender, exclude it, and route the
		// chunk back through the scheduler. (The pre-windowed code
		// re-derived the retry peer from the PRE-blame rotation — after
		// fetchPeers shrank, `(index+attempt) % len(peers)` could land on
		// the very server just excluded, or on the same server again.)
		r.blameSnapshotServer(f, from, fmt.Sprintf("chunk %d: %v", m.Index, err))
		if wasInflight && req.server == from {
			delete(f.inflight, m.Index)
			f.stats(from).outstanding--
		}
		r.fillFetchWindow()
		return
	}
	if wasInflight {
		delete(f.inflight, m.Index)
		f.stats(req.server).outstanding--
	}
	st := f.stats(from)
	st.timeouts = 0
	if wasInflight && req.server == from {
		d := r.env.Now() - req.sentAt
		st.observe(d)
		if !f.svcSet {
			f.svc, f.svcSet = d, true
		} else {
			f.svc += (d - f.svc) / 4
		}
	}
	f.lastProgress = r.env.Now()
	f.chunks[m.Index-1] = m.Data
	f.missing--
	f.fetched++
	r.Metrics.SnapshotChunks++
	if f.missing == 0 {
		r.finishStateFetch()
		return
	}
	r.fillFetchWindow()
}

// finishStateFetch installs a fully transferred, chunk-verified snapshot:
// restore the application, replace the last-reply table with the CERTIFIED
// one (the exactly-once filter's state is now exactly what the π quorum
// signed), and resume from the restored frontier.
func (r *Replica) finishStateFetch() {
	f := r.fetch
	if r.lastExecuted >= f.seq {
		// Execution advanced past the transfer while chunks were in
		// flight (gap repair): installing now would ROLL BACK application
		// state and the reply table. Drop the transfer; if a raised
		// target still lies ahead, start over against it.
		f.stopTimers()
		r.fetch = nil
		r.maybeFetchState(f.target)
		return
	}
	// Rebuild the commitment over the assembled chunks and require the
	// certified root before installing anything. Chunks fetched over the
	// wire were leaf-verified individually, but chunks seeded from a
	// local base were vouched for only by the meta's ADVISORY delta list
	// — this whole-snapshot check is what makes that list safe to act on.
	cs := &CertifiedSnapshot{Seq: f.seq, Header: f.header, Chunks: f.chunks, Pi: f.pi}
	cs.build()
	if !bytes.Equal(cs.Root(), f.root) {
		if len(f.prefilled) > 0 {
			// A lying delta list claimed changed chunks clean. Blame its
			// sender, drop ONLY the seeded chunks, and fetch them over
			// the wire — every individually verified chunk is kept, so
			// the lie costs the liar its service, not this transfer its
			// progress.
			r.blameSnapshotServer(f, f.metaFrom, "delta prefill mismatched certified root")
			for _, idx := range f.prefilled {
				f.chunks[idx-1] = nil
				f.missing++
			}
			f.prefilled = nil
			f.deltaBase = 0
			f.lastProgress = r.env.Now()
			r.fillFetchWindow()
			r.armChunkPacer()
			return
		}
		// Unreachable with leaf-verified chunks and no prefill.
		r.tracef("state transfer root mismatch at %d", f.seq)
		r.abortStateFetch()
		return
	}
	appBytes, tableBytes, err := AssembleSnapshot(f.header, f.chunks)
	if err != nil {
		// Unreachable with verified chunks; restart the transfer.
		r.tracef("state transfer assembly failed: %v", err)
		r.abortStateFetch()
		return
	}
	table, err := decodeReplyTable(tableBytes)
	if err != nil {
		// The certified table itself is malformed: the honest quorum never
		// signs one, so this replica's decoder and the cluster disagree —
		// do not install half a snapshot.
		r.tracef("state transfer reply table malformed: %v", err)
		r.abortStateFetch()
		return
	}
	if err := r.app.Restore(appBytes); err != nil {
		r.tracef("state transfer restore failed: %v", err)
		r.abortStateFetch()
		return
	}
	if !bytes.Equal(r.app.Digest(), f.header.AppDigest) {
		// Defense in depth: chunks were leaf-verified, so this indicates
		// local divergence, not a tampering server.
		r.tracef("state transfer: restored app digest mismatch")
		r.abortStateFetch()
		return
	}
	// The restore replaced application state wholesale; cached capture
	// identities no longer describe it. The next checkpoint re-hashes
	// every chunk and re-seeds the cache.
	r.capCache = nil
	r.replyCache = table
	for client, e := range table {
		if ts := r.seen[client]; ts < e.timestamp {
			r.seen[client] = e.timestamp
		}
		// Requests the certified table proves executed are no longer
		// pending: drop their watch entries, or the liveness timer keeps
		// firing (and spinning view changes) over work that finished
		// below the snapshot and will never execute locally.
		if w, ok := r.watch[client]; ok && w.ts <= e.timestamp {
			delete(r.watch, client)
		}
	}
	seq, root, pi := f.seq, f.root, f.pi
	f.stopTimers()
	r.fetch = nil
	r.lastExecuted = seq
	// Drop protocol state the snapshot supersedes: slots at or below the
	// restored frontier can never execute locally (their effects are IN
	// the snapshot) and an uncommitted one would read as outstanding work
	// forever, spinning progress-timeout view changes. recordStable has
	// typically already run for this checkpoint — that is what triggered
	// the transfer — and stopped its GC at the OLD execution frontier, so
	// it will not run again below.
	for s := range r.slots {
		if s <= seq {
			delete(r.slots, s)
		}
	}
	for s := range r.directReq {
		if s <= seq {
			delete(r.directReq, s)
		}
	}
	r.adoptSnapshot(cs)
	r.tracef("state transfer complete at %d (%d servers blamed)", seq, len(f.blamed))
	r.recordStable(seq, root, pi)
	r.executeReady()
}

// abortStateFetch cancels the current transfer; the protocol will retrigger
// state transfer from recordStable/maybeFetchState when still behind.
func (r *Replica) abortStateFetch() {
	if r.fetch == nil {
		return
	}
	target := r.fetch.target
	r.fetch.stopTimers()
	r.fetch = nil
	r.maybeFetchState(target)
}
