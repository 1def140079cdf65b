package core

import (
	"sort"
	"time"

	"sbft/internal/crypto/threshsig"
	"sbft/internal/merkle"
)

// This file is the client side of state transfer (§VIII): a lagging
// replica fetches the newest certified snapshot in chunks through a
// bounded window, verifies each against the leaf list the threshold-signed
// root commits to, and hands the result to its host to install. The
// serving side is snapChain's (checkpoint.go).

// fetchHost is what the fetcher sees of the replica it fetches for.
type fetchHost interface {
	// LastExecuted is the execution frontier a transfer must get ahead of.
	LastExecuted() uint64
	// install replaces the host's state with a snapshot whose every chunk
	// verified against its certified root, and resumes execution from it.
	// The transfer that fetched it is over by then, so install may ask for
	// the next one (want). An error means the snapshot was not installed.
	install(cs *CertifiedSnapshot) error
}

// fetcher is the state-transfer client of one replica: at most one
// transfer in flight, and the blame its servers have earned over all of
// them.
type fetcher struct {
	id      int
	cfg     Config
	env     Env
	pi      threshsig.Scheme // verifies a snapshot's certificate
	host    fetchHost
	snaps   *snapChain // local generations: chunks a transfer may reuse
	metrics *Metrics

	// fetch is the in-progress chunked state transfer, if any.
	fetch *stateFetch
	// blames accumulates, per server id, how many times that server was
	// blamed for snapshot material failing verification.
	blames map[int]int
}

// fetchTimeoutStrikes is how many consecutive unanswered rounds of chunk
// requests exclude a server from the rest of the transfer (soft exclusion
// — no tamper blame is recorded, but a silent server stops consuming
// window slots the way a tampering one stops serving chunks at all).
const fetchTimeoutStrikes = 3

// snapshotMetaWait is how long a fetcher collects competing snapshot metas
// before committing to the highest certified sequence among them, so a
// Byzantine server racing a stale-but-valid certified snapshot cannot win
// by answering first.
const snapshotMetaWait = 40 * time.Millisecond

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
	metaTimer timer
	// Filled once a meta is adopted. leaves is its verified leaf list:
	// chunk i is authentic exactly when its leaf hash is leaves[i].
	seq     uint64
	pi      threshsig.Signature
	header  SnapshotHeader
	leaves  []merkle.Digest
	chunks  [][]byte
	missing int
	next    int // refill scan cursor (1-based chunk index)
	// fetched counts chunks verified over the wire this transfer — the
	// progress a restart would discard.
	fetched int
	// inflight is the bounded request window: chunk index → outstanding
	// request. It is the only record of a server's load, and a newer meta
	// replaces it whole.
	inflight map[int]chunkReq
	// strikes counts, per server, consecutive rounds of its requests that
	// expired unanswered; a verified chunk from it clears the count.
	strikes map[int]int
	// blamed servers are excluded from further requests this transfer.
	blamed  map[int]bool
	attempt int
	// lastProgress is when the transfer last advanced (created, meta
	// accepted, or a chunk verified): the signal separating a healthy
	// long transfer from a stalled one.
	lastProgress time.Duration
	retry        timer // whole-transfer retry
	pacer        timer // per-chunk retry scan
}

// clear ends the transfer in flight: its timers stop and it is forgotten.
func (ft *fetcher) clear() {
	f := ft.fetch
	f.retry.stop()
	f.pacer.stop()
	f.metaTimer.stop()
	ft.fetch = nil
}

// advancing reports whether a transfer is in flight and making progress:
// the replica is then behind the fetch, not behind a faulty primary.
func (ft *fetcher) advancing() bool { return ft.fetch != nil && !ft.stalled(ft.fetch) }

// peers lists the servers still eligible for this transfer. If every
// peer has been excluded the set resets: with at most f Byzantine servers
// a full exclusion list means transient corruption or loss, not a hostile
// majority. The reset also forgives timeout strikes so every server gets
// a fresh probe instead of being instantly re-excluded.
func (ft *fetcher) peers(f *stateFetch) []int {
	peers := make([]int, 0, ft.cfg.N()-1)
	for id := 1; id <= ft.cfg.N(); id++ {
		if id != ft.id && !f.blamed[id] {
			peers = append(peers, id)
		}
	}
	if len(peers) > 0 {
		return peers
	}
	f.blamed = make(map[int]bool)
	f.strikes = make(map[int]int)
	return ft.peers(f)
}

// blameServer records a server whose snapshot material failed
// verification against the certified root (§VIII: any single honest server
// suffices; a tampering one is excluded and provably at fault, since
// correct material is Merkle-provable against a threshold-signed root).
func (ft *fetcher) blameServer(f *stateFetch, id int) {
	f.blamed[id] = true
	ft.blames[id]++
	ft.metrics.SnapshotBlames++
}

// want starts a transfer to a certified snapshot at or above target, or
// raises the target of the one in flight; a host already there needs none.
func (ft *fetcher) want(target uint64) {
	if ft.host.LastExecuted() >= target {
		return
	}
	if ft.fetch != nil {
		if target > ft.fetch.target {
			ft.fetch.target = target
		}
		return
	}
	ft.fetch = &stateFetch{
		target:       target,
		blamed:       make(map[int]bool),
		strikes:      make(map[int]int),
		lastProgress: ft.env.Now(),
	}
	ft.metrics.StateFetches++
	ft.sendFetchState()
	ft.armRetry()
}

// sendFetchState asks every eligible peer for snapshot metadata. The
// request is tiny and the answers compete: the fetcher adopts the highest
// certified sequence it collects (see onSnapshotMeta).
func (ft *fetcher) sendFetchState() {
	f := ft.fetch
	for _, peer := range ft.peers(f) {
		ft.env.Send(peer, FetchStateMsg{Replica: ft.id, Seq: f.target})
	}
}

// dropStale cancels an in-progress state transfer that can no longer
// deliver anything: local execution caught up with both the requested
// target and (if metadata was already accepted) the transfer's snapshot
// sequence. Without this, a replica that catches up through gap repair
// keeps an immortal retry timer and may later re-download a snapshot it
// does not need.
func (ft *fetcher) dropStale() {
	f := ft.fetch
	if f == nil || ft.host.LastExecuted() < f.target || ft.host.LastExecuted() < f.seq {
		return
	}
	ft.clear()
}

// armRetry re-drives a stalled transfer at the whole-transfer level:
// metadata requests repeat while no meta has been adopted, and every few
// attempts the metadata request repeats even mid-transfer — servers
// garbage-collect superseded snapshots, so a transfer locked to a
// checkpoint the whole cluster has advanced past must discover the newer
// one and restart rather than re-request dead chunks forever. Individual
// lost chunk requests recover much sooner through the per-chunk pacer.
func (ft *fetcher) armRetry() {
	f := ft.fetch
	f.retry.arm(ft.env, 4*ft.cfg.ViewChangeTimeout/3, func() {
		if ft.fetch != f {
			return
		}
		ft.dropStale()
		if ft.fetch != f {
			return
		}
		f.attempt++
		if f.seq == 0 {
			ft.adoptBestMeta() // a meta under collection beats re-polling
		}
		if f.seq == 0 || f.attempt%3 == 0 {
			ft.sendFetchState()
		}
		if f.seq != 0 {
			ft.fillWindow()
		}
		ft.armRetry()
	})
}

func (ft *fetcher) onSnapshotMeta(from int, m SnapshotMetaMsg) {
	ft.dropStale()
	f := ft.fetch
	if f == nil {
		return
	}
	if from == ft.id {
		return
	}
	// Metadata below what the transfer needs is of no use to it: a
	// laggard server's requests simply expire. Mid-transfer, only a
	// strictly newer certified snapshot is interesting: it means servers
	// advanced past the one being fetched.
	if m.Seq <= ft.host.LastExecuted() || m.Seq < f.target || (f.seq != 0 && m.Seq <= f.seq) {
		return
	}
	// The leaf list against the root, then π over the root: after this
	// every chunk is independently verifiable, from any server.
	if verifySnapshotLeaves(ft.pi, m) != nil {
		ft.blameServer(f, from)
		return
	}
	if f.seq != 0 {
		// Mid-transfer supersession. When a chunk the transfer holds
		// carries over under an equal leaf, adopting the newer meta keeps
		// that progress — take it immediately. Otherwise restarting
		// throws away every chunk fetched so far, so an advancing transfer
		// ignores the newer meta and completes (servers retain superseded
		// generations precisely to let it); only a STALLED transfer — its
		// snapshot garbage-collected everywhere, nothing arriving —
		// restarts at the newer state.
		if reuse(nil, m.Leaves, f.leaves, f.chunks) > 0 || ft.stalled(f) {
			ft.adoptMeta(m)
		}
		return
	}
	// Initial choice: collect competing metas briefly and adopt the
	// highest certified sequence. Taking the first meta at or above the
	// target instead would let a Byzantine server race a STALE-but-valid
	// certified snapshot and win — pinning recovery to a checkpoint whose
	// chunks the honest servers may already have garbage-collected.
	if f.bestMeta == nil || m.Seq > f.bestMeta.Seq {
		f.bestMeta = &m
	}
	if !f.metaTimer.armed() {
		f.metaTimer.arm(ft.env, snapshotMetaWait, func() {
			if ft.fetch == f {
				ft.adoptBestMeta()
			}
		})
	}
}

// stalled reports whether the in-flight transfer has stopped
// advancing: no verified chunk (or accepted meta) within twice the chunk
// retry deadline — a transfer merely waiting out one round of retries is
// NOT stalled. Used to gate mid-transfer restarts and the
// progress-timeout suppression.
func (ft *fetcher) stalled(f *stateFetch) bool {
	return ft.env.Now()-f.lastProgress >= 2*chunkRetryTimeout
}

// adoptBestMeta commits the transfer to the highest certified meta
// collected so far.
func (ft *fetcher) adoptBestMeta() {
	f := ft.fetch
	if f == nil || f.seq != 0 || f.bestMeta == nil {
		return
	}
	ft.adoptMeta(*f.bestMeta)
}

// reuse copies into dst each chunk of chunks, committed under the leaf
// list have, whose leaf want repeats at the same index and which dst
// lacks, and returns how many; a nil dst only counts. A leaf hashes its
// index with the chunk's bytes, so an equal leaf is the same chunk.
func reuse(dst [][]byte, want, have []merkle.Digest, chunks [][]byte) int {
	n := 0
	for i := 1; i < min(len(want), len(have)) && i <= len(chunks); i++ {
		if chunks[i-1] == nil || want[i] != have[i] || (dst != nil && dst[i-1] != nil) {
			continue
		}
		if dst != nil {
			dst[i-1] = chunks[i-1]
		}
		n++
	}
	return n
}

// adoptMeta (re)starts the transfer at a verified meta. The superseded
// window is replaced whole, so the new one fills completely; late chunks
// for the old sequence are dropped by the seq check in onSnapshotChunk.
// Every chunk this replica already holds under an equal leaf — verified
// by the superseded transfer, or in a retained generation of its own — is
// taken as it is: a laggard several checkpoint intervals behind then moves
// only the chunks that changed over the wire, and a transfer superseded
// mid-flight keeps its verified chunks rather than restarting.
func (ft *fetcher) adoptMeta(m SnapshotMetaMsg) {
	f := ft.fetch
	f.metaTimer.stop()
	f.bestMeta = nil
	prevLeaves, prevChunks, prevFetched := f.leaves, f.chunks, f.fetched
	f.seq = m.Seq
	f.pi = m.Pi
	f.header = m.Header
	f.leaves = m.Leaves
	f.chunks = make([][]byte, m.Header.NumChunks())
	f.next = 1
	f.inflight = make(map[int]chunkReq)
	f.fetched = 0
	f.lastProgress = ft.env.Now()
	carried := reuse(f.chunks, f.leaves, prevLeaves, prevChunks)
	reused := carried
	for _, cs := range ft.snaps.snapGens {
		reused += reuse(f.chunks, f.leaves, cs.Leaves(), cs.Chunks)
	}
	f.missing = len(f.chunks) - reused
	if reused > 0 {
		ft.metrics.SnapshotReuseTransfers++
		ft.metrics.SnapshotChunksReused += uint64(reused)
	}
	if prevFetched > 0 && carried == 0 {
		// This supersession discarded chunks already verified over the
		// wire — the restart the retention chain and chunk reuse exist to
		// avoid. (Supersessions that carried progress forward, or hit
		// before anything was fetched, do not count.)
		ft.metrics.SnapshotTransferRestarts++
	}
	if f.missing == 0 {
		ft.finish()
		return
	}
	ft.fillWindow()
	ft.armPacer()
}

// pickServer selects the server for the next chunk request: the
// non-excluded server with the fewest requests in flight, ties broken by
// fewer strikes, then by the lower id (determinism). §VIII needs only one
// honest server; the window spreads over all of them.
func (ft *fetcher) pickServer(f *stateFetch) int {
	load := make(map[int]int)
	for _, req := range f.inflight {
		load[req.server]++
	}
	best := -1
	for _, id := range ft.peers(f) {
		if best < 0 || load[id] < load[best] ||
			(load[id] == load[best] && f.strikes[id] < f.strikes[best]) {
			best = id
		}
	}
	return best
}

// fillWindow tops the bounded in-flight window up with requests for
// missing, not-yet-requested chunks, each routed through the per-server
// scheduler. This is the only place chunk requests are issued.
func (ft *fetcher) fillWindow() {
	f := ft.fetch
	if f == nil || f.seq == 0 || f.missing == 0 {
		return
	}
	n := len(f.chunks)
	for scanned := 0; len(f.inflight) < fetchWindow && scanned < n; scanned++ {
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
		server := ft.pickServer(f)
		if server < 0 {
			return
		}
		f.inflight[idx] = chunkReq{server: server, sentAt: ft.env.Now()}
		ft.env.Send(server, FetchSnapshotChunkMsg{Replica: ft.id, Seq: f.seq, Index: idx})
	}
}

// expireInflight removes in-flight requests unanswered for
// chunkRetryTimeout, striking the assigned servers: consecutive rounds
// of timeouts exclude a server from the transfer. Indexes are processed
// in sorted order so simulated runs stay deterministic.
func (ft *fetcher) expireInflight(f *stateFetch) {
	now := ft.env.Now()
	var expired []int
	for idx, req := range f.inflight {
		if now-req.sentAt >= chunkRetryTimeout {
			expired = append(expired, idx)
		}
	}
	sort.Ints(expired)
	struck := make(map[int]bool)
	for _, idx := range expired {
		req := f.inflight[idx]
		delete(f.inflight, idx)
		ft.metrics.SnapshotChunkRetries++
		// One strike per server per scan: a single tick expiring several
		// of one server's dropped replies is one observation of
		// unresponsiveness, not three.
		if !struck[req.server] {
			struck[req.server] = true
			ft.strike(f, req.server)
		}
	}
}

// strike counts one more round of expired requests against a server, and
// at fetchTimeoutStrikes in a row excludes it from the rest of the
// transfer. No blame: silence is not provable tampering.
func (ft *fetcher) strike(f *stateFetch, server int) {
	f.strikes[server]++
	if f.strikes[server] >= fetchTimeoutStrikes && !f.blamed[server] {
		f.blamed[server] = true
		ft.metrics.SnapshotTimeoutExclusions++
	}
}

// armPacer runs the per-chunk retry scan: an outstanding request
// unanswered for chunkRetryTimeout is treated as lost and its chunk
// re-enters the window, routed afresh. A dropped SnapshotChunkMsg
// now costs one retry interval instead of a whole-transfer restart.
func (ft *fetcher) armPacer() {
	f := ft.fetch
	if f.pacer.armed() {
		return
	}
	f.pacer.arm(ft.env, chunkRetryTimeout/2, func() {
		if ft.fetch != f || f.seq == 0 {
			return
		}
		ft.expireInflight(f)
		ft.fillWindow()
		if f.missing > 0 {
			ft.armPacer()
		}
	})
}

func (ft *fetcher) onSnapshotChunk(from int, m SnapshotChunkMsg) {
	f := ft.fetch
	if f == nil || f.seq == 0 || m.Seq != f.seq {
		return
	}
	if from == ft.id {
		return
	}
	if m.Index < 1 || m.Index > len(f.chunks) || f.chunks[m.Index-1] != nil {
		return
	}
	if f.header.chunkFits(m.Index, m.Data) != nil || chunkLeafHash(m.Index, m.Data) != f.leaves[m.Index] {
		// Tampered or corrupt: blame the sender, exclude it, and route the
		// chunk back through the scheduler. (The pre-windowed code
		// re-derived the retry peer from the PRE-blame rotation — after
		// peers shrank, `(index+attempt) % len(peers)` could land on
		// the very server just excluded, or on the same server again.)
		ft.blameServer(f, from)
		if f.inflight[m.Index].server == from {
			delete(f.inflight, m.Index)
		}
		ft.fillWindow()
		return
	}
	delete(f.inflight, m.Index)
	delete(f.strikes, from)
	f.lastProgress = ft.env.Now()
	f.chunks[m.Index-1] = m.Data
	f.missing--
	f.fetched++
	ft.metrics.SnapshotChunks++
	if f.missing == 0 {
		ft.finish()
		return
	}
	ft.fillWindow()
}

// finish hands a fully transferred snapshot to the host to install. Every
// chunk matched its leaf, so the commitment tree is built from the
// verified leaf list without hashing the state again. The transfer clears
// itself first — timers stopped, nothing in flight — because install
// re-enters the fetcher (the stable point it records and the blocks it
// then executes may each want the next transfer); a snapshot the host
// could not install costs a fresh transfer at the same target.
func (ft *fetcher) finish() {
	f := ft.fetch
	if ft.host.LastExecuted() >= f.seq {
		// Execution advanced past the transfer while chunks were in
		// flight (gap repair): installing now would ROLL BACK application
		// state and the reply table. Drop the transfer; if a raised
		// target still lies ahead, start over against it.
		ft.restart()
		return
	}
	cs := &CertifiedSnapshot{Seq: f.seq, Header: f.header, Chunks: f.chunks, Pi: f.pi}
	cs.build(f.leaves[1:])
	ft.clear()
	if ft.host.install(cs) != nil {
		ft.metrics.CaptureFailures++
		ft.want(f.target)
	}
}

// restart drops the transfer in flight and, while its target still lies
// ahead of the host, starts over against it.
func (ft *fetcher) restart() {
	target := ft.fetch.target
	ft.clear()
	ft.want(target)
}
