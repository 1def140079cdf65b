package core

import "time"

func (r *Replica) onRequest(from int, m RequestMsg) {
	req := m.Req
	// Reply from cache for already-executed requests (retries).
	if ent, ok := r.replyCache[req.Client]; ok && ent.timestamp >= req.Timestamp {
		if ent.timestamp == req.Timestamp {
			r.env.Send(req.Client, ReplyMsg{
				Seq: ent.seq, L: ent.l, Replica: r.id, View: r.view,
				Client: req.Client, Timestamp: ent.timestamp, Val: ent.val,
			})
		}
		return
	}
	// Admission control (§V-C backpressure): a full pending queue rejects
	// new work instead of queueing it — under open-loop overload an
	// unbounded queue (and the seen/watch maps that shadow it) trades
	// memory and tail latency for zero extra throughput. The primary
	// answers with a retry hint; a backup just declines to retain the
	// request (its copy only matters if it becomes primary, by which time
	// the client will have retried). Requests already admitted (covered by
	// `seen`) fall through to the normal dedup paths.
	if limit := r.maxPending(); len(r.pending) >= limit {
		if known, ok := r.seen[req.Client]; !ok || known < req.Timestamp {
			r.Metrics.AdmissionRejects++
			if r.isPrimary() && IsClient(from) {
				r.env.Send(req.Client, BusyMsg{
					Client: req.Client, Timestamp: req.Timestamp, RetryAfter: r.retryHint(),
				})
			} else if !r.isPrimary() && IsClient(from) {
				// The primary runs its own admission and may have room.
				r.env.Send(r.cfg.Primary(r.view), m)
			}
			return
		}
	}
	if w, ok := r.watch[req.Client]; !ok || w.ts < req.Timestamp {
		r.watch[req.Client] = watchEntry{ts: req.Timestamp, since: r.env.Now()}
	}
	if !r.isPrimary() && IsClient(from) {
		// Forward to the primary and watch for progress (§V-A retry path:
		// a request reaching a backup arms the liveness timer, §VII).
		r.env.Send(r.cfg.Primary(r.view), m)
	}
	r.notePending(req) // a backup retains it so a future primary can propose it
	r.armProgressTimer()
	r.proposeIfReady(false)
}

// pendingIdxAdd records a queued request in the client index.
func (r *Replica) pendingIdxAdd(req Request) {
	set := r.pendingIdx[req.Client]
	if set == nil {
		set = make(map[uint64]bool, 1)
		r.pendingIdx[req.Client] = set
	}
	set[req.Timestamp] = true
}

// pendingIdxDel removes a dequeued request from the client index.
func (r *Replica) pendingIdxDel(req Request) {
	set := r.pendingIdx[req.Client]
	if set == nil {
		return
	}
	delete(set, req.Timestamp)
	if len(set) == 0 {
		delete(r.pendingIdx, req.Client)
	}
}

// notePending enqueues a request if it is new.
func (r *Replica) notePending(req Request) {
	if ts, ok := r.seen[req.Client]; ok && ts >= req.Timestamp {
		return
	}
	r.seen[req.Client] = req.Timestamp
	r.pending = append(r.pending, req)
	r.pendingIdxAdd(req)
	r.armBatchTimer()
}

// prunePending drops the queued requests that have executed (the reply
// cache covers them) or that carried covers: client → highest timestamp in
// a slot of the view being installed, nil at any other time.
func (r *Replica) prunePending(carried map[int]uint64) {
	kept := r.pending[:0]
	for _, req := range r.pending {
		ts, inSlot := carried[req.Client]
		ent, done := r.replyCache[req.Client]
		if inSlot && ts >= req.Timestamp || done && ent.timestamp >= req.Timestamp {
			r.pendingIdxDel(req)
		} else {
			kept = append(kept, req)
		}
	}
	r.pending = kept
}

// requeue re-adds a request to the pending queue unless it has already
// executed or is already covered by the queue, bypassing the `seen` dedup
// (which tracks proposed-but-possibly-lost requests). Used at view
// installation so requests stuck in slots the new view did not adopt are
// proposed again; the exactly-once execution filter makes a redundant
// re-proposal harmless.
func (r *Replica) requeue(req Request) {
	if ent, ok := r.replyCache[req.Client]; ok && ent.timestamp >= req.Timestamp {
		return
	}
	// Already queued (same timestamp), or superseded by a LATER queued
	// operation of the same client: clients are sequential, so a queued
	// higher timestamp proves the client saw this operation complete —
	// re-proposing it could only be deduplicated again at execution.
	// Checked against the client index instead of scanning the whole
	// queue (a 10k-deep queue at view installation made this O(n²)).
	for ts := range r.pendingIdx[req.Client] {
		if ts >= req.Timestamp {
			return
		}
	}
	r.pending = append(r.pending, req)
	r.pendingIdxAdd(req)
	if ts := r.seen[req.Client]; ts < req.Timestamp {
		r.seen[req.Client] = req.Timestamp
	}
}

// armBatchTimer ensures a pending-but-unproposed request cannot starve:
// whenever the primary holds pending requests, a batch timer is running.
// The blocks it forces out are counted: a commit should have come first.
func (r *Replica) armBatchTimer() {
	if !r.isPrimary() || len(r.pending) == 0 || r.batchTimer.armed() || r.cfg.BatchTimeout <= 0 {
		return
	}
	r.batchTimer.arm(r.env, r.cfg.BatchTimeout, func() {
		before := r.Metrics.Proposals
		r.proposeIfReady(true)
		r.Metrics.TimerProposals += r.Metrics.Proposals - before
	})
}

// activeWindow is the number of blocks committed in parallel by the
// primary: ⌊(n−1)/(c+1)⌋, capped by win/2 (§VIII).
func (r *Replica) activeWindow() uint64 {
	aw := uint64((r.cfg.N() - 1) / (r.cfg.C + 1))
	if aw < 1 {
		aw = 1
	}
	if aw > r.cfg.Win/2 {
		aw = r.cfg.Win / 2
	}
	return aw
}

// maxPending is the admission bound on the pending queue (§V-C
// backpressure). The derived default keeps several full windows of
// max-sized blocks queued — enough to ride out proposal bursts without
// letting queueing delay dominate client latency.
func (r *Replica) maxPending() int {
	if r.cfg.MaxPending > 0 {
		return r.cfg.MaxPending
	}
	return 4 * r.cfg.Batch * int(r.activeWindow())
}

// retryHint estimates when a rejected client should retry: the time to
// drain about half the queue at the batch cadence, clamped to keep a
// momentarily deep queue from parking clients for long.
func (r *Replica) retryHint() time.Duration {
	per := r.cfg.BatchTimeout
	if per <= 0 {
		per = 10 * time.Millisecond
	}
	blocks := len(r.pending) / (2 * r.cfg.Batch)
	return min(time.Duration(blocks+1)*per, 2*time.Second)
}

// outstanding counts proposed-but-uncommitted sequence numbers.
func (r *Replica) outstanding() uint64 {
	var n uint64
	for seq := r.windowBase + 1; seq < r.nextSeq; seq++ {
		if s, ok := r.slots[seq]; !ok || !s.committed {
			n++
		}
	}
	return n
}

// threeClientsAlive reports whether three distinct clients show in what
// the primary sees of the recent past: its queue, the slots in flight and
// the block that committed last. Holding a request pays only then: with
// two, the client that is not in the queue is the one in flight, and it
// cannot send again before the commit that ends the hold.
func (r *Replica) threeClientsAlive() bool {
	alive := make(map[int]bool, 3)
	note := func(reqs []Request) {
		for i := 0; i < len(reqs) && len(alive) < 3; i++ {
			alive[reqs[i].Client] = true
		}
	}
	note(r.pending)
	note(r.lastCommitted)
	for seq := r.windowBase + 1; seq < r.nextSeq && len(alive) < 3; seq++ {
		if s, ok := r.slots[seq]; ok && !s.committed {
			note(s.reqs)
		}
	}
	return len(alive) >= 3
}

// proposeIfReady cuts blocks of up to Batch requests from the queue while
// the window has room. The gate is Nagle's rule clocked by commits: with
// nothing in flight a request is proposed at once; behind an uncommitted
// slot requests are held (given threeClientsAlive), so the per-block
// threshold crypto, constant in the block's size, is shared by all that
// arrive meanwhile. A release — a slot committing, the batch timer, a view
// installing — sends what has gathered as one block; a queue that reaches
// a full batch, or the admission bound if lower, does not wait for one.
func (r *Replica) proposeIfReady(release bool) {
	if !r.isPrimary() || r.inViewChange || r.installing {
		return
	}
	// Whatever stops the proposal loop, leftover pending requests must
	// have a running batch timer to pick them up.
	defer r.armBatchTimer()
	full := min(r.cfg.Batch, r.maxPending())
	for len(r.pending) > 0 {
		inFlight := r.outstanding()
		if inFlight >= r.activeWindow() || r.nextSeq > r.windowBase+r.cfg.Win {
			return
		}
		if inFlight > 0 && !release && len(r.pending) < full && r.threeClientsAlive() {
			r.Metrics.Holds++
			return
		}
		batch := min(len(r.pending), r.cfg.Batch)
		reqs := make([]Request, batch)
		copy(reqs, r.pending[:batch])
		for _, req := range reqs {
			r.pendingIdxDel(req)
		}
		r.pending = r.pending[batch:]
		// The timer bounds how long a held request waits, so it restarts
		// with the queue: left running, it would cut short a later hold.
		r.batchTimer.stop()
		seq := r.nextSeq
		r.nextSeq++
		r.Metrics.Proposals++
		r.Metrics.ProposedOps += uint64(batch)
		pp := PrePrepareMsg{Seq: seq, View: r.view, Reqs: reqs}
		r.broadcast(pp)
		r.acceptPrePrepare(r.id, pp)
		release = false // a release forces out one under-full block
	}
}
