package core

import (
	"fmt"
	"time"

	"sbft/internal/merkle"
	"sbft/internal/snapcodec"
)

// Consensus-free linearizable reads (ROADMAP item 2). §IV's authenticated
// service already leaves every replica holding a π-certified Merkle root
// over its execution state at each stable checkpoint; this file serves key
// reads from ANY single replica against that commitment, with the client
// verifying everything locally:
//
//	client                                 replica i
//	   │  ReadMsg{op, minSeq, nonce}          │
//	   ├─────────────────────────────────────▶│  (batched: proofs amortize)
//	   │                                      │  cs = latest certified snapshot
//	   │                                      │  cs.Seq < minSeq → ReadBehind
//	   │  ReadReplyMsg{root, π, header+proof, │
//	   │               bucket chunk + proof}  │
//	   │◀─────────────────────────────────────┤
//	   │  verify π(ckpt(seq,root)),           │
//	   │  header proof, chunk proof,          │
//	   │  key→bucket routing; extract value   │
//
// Verification failure, ReadBehind and ReadUnavailable all fail over to
// the next replica; after one full rotation the client falls back to the
// ordering path (Submit), which guarantees liveness and freshness
// unconditionally. Freshness on the fast path is read-your-writes: the
// client floors every read at the highest sequence it has observed
// completing (its own writes and prior reads), so a laggard replica
// cannot serve it pre-write state. Remaining work (ROADMAP): primary-
// granted leases for external-consistency reads without a floor.

// ---------------------------------------------------------------------------
// Server side.

// A replica serves queued certified reads as one batch when the queue
// reaches readBatch entries or the oldest has waited readBatchWait.
const (
	readBatch     = 16
	readBatchWait = 2 * time.Millisecond
)

// readRequest is one queued certified read.
type readRequest struct {
	from int
	m    ReadMsg
}

// onRead queues a certified read. Batching amortizes proof generation:
// all reads of one flush share the header proof and any repeated
// bucket-chunk proofs.
func (r *Replica) onRead(from int, m ReadMsg) {
	if m.Client != from || !IsClient(from) {
		return
	}
	r.readQueue = append(r.readQueue, readRequest{from: from, m: m})
	if len(r.readQueue) >= readBatch {
		r.flushReads()
		return
	}
	if !r.readTimer.armed() {
		r.readTimer.arm(r.env, readBatchWait, r.flushReads)
	}
}

// flushReads serves the queued batch against the newest certified
// snapshot, computing each distinct Merkle proof once.
func (r *Replica) flushReads() {
	r.readTimer.stop()
	queue := r.readQueue
	r.readQueue = nil
	if len(queue) == 0 {
		return
	}
	r.Metrics.ReadBatches++

	cs := r.snaps.cur()
	kr, _ := r.app.(KeyReader)
	var (
		headerProof     merkle.Proof
		headerProofDone bool
		chunkProofs     map[int]merkle.Proof
	)
	for _, req := range queue {
		m := req.m
		reply := ReadReplyMsg{Client: m.Client, Nonce: m.Nonce, Replica: r.id}
		var key string
		ok := false
		if kr != nil {
			if k, err := kr.ReadKey(m.Op); err == nil {
				key, ok = k, true
			}
		}
		switch {
		case !ok || cs == nil || cs.Header.AppChunks < 2:
			// No key mapping, no certified snapshot yet, or the app
			// snapshot is not bucketed — the client must use the
			// ordering path.
			reply.Status = ReadUnavailable
			r.Metrics.ReadsUnavailable++
		case cs.Seq < m.MinSeq:
			// Behind the client's freshness floor; report the frontier so
			// the client fails over.
			reply.Status = ReadBehind
			reply.Seq = cs.Seq
			r.Metrics.ReadsBehind++
		default:
			buckets := int(cs.Header.AppChunks) - 1
			leaf := 2 + snapcodec.BucketOf(key, buckets)
			if !headerProofDone {
				hp, err := cs.ProveHeader()
				if err != nil {
					reply.Status = ReadUnavailable
					r.Metrics.ReadsUnavailable++
					r.env.Send(m.Client, reply)
					continue
				}
				headerProof, headerProofDone = hp, true
			}
			if chunkProofs == nil {
				chunkProofs = make(map[int]merkle.Proof)
			}
			cp, cached := chunkProofs[leaf]
			if !cached {
				p, err := cs.ProveChunk(leaf)
				if err != nil {
					reply.Status = ReadUnavailable
					r.Metrics.ReadsUnavailable++
					r.env.Send(m.Client, reply)
					continue
				}
				cp = p
				chunkProofs[leaf] = cp
			}
			reply.Status = ReadOK
			reply.Seq = cs.Seq
			reply.Root = cs.Root()
			reply.Pi = cs.Pi
			reply.Header = cs.Header
			reply.HeaderProof = headerProof
			reply.ChunkIndex = leaf
			reply.Chunk = cs.Chunks[leaf-1]
			reply.ChunkProof = cp
			r.Metrics.ReadsServed++
		}
		r.env.Send(m.Client, reply)
	}
}

// ---------------------------------------------------------------------------
// Client-side verification (also the fuzz/corruption surface).

// VerifyReadReply checks a ReadOK reply end to end against the threshold-
// certified state and extracts the key's value from the verified bucket
// chunk. It returns (value, found) — a verified chunk authenticates
// absence as well as presence, so found=false is a certified negative.
// Every check binds to material the client already trusts (the π public
// key and its own key/minSeq); nothing in the reply is taken on faith:
//
//  1. π certificate over CheckpointSigDigest(Seq, Root) — the root really
//     was stable-checkpointed by an honest-quorum-backed f+1 set;
//  2. Seq ≥ minSeq — the certified frontier satisfies the freshness floor;
//  3. header inclusion proof (index-bound to leaf 0) — the chunk layout
//     is the one committed under Root;
//  4. key → bucket routing — ChunkIndex is the unique leaf the key may
//     live in, so a replica cannot serve a different (valid) chunk;
//  5. chunk inclusion proof (index-bound) — the chunk bytes are exactly
//     the committed ones;
//  6. canonical bucket decode — malformed framing rejects.
func VerifyReadReply(suite CryptoSuite, key string, minSeq uint64, m ReadReplyMsg) ([]byte, bool, error) {
	if m.Status != ReadOK {
		return nil, false, fmt.Errorf("core: read reply status %d", m.Status)
	}
	if m.Seq < minSeq {
		return nil, false, fmt.Errorf("core: read reply at seq %d below floor %d", m.Seq, minSeq)
	}
	if err := suite.Pi.Verify(CheckpointSigDigest(m.Seq, m.Root), m.Pi); err != nil {
		return nil, false, fmt.Errorf("core: read reply π certificate: %w", err)
	}
	if err := VerifySnapshotHeader(m.Root, m.Header, m.HeaderProof); err != nil {
		return nil, false, fmt.Errorf("core: read reply header: %w", err)
	}
	if m.Header.AppChunks < 2 {
		return nil, false, fmt.Errorf("core: read reply snapshot is not bucketed")
	}
	buckets := int(m.Header.AppChunks) - 1
	if want := 2 + snapcodec.BucketOf(key, buckets); m.ChunkIndex != want {
		return nil, false, fmt.Errorf("core: read reply chunk %d, key routes to %d", m.ChunkIndex, want)
	}
	if err := VerifySnapshotChunk(m.Root, m.Header, m.ChunkIndex, m.Chunk, m.ChunkProof); err != nil {
		return nil, false, fmt.Errorf("core: read reply chunk: %w", err)
	}
	val, found, err := snapcodec.BucketLookup(m.Chunk, key)
	if err != nil {
		return nil, false, fmt.Errorf("core: read reply bucket: %w", err)
	}
	return val, found, nil
}

// ---------------------------------------------------------------------------
// Client side.

// ReadResult is a completed certified read.
type ReadResult struct {
	Op  []byte
	Key string
	Val []byte
	// Found distinguishes a certified "key absent" from a present key:
	// both verify against the committed bucket chunk.
	Found bool
	// Seq and Root name the certified snapshot the read was served from
	// (zero for Ordered fallbacks, which carry no certificate).
	Seq     uint64
	Root    []byte
	Latency time.Duration
	// Replica is the replica that served the accepted reply (0 for
	// Ordered fallbacks).
	Replica int
	// Failovers counts replicas tried and rejected (behind, unavailable,
	// forged proof, timeout) before the read completed.
	Failovers int
	// Ordered reports that the read gave up on the certified path after a
	// full replica rotation and completed through consensus.
	Ordered bool
}

// pendingRead is the client's outstanding certified read.
type pendingRead struct {
	op        []byte
	key       string
	nonce     uint64
	started   time.Duration
	minSeq    uint64
	first     int // first replica targeted
	tried     int // replicas tried so far (index offset from first)
	target    int // replica currently awaited
	failovers int
	timeout   timer
}

// SetReadKey installs the client-side op→key mapping (the same mapping
// the replicas' application implements via KeyReader). It must be set
// before SubmitRead: the client needs the key to check bucket routing and
// to extract the value from the verified chunk.
func (c *Client) SetReadKey(fn func(op []byte) (string, error)) { c.readKey = fn }

// SetOnReadResult installs the read-completion callback.
func (c *Client) SetOnReadResult(fn func(ReadResult)) { c.onReadResult = fn }

// SeqFloor reports the client's freshness floor: the highest sequence it
// has observed completing (writes and certified reads).
func (c *Client) SeqFloor() uint64 { return c.seqFloor }

// SubmitRead starts a certified read of op against a replica chosen by
// nonce round-robin (spreading read load over all n replicas).
func (c *Client) SubmitRead(op []byte) error { return c.SubmitReadAt(op, 0) }

// SubmitReadAt starts a certified read targeting replica first (1-based;
// 0 picks round-robin). Tests use the explicit form to aim reads at a
// known-laggard replica.
func (c *Client) SubmitReadAt(op []byte, first int) error {
	if c.cur != nil || c.curRead != nil {
		return fmt.Errorf("core: client %d already has an outstanding request", c.id)
	}
	if c.readKey == nil {
		return fmt.Errorf("core: client %d has no read-key mapping (SetReadKey)", c.id)
	}
	key, err := c.readKey(op)
	if err != nil {
		return fmt.Errorf("core: op has no read key: %w", err)
	}
	c.readNonce++
	p := &pendingRead{
		op:      op,
		key:     key,
		nonce:   c.readNonce,
		started: c.env.Now(),
		minSeq:  c.seqFloor,
		first:   first,
	}
	if p.first < 1 || p.first > c.cfg.N() {
		p.first = 1 + int(p.nonce%uint64(c.cfg.N()))
	}
	c.curRead = p
	c.sendRead(p)
	return nil
}

// sendRead issues the read to the next replica in the rotation and arms
// the per-attempt timeout.
func (c *Client) sendRead(p *pendingRead) {
	n := c.cfg.N()
	p.target = (p.first-1+p.tried)%n + 1
	c.env.Send(p.target, ReadMsg{Client: c.id, Nonce: p.nonce, Op: p.op, MinSeq: p.minSeq})
	timeout := c.ReadTimeout
	if timeout <= 0 {
		timeout = c.RequestTimeout
	}
	if timeout <= 0 {
		return // deterministic tests drive failover via explicit replies
	}
	p.timeout.stop()
	attempt := p.tried
	p.timeout.arm(c.env, timeout, func() {
		if c.curRead != p || p.tried != attempt {
			return
		}
		c.readFailover(p)
	})
}

// readFailover advances the read to the next replica, or — after a full
// rotation — falls back to the ordering path, which guarantees both
// liveness and freshness (the committed read executes at a sequence above
// every prior write by definition).
func (c *Client) readFailover(p *pendingRead) {
	p.tried++
	p.failovers++
	if p.tried >= c.cfg.N() {
		p.timeout.stop()
		c.curRead = nil
		c.ReadFallbacks++
		c.readFallback = p
		if err := c.Submit(p.op); err != nil {
			// Cannot happen: curRead and cur were both nil. Surface the
			// read as failed-over-to-nothing rather than hanging.
			c.readFallback = nil
			return
		}
		return
	}
	c.sendRead(p)
}

// onReadReply handles a ReadReplyMsg: verified acceptance, or failover on
// refusal and on any verification failure (the forged-proof case — caught
// HERE, client-side, which is the property the chaos sweep pins).
func (c *Client) onReadReply(from int, m ReadReplyMsg) {
	p := c.curRead
	if p == nil || m.Client != c.id || m.Nonce != p.nonce {
		return
	}
	if m.Status != ReadOK {
		// Refusals are unauthenticated; only the currently-awaited replica
		// may advance the rotation, so a stale or forged refusal cannot
		// double-step it.
		if from == p.target && m.Replica == from {
			c.readFailover(p)
		}
		return
	}
	val, found, err := VerifyReadReply(c.suite, p.key, p.minSeq, m)
	if err != nil {
		c.ReadProofFailures++
		if from == p.target {
			c.readFailover(p)
		}
		return
	}
	// Accepted. Any replica's verified reply is as good as the target's.
	p.timeout.stop()
	c.curRead = nil
	c.ReadsCompleted++
	if m.Seq > c.seqFloor {
		c.seqFloor = m.Seq // monotonic reads: later reads never go behind
	}
	if c.onReadResult != nil {
		c.onReadResult(ReadResult{
			Op:        p.op,
			Key:       p.key,
			Val:       val,
			Found:     found,
			Seq:       m.Seq,
			Root:      append([]byte(nil), m.Root...),
			Latency:   c.env.Now() - p.started,
			Replica:   m.Replica,
			Failovers: p.failovers,
		})
	}
}
