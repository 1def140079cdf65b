package core

import (
	"fmt"
	"time"
)

// ProofVerifier checks an application proof carried by an execute-ack:
// verify(d, o, val, s, l, P) from §IV. internal/apps provides
// implementations for the key-value store and the EVM ledger.
type ProofVerifier func(digest []byte, op, val []byte, seq uint64, l int, proof []byte) error

// Result is a completed client operation.
type Result struct {
	Op        []byte
	Val       []byte
	Seq       uint64
	Timestamp uint64
	Latency   time.Duration
	// FastAck reports whether the single-message execute-ack path
	// confirmed the operation (vs. f+1 direct replies).
	FastAck bool
	// Retried reports whether the client had to fall back to
	// broadcasting the request (§V-A timeout path).
	Retried bool
}

// Client is a sans-io SBFT client (§V-A): it sends each operation to the
// primary, accepts a single execute-ack by verifying the π threshold
// signature plus the Merkle proof, and on timeout rebroadcasts the request
// asking for PBFT-style f+1 acknowledgement.
type Client struct {
	id     int
	cfg    Config
	suite  CryptoSuite
	env    Env
	verify ProofVerifier

	// RequestTimeout is how long to wait before the §V-A retry. The zero
	// value disables retries (useful in deterministic tests).
	RequestTimeout time.Duration
	// ReadTimeout is the per-replica attempt timeout of the certified
	// read path (read.go); zero falls back to RequestTimeout.
	ReadTimeout time.Duration

	ts       uint64
	view     uint64 // best guess of the current view
	cur      *pendingOp
	onResult func(Result)

	// Certified-read state (read.go). seqFloor is the freshness floor:
	// the highest sequence observed completing (writes and reads), so
	// reads are read-your-writes and monotonic without consensus.
	readKey      func(op []byte) (string, error)
	curRead      *pendingRead
	readFallback *pendingRead // read being completed through the ordering path
	readNonce    uint64
	seqFloor     uint64
	onReadResult func(ReadResult)

	// Stats.
	Completed uint64
	Retries   uint64
	// Backpressure counts BusyMsg rejections received (§V-C admission
	// control): each one delayed a request by the primary's retry hint.
	Backpressure uint64
	// ReadsCompleted counts certified reads accepted after full local
	// verification (Ordered fallbacks count under Completed instead).
	ReadsCompleted uint64
	// ReadProofFailures counts read replies rejected by client-side
	// verification — the forged-proof detections.
	ReadProofFailures uint64
	// ReadFallbacks counts reads that exhausted the replica rotation and
	// completed through the ordering path.
	ReadFallbacks uint64
}

type pendingOp struct {
	op      []byte
	ts      uint64
	started time.Duration
	direct  bool
	retried bool
	replies map[int]string // replica → reply fingerprint (f+1 matching)
	vals    map[string][]byte
	seqs    map[string]uint64
	views   map[int]uint64 // replica → claimed current view (routing hint)
	retry   timer
}

// NewClient builds a client. id must be ≥ ClientBase. verify may be nil
// when the application provides no proofs (then only the π signature over
// the digest is checked). Request timestamps count up from the client's
// clock at construction (PBFT's "timestamp is the client's clock"), so a
// process that takes over a client id outranks what its predecessor left
// in the replicas' last-reply tables: wall-clock nanoseconds under
// transport.Shell; simulated clients, all built at time 0, count from 1.
func NewClient(id int, cfg Config, suite CryptoSuite, env Env, verify ProofVerifier) (*Client, error) {
	if !IsClient(id) {
		return nil, fmt.Errorf("core: client id %d below ClientBase", id)
	}
	return &Client{id: id, cfg: cfg, suite: suite, env: env, verify: verify, ts: uint64(env.Now())}, nil
}

// ID reports the client id.
func (c *Client) ID() int { return c.id }

// View reports the client's best guess of the cluster's current view,
// learned from reply and execute-ack view hints.
func (c *Client) View() uint64 { return c.view }

// SetOnResult installs the completion callback. It must be set before
// Submit.
func (c *Client) SetOnResult(fn func(Result)) { c.onResult = fn }

// Busy reports whether an operation (write or certified read) is
// outstanding.
func (c *Client) Busy() bool { return c.cur != nil || c.curRead != nil }

// Submit sends one operation. Clients are sequential (one outstanding
// operation), matching the paper's measurement clients (§IX).
func (c *Client) Submit(op []byte) error {
	if c.cur != nil {
		return fmt.Errorf("core: client %d already has an outstanding request", c.id)
	}
	c.ts++
	p := &pendingOp{
		op:      op,
		ts:      c.ts,
		started: c.env.Now(),
		replies: make(map[int]string),
		vals:    make(map[string][]byte),
		seqs:    make(map[string]uint64),
		views:   make(map[int]uint64),
	}
	c.cur = p
	req := RequestMsg{Req: Request{Client: c.id, Timestamp: p.ts, Op: op}}
	c.env.Send(c.cfg.Primary(c.view), req)
	c.armRetry(p)
	return nil
}

func (c *Client) armRetry(p *pendingOp) {
	if c.RequestTimeout <= 0 {
		return
	}
	p.retry.arm(c.env, c.RequestTimeout, func() {
		if c.cur != p {
			return
		}
		// §V-A: resend to all replicas and request the f+1 path.
		p.direct = true
		p.retried = true
		c.Retries++
		req := RequestMsg{Req: Request{Client: c.id, Timestamp: p.ts, Op: p.op, Direct: true}}
		for i := 1; i <= c.cfg.N(); i++ {
			c.env.Send(i, req)
		}
		c.armRetry(p)
	})
}

// Deliver feeds a message from the network.
func (c *Client) Deliver(from int, msg any) {
	switch m := msg.(type) {
	case ExecuteAckMsg:
		c.onExecuteAck(from, m)
	case ReplyMsg:
		c.onReply(from, m)
	case BusyMsg:
		c.onBusy(from, m)
	case ReadReplyMsg:
		c.onReadReply(from, m)
	}
}

// onBusy backs off after a §V-C admission reject: the request was
// dropped, not lost in transit, so re-broadcasting immediately would
// only add load. Resubmit to the primary alone once the advertised
// backlog has drained, then fall back to the normal retry ladder. The
// hint is clamped to the request timeout so a lying primary cannot
// stall the client beyond one ordinary retry period.
func (c *Client) onBusy(_ int, m BusyMsg) {
	p := c.cur
	if p == nil || m.Client != c.id || m.Timestamp != p.ts {
		return
	}
	c.Backpressure++
	wait := m.RetryAfter
	if c.RequestTimeout > 0 && (wait <= 0 || wait > c.RequestTimeout) {
		wait = c.RequestTimeout
	}
	if wait <= 0 {
		return // retries disabled; the op stays parked (test configs)
	}
	p.retry.stop()
	p.retry.arm(c.env, wait, func() {
		if c.cur != p {
			return
		}
		req := RequestMsg{Req: Request{Client: c.id, Timestamp: p.ts, Op: p.op, Direct: p.direct}}
		c.env.Send(c.cfg.Primary(c.view), req)
		c.armRetry(p)
	})
}

func (c *Client) onExecuteAck(_ int, m ExecuteAckMsg) {
	p := c.cur
	if p == nil || m.Client != c.id || m.Timestamp != p.ts {
		return
	}
	// Single-message acceptance (§V-A): check π(d) then the proof.
	if c.suite.Pi.Verify(stateSigDigest(m.Seq, m.Digest), m.Pi) != nil {
		return
	}
	if c.verify != nil {
		if err := c.verify(m.Digest, p.op, m.Val, m.Seq, m.L, m.Proof); err != nil {
			return
		}
	}
	c.complete(p, m.Val, m.Seq, true, m.View)
}

func (c *Client) onReply(from int, m ReplyMsg) {
	p := c.cur
	if p == nil || m.Client != c.id || m.Timestamp != p.ts {
		return
	}
	if from < 1 || from > c.cfg.N() {
		return
	}
	fp := fmt.Sprintf("%d/%x", m.Seq, m.Val)
	p.replies[from] = fp
	p.vals[fp] = m.Val
	p.seqs[fp] = m.Seq
	p.views[from] = m.View
	count := 0
	for _, f := range p.replies {
		if f == fp {
			count++
		}
	}
	if count >= c.cfg.QuorumExec() { // f+1 matching replies
		// View hint: the LOWEST view claimed by the f+1 matching
		// repliers. Any f+1 set contains an honest replica, so the
		// minimum is bounded above by a view some honest replica really
		// reached — a Byzantine member can drag the hint down (costing at
		// most a forwarding hop: backups forward client requests to their
		// primary) but cannot inflate it.
		viewHint := uint64(0)
		first := true
		for id, f := range p.replies {
			if f != fp {
				continue
			}
			if first || p.views[id] < viewHint {
				viewHint = p.views[id]
				first = false
			}
		}
		c.complete(p, p.vals[fp], p.seqs[fp], false, viewHint)
	}
}

// complete finishes the outstanding operation and adopts the view hint so
// the next Submit addresses the current primary directly (cutting the
// post-view-change retry latency the ROADMAP flagged). Hints are
// unauthenticated routing advice, never safety-relevant, and are treated
// with suspicion: forward adoption is capped to one primary rotation per
// operation (an inflated hint from a lying replica cannot point the
// client at an arbitrary view), and an operation that needed the §V-A
// retry broadcast — evidence the stored view misroutes — may additionally
// move the stored view DOWN to the completing hint instead of keeping a
// poisoned maximum (upward adoption stays capped even then). Worst case,
// ≤ f lying replicas degrade one client's latency; the retry broadcast
// bounds the damage per operation.
func (c *Client) complete(p *pendingOp, val []byte, seq uint64, fast bool, viewHint uint64) {
	p.retry.stop()
	// Upward drift is ALWAYS capped to one primary rotation — including
	// after a retry, where the completing evidence may be a single
	// unauthenticated execute-ack; a retry additionally allows the view
	// to move down (the stored value demonstrably misroutes).
	if viewHint <= c.view+uint64(c.cfg.N()) && (p.retried || viewHint > c.view) {
		c.view = viewHint
	}
	c.cur = nil
	c.Completed++
	// Freshness floor (read.go): every completed operation raises the
	// floor certified reads must meet — read-your-writes without leases.
	if seq > c.seqFloor {
		c.seqFloor = seq
	}
	// A read that exhausted the certified rotation completes here through
	// the ordering path: surface it as a ReadResult, not a write result.
	if fb := c.readFallback; fb != nil {
		c.readFallback = nil
		if c.onReadResult != nil {
			c.onReadResult(ReadResult{
				Op:        fb.op,
				Key:       fb.key,
				Val:       append([]byte(nil), val...),
				Found:     len(val) > 0,
				Latency:   c.env.Now() - fb.started,
				Failovers: fb.failovers,
				Ordered:   true,
			})
		}
		return
	}
	if c.onResult != nil {
		c.onResult(Result{
			Op:        p.op,
			Val:       append([]byte(nil), val...),
			Seq:       seq,
			Timestamp: p.ts,
			Latency:   c.env.Now() - p.started,
			FastAck:   fast,
			Retried:   p.retried,
		})
	}
}
