package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/transport"
)

// Tracing from outside: every decorator in this file wraps a public seam
// (transport.Node, core.Env, core.Application, threshsig.Scheme/Signer,
// core.CryptoSink, core.ProofVerifier) and records one span per call.
// Nothing inside internal/ knows it is being traced.

// span is one recorded interval at a layer boundary. Spans of one decision
// block share Seq, the request identifier visible at every seam.
type span struct {
	ID     uint64 // unique within the trace: node index in the high bits
	Parent uint64 // span that caused this one; 0 = none
	Name   string
	Kind   string // message type for deliver/send spans
	Node   int    // replica id, or client id (≥ core.ClientBase)
	Seq    uint64
	Start  time.Duration // since the trace epoch
	End    time.Duration
}

// layerStat aggregates every span of one name on one node, kept spans or not.
type layerStat struct {
	count uint64
	units uint64        // work items the spans covered (shares, ops, chunks)
	total time.Duration // span durations
	self  time.Duration // durations minus the part child spans cover
}

// maxKeptSpans bounds the spans one node keeps for the trace file; the
// aggregates cover every span of the window regardless.
const maxKeptSpans = 20000

// openSpan is a synchronous span in progress on the node's event loop.
type openSpan struct {
	id, seq uint64
	name    string
	kind    string
	start   time.Time
	child   time.Duration
}

// jobSpan is an asynchronous span: a CryptoSink call from hand-over to
// completion. Its children run on pool workers and find it by digest.
type jobSpan struct {
	id, parent, seq uint64
	name            string
	keys            []string
	start           time.Time
	busy            time.Duration // scheme time spent on this job's shares
	units           uint64
}

// tracer records the spans of one node. The event loop's synchronous spans
// nest on stack; pool workers only ever touch jobs and the aggregates.
type tracer struct {
	node   int
	index  uint64
	epoch  time.Time
	pooled bool // a CryptoSink is installed: share work runs off-loop

	mu     sync.Mutex
	nextID uint64
	stack  []openSpan
	jobs   map[string]*jobSpan
	stats  map[string]*layerStat
	kept   []span
}

func newTracer(node int, index int, epoch time.Time, pooled bool) *tracer {
	return &tracer{
		node:   node,
		index:  uint64(index+1) << 40,
		epoch:  epoch,
		pooled: pooled,
		jobs:   make(map[string]*jobSpan),
		stats:  make(map[string]*layerStat),
	}
}

// reset opens a recording window: aggregates and kept spans start empty,
// spans already in progress stay paired.
func (t *tracer) reset() {
	t.mu.Lock()
	t.stats = make(map[string]*layerStat)
	t.kept = nil
	t.mu.Unlock()
}

// aggregates copies the per-name aggregates of the window.
func (t *tracer) aggregates() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]layerStat, len(t.stats))
	for name, st := range t.stats {
		out[name] = *st
	}
	return out
}

// spans returns the spans kept for the trace file.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kept
}

// record files a finished span. Callers hold t.mu.
func (t *tracer) record(sp span, self time.Duration, units uint64) {
	st := t.stats[sp.Name]
	if st == nil {
		st = &layerStat{}
		t.stats[sp.Name] = st
	}
	st.count++
	st.units += units
	st.total += sp.End - sp.Start
	st.self += self
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, sp)
	}
}

// begin opens a synchronous span on the event loop. seq 0 inherits the
// enclosing span's sequence.
func (t *tracer) begin(name, kind string, seq uint64) {
	now := time.Now()
	t.mu.Lock()
	if seq == 0 && len(t.stack) > 0 {
		seq = t.stack[len(t.stack)-1].seq
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.index | t.nextID, seq: seq, name: name, kind: kind, start: now})
	t.mu.Unlock()
}

// end closes the innermost synchronous span.
func (t *tracer) end(units uint64) {
	now := time.Now()
	t.mu.Lock()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now.Sub(o.start)
	var parent uint64
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
		parent = t.stack[n-1].id
	}
	t.record(span{ID: o.id, Parent: parent, Name: o.name, Kind: o.kind, Node: t.node, Seq: o.seq,
		Start: o.start.Sub(t.epoch), End: now.Sub(t.epoch)}, dur-o.child, units)
	t.mu.Unlock()
}

// beginJob opens an asynchronous span under the current event-loop span and
// registers it under keys so off-loop scheme calls can name it as parent.
func (t *tracer) beginJob(name string, keys []string, units uint64) *jobSpan {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	j := &jobSpan{id: t.index | t.nextID, name: name, keys: keys, start: now, units: units}
	if n := len(t.stack); n > 0 {
		j.parent, j.seq = t.stack[n-1].id, t.stack[n-1].seq
	}
	for _, k := range keys {
		t.jobs[k] = j
	}
	return j
}

// endJob closes an asynchronous span. Its self time is the time the job
// spent waiting: hand-over to completion minus the scheme work done for it.
func (t *tracer) endJob(j *jobSpan) {
	now := time.Now()
	t.mu.Lock()
	for _, k := range j.keys {
		if t.jobs[k] == j {
			delete(t.jobs, k)
		}
	}
	t.record(span{ID: j.id, Parent: j.parent, Name: j.name, Node: t.node, Seq: j.seq,
		Start: j.start.Sub(t.epoch), End: now.Sub(t.epoch)}, now.Sub(j.start)-j.busy, j.units)
	t.mu.Unlock()
}

// offLoop times fn as a child of the job registered under key. It never
// touches the event-loop stack, so pool workers may call it.
func (t *tracer) offLoop(name, key string, units uint64, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	dur := end.Sub(start)
	t.mu.Lock()
	t.nextID++
	sp := span{ID: t.index | t.nextID, Name: name, Node: t.node, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	if j := t.jobs[key]; j != nil {
		j.busy += dur
		sp.Parent, sp.Seq = j.id, j.seq
	}
	t.record(sp, dur, units)
	t.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Decorators.

// msgInfo names a message and extracts its block sequence.
func msgInfo(msg any) (kind string, seq uint64) {
	switch m := msg.(type) {
	case core.RequestMsg:
		return "Request", 0
	case core.PrePrepareMsg:
		return "PrePrepare", m.Seq
	case core.SignShareMsg:
		return "SignShare", m.Seq
	case core.FullCommitProofMsg:
		return "FullCommitProof", m.Seq
	case core.PrepareMsg:
		return "Prepare", m.Seq
	case core.CommitMsg:
		return "Commit", m.Seq
	case core.FullCommitProofSlowMsg:
		return "FullCommitProofSlow", m.Seq
	case core.SignStateMsg:
		return "SignState", m.Seq
	case core.FullExecuteProofMsg:
		return "FullExecuteProof", m.Seq
	case core.ExecuteAckMsg:
		return "ExecuteAck", m.Seq
	case core.ReplyMsg:
		return "Reply", m.Seq
	case core.CheckpointShareMsg:
		return "CheckpointShare", m.Seq
	case core.CheckpointCertMsg:
		return "CheckpointCert", m.Seq
	case core.ReadMsg:
		return "Read", 0
	case core.ReadReplyMsg:
		return "ReadReply", m.Seq
	default:
		return "other", 0
	}
}

// tracedNode wraps the transport.Node handed to Shell.Start: one span per
// delivered message. Timer callbacks bypass it (the shell runs them
// directly), so spans they cause have no parent.
type tracedNode struct {
	inner transport.Node
	t     *tracer
	name  string
}

func (n tracedNode) Deliver(from int, msg any) {
	kind, seq := msgInfo(msg)
	name := n.name
	if kind == "ReadReply" {
		name = "client.read_reply"
	}
	n.t.begin(name, kind, seq)
	n.inner.Deliver(from, msg)
	n.t.end(1)
}

// tracedEnv wraps the core.Env handed to a replica or client: one span per
// Send, which on transport.Shell is the gob encode plus the socket write.
type tracedEnv struct {
	core.Env
	t *tracer
}

func (e tracedEnv) Send(to int, msg core.Message) {
	kind, seq := msgInfo(msg)
	e.t.begin("transport.send", kind, seq)
	e.Env.Send(to, msg)
	e.t.end(1)
}

// appInner is what the replicas' application offers beyond
// core.Application; tracedApp must forward all of it, or the replica
// silently falls back to whole-snapshot capture and refuses certified reads.
type appInner interface {
	core.Application
	core.ChunkedSnapshotter
	core.KeyReader
	core.TwoPhaser
}

// tracedApp wraps the core.Application handed to a replica.
type tracedApp struct {
	appInner
	t *tracer
}

func (a tracedApp) ExecuteBlock(seq uint64, ops [][]byte) [][]byte {
	a.t.begin("apps.execute", "", seq)
	out := a.appInner.ExecuteBlock(seq, ops)
	a.t.end(uint64(len(ops)))
	return out
}

func (a tracedApp) Digest() []byte {
	a.t.begin("apps.digest", "", 0)
	d := a.appInner.Digest()
	a.t.end(1)
	return d
}

func (a tracedApp) ProveOperation(seq uint64, l int) ([]byte, error) {
	a.t.begin("apps.prove", "", seq)
	p, err := a.appInner.ProveOperation(seq, l)
	a.t.end(1)
	return p, err
}

func (a tracedApp) SnapshotChunks() ([][]byte, bool, error) {
	a.t.begin("apps.snapshot", "", 0)
	chunks, ok, err := a.appInner.SnapshotChunks()
	a.t.end(uint64(len(chunks)))
	return chunks, ok, err
}

// jobKey names the in-flight sink job a scheme call belongs to.
func jobKey(op byte, kind core.ShareKind, digest []byte) string {
	return string([]byte{op, byte(kind)}) + string(digest)
}

// tracedScheme wraps one threshsig.Scheme of a node's CryptoSuite.
type tracedScheme struct {
	threshsig.Scheme
	kind core.ShareKind
	t    *tracer
}

// timed runs fn as a span: under the sink job it belongs to when share work
// runs off-loop, on the event-loop stack otherwise.
func (s *tracedScheme) timed(name string, op byte, digest []byte, units uint64, fn func()) {
	if s.t.pooled && op != 0 {
		s.t.offLoop(name, jobKey(op, s.kind, digest), units, fn)
		return
	}
	s.t.begin(name, "", 0)
	fn()
	s.t.end(units)
}

func (s *tracedScheme) VerifyShare(digest []byte, share threshsig.Share) (err error) {
	s.timed("crypto.verify_share", 'v', digest, 1, func() { err = s.Scheme.VerifyShare(digest, share) })
	return err
}

func (s *tracedScheme) CombineVerified(digest []byte, shares []threshsig.Share) (sig threshsig.Signature, err error) {
	s.timed("crypto.combine", 'c', digest, uint64(len(shares)), func() { sig, err = s.Scheme.CombineVerified(digest, shares) })
	return sig, err
}

func (s *tracedScheme) Combine(digest []byte, shares []threshsig.Share) (sig threshsig.Signature, err error) {
	s.timed("crypto.combine", 'c', digest, uint64(len(shares)), func() { sig, err = s.Scheme.Combine(digest, shares) })
	return sig, err
}

func (s *tracedScheme) Verify(digest []byte, sig threshsig.Signature) (err error) {
	s.timed("crypto.verify_sig", 0, digest, 1, func() { err = s.Scheme.Verify(digest, sig) })
	return err
}

// shareBatcher is the optional RLC batch check core.VerifyJobShares looks
// for by type assertion.
type shareBatcher interface {
	BatchVerifyShares(digest []byte, shares []threshsig.Share) error
}

// tracedBatchScheme is tracedScheme over a scheme that batch-verifies; only
// it may expose BatchVerifyShares, or core would call it on schemes that
// cannot.
type tracedBatchScheme struct {
	*tracedScheme
	batch shareBatcher
}

func (s tracedBatchScheme) BatchVerifyShares(digest []byte, shares []threshsig.Share) (err error) {
	s.timed("crypto.batch_verify", 'v', digest, uint64(len(shares)), func() { err = s.batch.BatchVerifyShares(digest, shares) })
	return err
}

func traceScheme(inner threshsig.Scheme, kind core.ShareKind, t *tracer) threshsig.Scheme {
	ts := &tracedScheme{Scheme: inner, kind: kind, t: t}
	if b, ok := inner.(shareBatcher); ok {
		return tracedBatchScheme{tracedScheme: ts, batch: b}
	}
	return ts
}

func traceSuite(s core.CryptoSuite, t *tracer) core.CryptoSuite {
	return core.CryptoSuite{
		Sigma: traceScheme(s.Sigma, core.ShareSigma, t),
		Tau:   traceScheme(s.Tau, core.ShareTau, t),
		Pi:    traceScheme(s.Pi, core.SharePi, t),
	}
}

// tracedSigner wraps one threshsig.Signer of a replica's keys.
type tracedSigner struct {
	threshsig.Signer
	t *tracer
}

func (s tracedSigner) Sign(digest []byte) (threshsig.Share, error) {
	s.t.begin("crypto.sign", "", 0)
	sh, err := s.Signer.Sign(digest)
	s.t.end(1)
	return sh, err
}

func traceKeys(k core.ReplicaKeys, t *tracer) core.ReplicaKeys {
	return core.ReplicaKeys{
		Sigma: tracedSigner{k.Sigma, t},
		Tau:   tracedSigner{k.Tau, t},
		Pi:    tracedSigner{k.Pi, t},
	}
}

// tracedSink wraps the core.CryptoSink installed on a replica. The job span
// runs from hand-over to completion; the submit span is the part of it
// spent on the event loop, which is everything when the pool is saturated
// and runs the job inline.
type tracedSink struct {
	inner core.CryptoSink
	t     *tracer
}

func (s tracedSink) VerifyShares(jobs []core.VerifyJob, done func(ok [][]threshsig.Share)) {
	keys := make([]string, len(jobs))
	var shares uint64
	for i, j := range jobs {
		keys[i] = jobKey('v', j.Kind, j.Digest)
		shares += uint64(len(j.Shares))
	}
	job := s.t.beginJob("cryptopool.verify_job", keys, shares)
	s.t.begin("cryptopool.submit", "", 0)
	s.inner.VerifyShares(jobs, func(ok [][]threshsig.Share) {
		s.t.endJob(job)
		done(ok)
	})
	s.t.end(1)
}

func (s tracedSink) Combine(kind core.ShareKind, digest []byte, shares []threshsig.Share, done func(sig threshsig.Signature, err error)) {
	job := s.t.beginJob("cryptopool.combine_job", []string{jobKey('c', kind, digest)}, uint64(len(shares)))
	s.t.begin("cryptopool.submit", "", 0)
	s.inner.Combine(kind, digest, shares, func(sig threshsig.Signature, err error) {
		s.t.endJob(job)
		done(sig, err)
	})
	s.t.end(1)
}

// traceVerifier wraps the client's core.ProofVerifier.
func traceVerifier(inner core.ProofVerifier, t *tracer) core.ProofVerifier {
	return func(digest []byte, op, val []byte, seq uint64, l int, proof []byte) error {
		t.begin("client.verify_proof", "", seq)
		err := inner(digest, op, val, seq, l, proof)
		t.end(1)
		return err
	}
}

// writeTrace writes the kept spans of every node as one JSON document:
// {"workload":…, "spans":[{id,parent,name,kind,node,seq,start_ns,end_ns},…]}.
func writeTrace(path, workload string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"spans\":[", workload)
	first := true
	for _, t := range tracers {
		for _, sp := range t.spans() {
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"name\":%q,\"kind\":%q,\"node\":%d,\"seq\":%d,\"start_ns\":%d,\"end_ns\":%d}",
				sp.ID, sp.Parent, sp.Name, sp.Kind, sp.Node, sp.Seq, int64(sp.Start), int64(sp.End))
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
