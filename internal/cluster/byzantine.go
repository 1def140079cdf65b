package cluster

import (
	"fmt"
	"math/rand"

	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/merkle"
	"sbft/internal/pbft"
	"sbft/internal/sim"
)

// This file implements the Byzantine side of the fault-schedule API: the
// FaultByz* kinds install sim.Corrupter implementations aware of the wire
// message types of both engines. The corrupted replica's protocol engine
// stays honest — only its outbound traffic lies — which models a
// compromised process whose network boundary an adversary controls, keeps
// every run deterministic, and means FaultByzRestore cleanly returns the
// node to honest behavior.

// InstallByzantine installs (or, for FaultByzRestore, removes) a
// corrupter of the given Byzantine kind on a replica's outbound boundary
// and marks the replica Byzantine for the safety audit.
func (cl *Cluster) InstallByzantine(node int, kind FaultKind) error {
	if node < 1 || node > cl.N {
		return fmt.Errorf("cluster: replica id %d out of range [1,%d]", node, cl.N)
	}
	if kind == FaultByzRestore {
		cl.Net.SetCorrupter(sim.NodeID(node), nil)
		cl.Net.SetObserver(sim.NodeID(node), nil)
		return nil
	}
	rng := rand.New(rand.NewSource(cl.Opts.Seed*0x5deece66d + int64(node)*0x9e3779b9))
	var c sim.Corrupter
	switch kind {
	case FaultByzEquivocate:
		c = &equivocator{node: node}
	case FaultByzStaleView:
		c = &staleViewSpammer{node: node, pbft: cl.Opts.Protocol == ProtoPBFT, rng: rng}
	case FaultByzConflictCkpt:
		var keys core.ReplicaKeys
		if cl.Opts.Protocol != ProtoPBFT {
			keys = cl.keys[node-1]
		}
		c = &conflictCkpt{node: node, keys: keys, rng: rng}
	case FaultByzSilent:
		c = silencer{}
	case FaultByzSnapshot:
		c = snapshotTamperer{}
	case FaultByzStaleMeta:
		c = &staleMetaServer{}
	case FaultByzForgedProof:
		c = &forgedProofServer{rng: rng}
	default:
		return fmt.Errorf("cluster: %v is not a Byzantine fault kind", kind)
	}
	cl.MarkByzantine(node)
	cl.Net.SetCorrupter(sim.NodeID(node), c)
	return nil
}

// equivocateReqs builds a conflicting-but-authentic variant of a request
// block. Clients sign their operations (§V-A), so a Byzantine primary
// cannot fabricate payloads — the chaos sweep caught an earlier version
// of this corrupter doing exactly that and "breaking" safety with a power
// the paper's adversary does not have. What a Byzantine primary CAN do is
// batch authentic requests differently per recipient: here, reverse the
// order (different block hash, same requests), or propose an empty block
// when the batch is too small to reorder.
func equivocateReqs(reqs []core.Request) []core.Request {
	if len(reqs) <= 1 {
		return []core.Request{}
	}
	out := make([]core.Request, len(reqs))
	for i, r := range reqs {
		out[len(reqs)-1-i] = r
	}
	return out
}

// equivocator rewrites outbound pre-prepares per recipient: even-id
// recipients see the honest block, odd-id recipients a conflicting one.
// All other traffic passes through (the node behaves honestly as a
// backup, which is what makes an equivocating primary hard to detect).
type equivocator struct {
	node int
}

// Corrupt implements sim.Corrupter.
func (e *equivocator) Corrupt(to sim.NodeID, msg any) []sim.Injection {
	switch m := msg.(type) {
	case core.PrePrepareMsg:
		if int(to)%2 == 1 {
			em := core.PrePrepareMsg{Seq: m.Seq, View: m.View, Reqs: equivocateReqs(m.Reqs)}
			return []sim.Injection{{To: to, Msg: em}}
		}
	case pbft.PrePrepareMsg:
		if int(to)%2 == 1 {
			em := pbft.PrePrepareMsg{Seq: m.Seq, View: m.View, Reqs: equivocateReqs(m.Reqs)}
			return []sim.Injection{{To: to, Msg: em}}
		}
	}
	return sim.PassThrough(to, msg)
}

// outboundView extracts the view a protocol message speaks for, tracking
// the spammer's guess of the current view without touching engine state.
func outboundView(msg any) (uint64, bool) {
	switch m := msg.(type) {
	case core.PrePrepareMsg:
		return m.View, true
	case core.SignShareMsg:
		return m.View, true
	case core.PrepareMsg:
		return m.View, true
	case core.CommitMsg:
		return m.View, true
	case core.ViewChangeMsg:
		return m.NewView, true
	case pbft.PrePrepareMsg:
		return m.View, true
	case pbft.PrepareMsg:
		return m.View, true
	case pbft.CommitMsg:
		return m.View, true
	case pbft.ViewChangeMsg:
		return m.NewView, true
	}
	return 0, false
}

// staleViewSpammer passes its honest traffic through and, with some
// probability per send, additionally injects a view-change message for a
// stale or near-future view carrying junk certificate evidence. Honest
// replicas must ignore the stale ones and reject the junk evidence during
// safe-value computation (§V-G); at most the spam wastes CPU and burns
// one view-change quorum slot.
type staleViewSpammer struct {
	node int
	pbft bool
	rng  *rand.Rand
	view uint64 // highest view seen in own outbound traffic
}

// Corrupt implements sim.Corrupter.
func (s *staleViewSpammer) Corrupt(to sim.NodeID, msg any) []sim.Injection {
	if v, ok := outboundView(msg); ok && v > s.view {
		s.view = v
	}
	out := sim.PassThrough(to, msg)
	if s.rng.Float64() >= 0.3 {
		return out
	}
	// Mostly stale targets (≤ current view), occasionally one view ahead.
	target := s.view
	if s.rng.Float64() < 0.25 {
		target = s.view + 1
	} else if target > 0 {
		target -= uint64(s.rng.Intn(int(target + 1)))
	}
	junk := make([]byte, 16)
	s.rng.Read(junk)
	junkReqs := []core.Request{{Client: core.ClientBase, Timestamp: 1, Op: append([]byte("byz-spam-"), junk[:4]...)}}
	var spam any
	if s.pbft {
		spam = pbft.ViewChangeMsg{
			NewView: target, Replica: s.node, LastStable: 0,
			Prepared: []pbft.PreparedProof{{Seq: 1 + uint64(s.rng.Intn(8)), View: target, Reqs: junkReqs}},
		}
	} else {
		spam = core.ViewChangeMsg{
			NewView: target, Replica: s.node, LastStable: 0,
			Slots: []core.SlotInfo{{
				Seq:        1 + uint64(s.rng.Intn(8)),
				HasPrepare: true, PrepareView: target,
				PrepareTau:  threshsig.Signature{Data: junk},
				PrepareReqs: junkReqs,
			}},
		}
	}
	return append(out, sim.Injection{To: to, Msg: spam})
}

// conflictCkpt rewrites outbound checkpoint and execution-state digests
// to per-recipient garbage. For the SBFT engine the garbage digests are
// re-signed with the node's own π key share, so they pass share
// verification and only the f+1 digest quorum protects honest replicas
// (exactly the attack surface of a Byzantine snapshot/checkpoint server).
type conflictCkpt struct {
	node int
	keys core.ReplicaKeys
	rng  *rand.Rand
}

// garbage derives a per-recipient conflicting digest.
func (c *conflictCkpt) garbage(seq uint64, to sim.NodeID) []byte {
	d := make([]byte, 32)
	c.rng.Read(d)
	d[0] = byte(to) // recipients provably disagree
	d[1] = byte(seq)
	return d
}

// Corrupt implements sim.Corrupter.
func (c *conflictCkpt) Corrupt(to sim.NodeID, msg any) []sim.Injection {
	switch m := msg.(type) {
	case core.CheckpointShareMsg:
		evil := c.garbage(m.Seq, to)
		share, err := c.keys.Pi.Sign(core.CheckpointSigDigest(m.Seq, evil))
		if err != nil {
			return nil
		}
		em := core.CheckpointShareMsg{Seq: m.Seq, Replica: m.Replica, Digest: evil, PiSig: share}
		return []sim.Injection{{To: to, Msg: em}}
	case core.SignStateMsg:
		evil := c.garbage(m.Seq, to)
		share, err := c.keys.Pi.Sign(core.StateSigDigest(m.Seq, evil))
		if err != nil {
			return nil
		}
		em := core.SignStateMsg{Seq: m.Seq, Replica: m.Replica, Digest: evil, PiSig: share}
		return []sim.Injection{{To: to, Msg: em}}
	case pbft.CheckpointMsg:
		em := pbft.CheckpointMsg{Seq: m.Seq, Digest: c.garbage(m.Seq, to), Replica: m.Replica}
		return []sim.Injection{{To: to, Msg: em}}
	}
	return sim.PassThrough(to, msg)
}

// silencer suppresses every outbound message: a silent-but-alive replica
// (it still receives, executes, and advances its local state).
type silencer struct{}

// Corrupt implements sim.Corrupter.
func (silencer) Corrupt(sim.NodeID, any) []sim.Injection { return nil }

// tamperChunk is the byte-level tampering a Byzantine snapshot server
// applies to state-transfer chunks: deterministic bit flips across the
// chunk (hitting serialized application state and, in the tail chunks,
// the last-reply table — the dedup state the old uncertified envelope let
// an adversary perturb silently).
func tamperChunk(data []byte) []byte {
	out := append([]byte(nil), data...)
	for i := 0; i < len(out); i += 64 {
		out[i] ^= 0x80
	}
	if n := len(out); n > 0 {
		out[n-1] ^= 0x01
	}
	return out
}

// snapshotTamperer rewrites outbound snapshot chunks. Metas — the
// certified root and the leaf list it commits to — pass through untouched:
// a Byzantine server cannot forge the π certificate anyway, and an
// honest-looking meta followed by tampered chunks is exactly the attack
// the per-chunk leaf check exists to catch. All non-snapshot traffic
// passes through: the replica participates honestly in consensus while
// lying only on the state-transfer path.
type snapshotTamperer struct{}

// Corrupt implements sim.Corrupter.
func (snapshotTamperer) Corrupt(to sim.NodeID, msg any) []sim.Injection {
	if m, ok := msg.(core.SnapshotChunkMsg); ok {
		em := core.SnapshotChunkMsg{Seq: m.Seq, Index: m.Index, Data: tamperChunk(m.Data)}
		return []sim.Injection{{To: to, Msg: em}}
	}
	return sim.PassThrough(to, msg)
}

// staleMetaServer caches the OLDEST snapshot meta its replica ever served
// and replays it in place of every later meta answer (colluding members
// share one, so the meta is the oldest any of them served). The cached meta is
// authentic — π-certified by the honest quorum at the time — just stale:
// the exact adversary of the first-accepted-meta race. All other traffic,
// snapshot chunks included, passes through untouched (the stale
// snapshot's chunks are eventually garbage-collected by the honest
// engine, at which point chunk requests for it are answered with a fresh
// meta re-offer — which this corrupter again rewrites to the stale one,
// so the fetcher can only learn the real frontier from OTHER servers).
type staleMetaServer struct {
	meta *core.SnapshotMetaMsg
}

// Corrupt implements sim.Corrupter.
func (s *staleMetaServer) Corrupt(to sim.NodeID, msg any) []sim.Injection {
	if m, ok := msg.(core.SnapshotMetaMsg); ok {
		if s.meta == nil || m.Seq < s.meta.Seq {
			mm := m
			s.meta = &mm
		}
		em := *s.meta
		return []sim.Injection{{To: to, Msg: em}}
	}
	return sim.PassThrough(to, msg)
}

// forgedProofServer attacks the certified read path: every outbound
// ReadOK reply is rewritten into one of four forgery variants before it
// leaves the node — flipped chunk bytes under the honest proof, a
// corrupted proof step, an inflated certified sequence (stale-read
// laundering: honest payload relabeled as fresher than it is), or a
// replay of a cached older valid reply re-addressed to the current
// nonce. Refusals and all non-read traffic pass through: the replica
// stays honest in consensus and lies only to readers. Every variant
// must be rejected CLIENT-SIDE by VerifyReadReply — a forged reply that
// a client accepts is a safety violation the read auditor flags, not a
// liveness blip the failover path absorbs.
type forgedProofServer struct {
	rng    *rand.Rand
	cached *core.ReadReplyMsg // oldest ReadOK reply seen, for replays
}

// Corrupt implements sim.Corrupter.
func (f *forgedProofServer) Corrupt(to sim.NodeID, msg any) []sim.Injection {
	m, ok := msg.(core.ReadReplyMsg)
	if !ok || m.Status != core.ReadOK {
		return sim.PassThrough(to, msg)
	}
	if f.cached == nil || m.Seq < f.cached.Seq {
		mm := m
		f.cached = &mm
	}
	em := m
	em.Chunk = append([]byte(nil), m.Chunk...)
	em.ChunkProof.Steps = append([]merkle.ProofStep(nil), m.ChunkProof.Steps...)
	switch f.rng.Intn(4) {
	case 0: // tamper the value bytes under the honest proof
		em.Chunk = tamperChunk(em.Chunk)
	case 1: // corrupt one inclusion-proof step
		if len(em.ChunkProof.Steps) > 0 {
			i := f.rng.Intn(len(em.ChunkProof.Steps))
			em.ChunkProof.Steps[i].Hash[0] ^= 0x40
		} else {
			em.ChunkProof.Index++
		}
	case 2: // inflate the certified sequence past the real frontier
		em.Seq += uint64(1 + f.rng.Intn(64))
	case 3: // replay the oldest cached valid reply under the live nonce
		em = *f.cached
		em.Client, em.Nonce = m.Client, m.Nonce
	}
	return []sim.Injection{{To: to, Msg: em}}
}

// ---------------------------------------------------------------------------
// Over-budget collusion (auditor canary).

// collusion is the shared state of a colluding pair: which block hash the
// equivocating primary fed each recipient for each sequence.
type collusion struct {
	variants map[uint64]map[sim.NodeID]core.Digest
}

// InstallColludingEquivocators arms f+1 colluding Byzantine replicas on a
// PBFT cluster: `primary` sends per-recipient conflicting pre-prepares
// (and votes for every variant it dealt), and `accomplice` rewrites its
// own prepare/commit hashes to match whatever each recipient was dealt.
// With both inside one quorum this exceeds the f budget and makes honest
// replicas commit conflicting blocks — the divergence the safety auditor
// must detect (the canary proving the auditor is not vacuous). PBFT only:
// the baseline's votes are channel-authenticated hashes a Byzantine
// replica can fabricate freely, whereas the SBFT engine's threshold
// signatures cannot be forged by the corrupter.
func (cl *Cluster) InstallColludingEquivocators(primary, accomplice int) error {
	if cl.Opts.Protocol != ProtoPBFT {
		return fmt.Errorf("cluster: colluding equivocators require the PBFT baseline")
	}
	for _, id := range []int{primary, accomplice} {
		if id < 1 || id > cl.N {
			return fmt.Errorf("cluster: replica id %d out of range [1,%d]", id, cl.N)
		}
		cl.MarkByzantine(id)
	}
	shared := &collusion{variants: make(map[uint64]map[sim.NodeID]core.Digest)}
	cl.Net.SetCorrupter(sim.NodeID(primary),
		&colludingPrimary{node: primary, accomplice: accomplice, shared: shared})
	cl.Net.SetCorrupter(sim.NodeID(accomplice), &colludingVoter{shared: shared})
	return nil
}

// colludingPrimary splits honest recipients into halves fed conflicting
// pre-prepares, records the per-recipient hash for the accomplice, and
// injects its own matching prepare and commit votes for each variant.
type colludingPrimary struct {
	node       int
	accomplice int
	shared     *collusion
}

// Corrupt implements sim.Corrupter.
func (p *colludingPrimary) Corrupt(to sim.NodeID, msg any) []sim.Injection {
	m, ok := msg.(pbft.PrePrepareMsg)
	if !ok {
		return sim.PassThrough(to, msg)
	}
	reqs := m.Reqs
	if int(to) != p.accomplice && int(to)%2 == 0 {
		reqs = equivocateReqs(m.Reqs)
	}
	pp := pbft.PrePrepareMsg{Seq: m.Seq, View: m.View, Reqs: reqs}
	h := core.BlockHash(m.Seq, m.View, reqs)
	if p.shared.variants[m.Seq] == nil {
		p.shared.variants[m.Seq] = make(map[sim.NodeID]core.Digest)
	}
	p.shared.variants[m.Seq][to] = h
	prep := pbft.PrepareMsg{Seq: m.Seq, View: m.View, Hash: h, Replica: p.node}
	com := pbft.CommitMsg{Seq: m.Seq, View: m.View, Hash: h, Replica: p.node}
	return []sim.Injection{
		{To: to, Msg: pp},
		{To: to, Msg: prep},
		{To: to, Msg: com},
	}
}

// colludingVoter rewrites the accomplice's own prepare/commit hashes to
// match whichever variant the primary dealt each recipient.
type colludingVoter struct {
	shared *collusion
}

// Corrupt implements sim.Corrupter.
func (v *colludingVoter) Corrupt(to sim.NodeID, msg any) []sim.Injection {
	switch m := msg.(type) {
	case pbft.PrepareMsg:
		if h, ok := v.shared.variants[m.Seq][to]; ok {
			em := pbft.PrepareMsg{Seq: m.Seq, View: m.View, Hash: h, Replica: m.Replica}
			return []sim.Injection{{To: to, Msg: em}}
		}
	case pbft.CommitMsg:
		if h, ok := v.shared.variants[m.Seq][to]; ok {
			em := pbft.CommitMsg{Seq: m.Seq, View: m.View, Hash: h, Replica: m.Replica}
			return []sim.Injection{{To: to, Msg: em}}
		}
	}
	return sim.PassThrough(to, msg)
}
