package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/sim"
)

// This file implements key-share-aware collusion (ROADMAP item 4): a set
// of corrupted replicas modeled as ONE adversary that has extracted every
// member's σ/τ/π threshold key shares. Unlike the independent FaultByz*
// corrupters — each limited to signing garbage with its own share — the
// Colluder coordinator signs with ALL member keys at once, pools the
// honest shares its members receive on the wire, and combines full
// threshold certificates the moment any variant reaches a quorum. This is
// the strongest adversary the paper's model admits (§IV: up to f replicas
// "completely compromised", which includes their key material), so it
// probes the exact boundary the threshold arithmetic defends:
//
//   - a variant needs QuorumSlow = 2f+c+1 τ shares; the colluders own m
//     and must source the rest from honest replicas dealt that variant;
//   - with m ≤ f members, the 3f+2c+1-m honest replicas cannot give BOTH
//     variants 2f+c+1-m shares — the second variant falls exactly ONE
//     share short, every time (threshold crypto's margin is exact);
//   - with m = f+1 members, an even honest split certifies both variants
//     and honest replicas commit conflicting blocks — the over-budget
//     canary the safety auditor must catch.
//
// Mechanically the coordinator needs two sim capabilities the independent
// corrupters do not: an inbound Observer on each member (a compromised
// process leaks what it RECEIVES, i.e. honest shares addressed to member
// collectors) and Inject (emitting jointly-forged certificates as one of
// its members, bypassing that member's own corrupter).

// Colluder coordinates a set of corrupted replicas with pooled threshold
// key material. One Colluder instance is shared by all members' corrupters
// and observers; all its state mutations happen on the simulator's single
// logical thread.
type Colluder struct {
	cl        *Cluster
	kind      FaultKind
	members   []int // ascending
	memberSet map[int]bool
	honest    []int // ascending non-members

	// FaultByzColludeEquivocate: per-sequence dealing and pooling state.
	deals map[uint64]*colludedSeq

	// FaultByzColludeCkpt: one agreed garbage digest per (domain, seq) —
	// mutually consistent across members, conflicting with the honest one.

	// FaultByzColludeSnapshot: one staleMetaServer behind every member,
	// so each answers with the oldest certified meta ANY member ever
	// served. A fetcher polling several members gets the same lying
	// answer from each — the mutual consistency that makes collusion
	// dangerous to first-accepted meta selection.
	staleMeta staleMetaServer
}

// colludedSeq is the collusion state for one equivocated sequence number.
type colludedSeq struct {
	view     uint64
	dealt    map[sim.NodeID]int // recipient → variant index
	variants []*colludedVariant
}

// colludedVariant is one side of the equivocation for a sequence.
type colludedVariant struct {
	hash       core.Digest
	reqs       []core.Request
	recipients []sim.NodeID // ascending; who was dealt this variant
	tauShares  map[int]threshsig.Share
	certs      []*colludedCert
	prepared   bool // prepare certificate injected for this variant
}

// colludedCert is one known prepare certificate for a variant (the
// coordinator's own combine, or an honest collector's observed on the
// wire — the insecure scheme's combined bytes depend on WHICH shares went
// in, so several distinct-but-valid certificates can coexist).
type colludedCert struct {
	tau      threshsig.Signature
	ttShares map[int]threshsig.Share
	slowSent bool
}

// InstallColluders arms a colluding key-share adversary over the given
// member set (Fault.Node plus Fault.Peers). Every member is marked
// Byzantine for the audit; a FaultByzRestore per member disarms it. The
// collusion kinds target the SBFT engine's threshold schemes; the PBFT
// baseline has its own InstallColludingEquivocators canary.
func (cl *Cluster) InstallColluders(kind FaultKind, members []int) error {
	if cl.Opts.Protocol == ProtoPBFT {
		return fmt.Errorf("cluster: %v requires an SBFT-engine protocol", kind)
	}
	if len(members) == 0 {
		return fmt.Errorf("cluster: %v needs at least one member", kind)
	}
	seen := make(map[int]bool)
	var set []int
	for _, id := range members {
		if id < 1 || id > cl.N {
			return fmt.Errorf("cluster: replica id %d out of range [1,%d]", id, cl.N)
		}
		if !seen[id] {
			seen[id] = true
			set = append(set, id)
		}
	}
	sortInts(set)
	col := &Colluder{
		cl:        cl,
		kind:      kind,
		members:   set,
		memberSet: seen,
		deals:     make(map[uint64]*colludedSeq),
	}
	for id := 1; id <= cl.N; id++ {
		if !seen[id] {
			col.honest = append(col.honest, id)
		}
	}
	for _, id := range set {
		cl.MarkByzantine(id)
		cl.Net.SetCorrupter(sim.NodeID(id), col.corrupter(id))
		if kind == FaultByzColludeEquivocate {
			cl.Net.SetObserver(sim.NodeID(id), col.observe)
		}
	}
	return nil
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// keysOf returns a member's full key set (the extracted shares).
func (c *Colluder) keysOf(member int) core.ReplicaKeys {
	return c.cl.keys[member-1]
}

// corrupter builds the outbound interceptor for one member.
func (c *Colluder) corrupter(member int) sim.Corrupter {
	return sim.CorruptFunc(func(to sim.NodeID, msg any) []sim.Injection {
		switch c.kind {
		case FaultByzColludeEquivocate:
			return c.corruptEquivocate(member, to, msg)
		case FaultByzColludeCkpt:
			return c.corruptCkpt(member, to, msg)
		case FaultByzColludeSnapshot:
			return c.staleMeta.Corrupt(to, msg)
		}
		return sim.PassThrough(to, msg)
	})
}

// ---------------------------------------------------------------------------
// FaultByzColludeEquivocate: jointly-signed partial quorums.

// dealFor creates (or returns) the dealing state for an intercepted
// pre-prepare. Variant 0 is the honest block; variant 1 the conflicting
// reorder. The honest recipients of variant 0 rotate with the sequence
// number so no honest replica is starved forever — per slot the split is
// adversarially tight: variant 0 gets exactly the QuorumSlow-m honest
// shares it needs, variant 1 the remainder (one short at m ≤ f).
func (c *Colluder) dealFor(m core.PrePrepareMsg) *colludedSeq {
	if d, ok := c.deals[m.Seq]; ok {
		return d
	}
	reqsA := m.Reqs
	reqsB := equivocateReqs(m.Reqs)
	hA := core.BlockHash(m.Seq, m.View, reqsA)
	hB := core.BlockHash(m.Seq, m.View, reqsB)
	d := &colludedSeq{
		view:  m.View,
		dealt: make(map[sim.NodeID]int),
		variants: []*colludedVariant{
			{hash: hA, reqs: reqsA, tauShares: make(map[int]threshsig.Share)},
			{hash: hB, reqs: reqsB, tauShares: make(map[int]threshsig.Share)},
		},
	}
	need := c.cl.Cfg.QuorumSlow() - len(c.members)
	if need < 0 {
		need = 0
	}
	rot := int(m.Seq % uint64(len(c.honest)))
	sideA := make(map[int]bool, need)
	for i := 0; i < need && i < len(c.honest); i++ {
		sideA[c.honest[(rot+i)%len(c.honest)]] = true
	}
	for id := 1; id <= c.cl.N; id++ {
		v := 1
		if sideA[id] || c.memberSet[id] {
			v = 0
		}
		d.dealt[sim.NodeID(id)] = v
		d.variants[v].recipients = append(d.variants[v].recipients, sim.NodeID(id))
	}
	// The members' own τ shares for both variants are available to the
	// coordinator immediately: it holds their keys.
	for _, v := range d.variants {
		for _, mem := range c.members {
			if sh, err := c.keysOf(mem).Tau.Sign(v.hash[:]); err == nil {
				v.tauShares[mem] = sh
			}
		}
	}
	c.deals[m.Seq] = d
	return d
}

// corruptEquivocate rewrites a member's outbound protocol traffic so each
// recipient consistently sees its dealt variant, signed with the member's
// real keys.
func (c *Colluder) corruptEquivocate(member int, to sim.NodeID, msg any) []sim.Injection {
	switch m := msg.(type) {
	case core.PrePrepareMsg:
		// Only a member acting as primary proposes; deal and rewrite.
		d := c.dealFor(m)
		if d.view != m.View {
			break
		}
		v := d.variants[d.dealt[to]]
		em := core.PrePrepareMsg{Seq: m.Seq, View: m.View, Reqs: v.reqs}
		return []sim.Injection{{To: to, Msg: em}}
	case core.SignShareMsg:
		d := c.deals[m.Seq]
		if d == nil || d.view != m.View {
			break
		}
		v := d.variants[d.dealt[to]]
		tau, err := c.keysOf(member).Tau.Sign(v.hash[:])
		if err != nil {
			return nil
		}
		em := core.SignShareMsg{Seq: m.Seq, View: m.View, Replica: member, TauSig: tau}
		if len(m.SigmaSig.Data) > 0 {
			sigma, err := c.keysOf(member).Sigma.Sign(v.hash[:])
			if err != nil {
				return nil
			}
			em.SigmaSig = sigma
		}
		return []sim.Injection{{To: to, Msg: em}}
	case core.CommitMsg:
		d := c.deals[m.Seq]
		if d == nil || d.view != m.View {
			break
		}
		// Re-sign the commit share over the recipient variant's newest
		// known prepare certificate (if none is known yet, suppress: an
		// honest share over the member engine's own certificate could leak
		// a share usable by neither side consistently).
		v := d.variants[d.dealt[to]]
		if len(v.certs) == 0 {
			return nil
		}
		cert := v.certs[len(v.certs)-1]
		sh, err := c.keysOf(member).Tau.Sign(core.TauTauDigest(cert.tau))
		if err != nil {
			return nil
		}
		em := core.CommitMsg{Seq: m.Seq, View: m.View, Replica: member, TauTau: sh}
		return []sim.Injection{{To: to, Msg: em}}
	}
	return sim.PassThrough(to, msg)
}

// observe is the inbound wiretap shared by all members: honest shares and
// certificates addressed to member collectors feed the coordinator's
// pools.
func (c *Colluder) observe(from sim.NodeID, msg any) {
	if c.kind != FaultByzColludeEquivocate {
		return
	}
	switch m := msg.(type) {
	case core.SignShareMsg:
		c.poolTau(m)
	case core.PrepareMsg:
		c.poolPrepare(m)
	case core.CommitMsg:
		c.poolTauTau(m)
	}
}

// poolTau records an honest replica's τ share. The sender signed the
// variant IT was dealt, so the share files under that variant.
func (c *Colluder) poolTau(m core.SignShareMsg) {
	d := c.deals[m.Seq]
	if d == nil || d.view != m.View || c.memberSet[m.Replica] {
		return
	}
	v := d.variants[d.dealt[sim.NodeID(m.Replica)]]
	if _, dup := v.tauShares[m.Replica]; dup {
		return
	}
	if c.cl.Suite.Tau.VerifyShare(v.hash[:], m.TauSig) != nil {
		return
	}
	v.tauShares[m.Replica] = m.TauSig
	c.tryPrepare(m.Seq, d, v)
}

// tryPrepare combines and injects a prepare certificate once a variant's
// pool reaches the slow quorum.
func (c *Colluder) tryPrepare(seq uint64, d *colludedSeq, v *colludedVariant) {
	if v.prepared || len(v.tauShares) < c.cl.Cfg.QuorumSlow() {
		return
	}
	sig, err := c.cl.Suite.Tau.Combine(v.hash[:], sharesOf(v.tauShares))
	if err != nil {
		return
	}
	v.prepared = true
	cert := c.addCert(v, sig)
	msg := core.PrepareMsg{Seq: seq, View: d.view, Tau: sig}
	for _, to := range v.recipients {
		c.cl.Net.Inject(sim.NodeID(c.members[0]), to, msg)
	}
	c.trySlow(seq, d, v, cert)
}

// addCert registers a prepare certificate for a variant (deduplicated by
// bytes) and pre-signs every member's commit share over it.
func (c *Colluder) addCert(v *colludedVariant, sig threshsig.Signature) *colludedCert {
	for _, cert := range v.certs {
		if string(cert.tau.Data) == string(sig.Data) {
			return cert
		}
	}
	cert := &colludedCert{tau: sig, ttShares: make(map[int]threshsig.Share)}
	d := core.TauTauDigest(sig)
	for _, mem := range c.members {
		if sh, err := c.keysOf(mem).Tau.Sign(d); err == nil {
			cert.ttShares[mem] = sh
		}
	}
	v.certs = append(v.certs, cert)
	return cert
}

// poolPrepare learns prepare certificates combined by honest collectors
// (their byte encoding differs from the coordinator's own combine, so
// honest commit shares may be signed over either).
func (c *Colluder) poolPrepare(m core.PrepareMsg) {
	d := c.deals[m.Seq]
	if d == nil || d.view != m.View {
		return
	}
	for _, v := range d.variants {
		if c.cl.Suite.Tau.Verify(v.hash[:], m.Tau) == nil {
			cert := c.addCert(v, m.Tau)
			c.trySlow(m.Seq, d, v, cert)
			return
		}
	}
}

// poolTauTau records an honest replica's commit share, matching it against
// the known certificates of the sender's dealt variant.
func (c *Colluder) poolTauTau(m core.CommitMsg) {
	d := c.deals[m.Seq]
	if d == nil || d.view != m.View || c.memberSet[m.Replica] {
		return
	}
	v := d.variants[d.dealt[sim.NodeID(m.Replica)]]
	for _, cert := range v.certs {
		if _, dup := cert.ttShares[m.Replica]; dup {
			continue
		}
		if c.cl.Suite.Tau.VerifyShare(core.TauTauDigest(cert.tau), m.TauTau) != nil {
			continue
		}
		cert.ttShares[m.Replica] = m.TauTau
		c.trySlow(m.Seq, d, v, cert)
		return
	}
}

// trySlow combines and injects a full slow commit proof once any
// certificate's commit-share pool reaches the slow quorum.
func (c *Colluder) trySlow(seq uint64, d *colludedSeq, v *colludedVariant, cert *colludedCert) {
	if cert.slowSent || len(cert.ttShares) < c.cl.Cfg.QuorumSlow() {
		return
	}
	outer, err := c.cl.Suite.Tau.Combine(core.TauTauDigest(cert.tau), sharesOf(cert.ttShares))
	if err != nil {
		return
	}
	cert.slowSent = true
	msg := core.FullCommitProofSlowMsg{Seq: seq, View: d.view, Tau: cert.tau, TauTau: outer}
	for _, to := range v.recipients {
		c.cl.Net.Inject(sim.NodeID(c.members[0]), to, msg)
	}
}

// sharesOf orders a share pool deterministically by signer.
func sharesOf(m map[int]threshsig.Share) []threshsig.Share {
	out := make([]threshsig.Share, 0, len(m))
	for _, sh := range m {
		out = append(out, sh)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Signer < out[j-1].Signer; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// FaultByzColludeCkpt: certified-looking conflicting checkpoints.

// colludeDigest derives the members' agreed-on fake digest for a domain
// and sequence: every member computes the same bytes, so honest replicas
// see the whole set consistently backing one conflicting state.
func (c *Colluder) colludeDigest(domain string, seq uint64) []byte {
	h := sha256.New()
	h.Write([]byte("sbft:collude:"))
	h.Write([]byte(domain))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(c.cl.Opts.Seed))
	h.Write(b[:])
	binary.BigEndian.PutUint64(b[:], seq)
	h.Write(b[:])
	return h.Sum(nil)
}

// corruptCkpt rewrites a member's checkpoint and execution-state shares to
// the agreed fake digest AND injects its peers' matching shares — the
// recipient sees m consistent, correctly-signed shares for a state that
// never existed, exactly one short of the f+1 π quorum while the set stays
// within budget.
func (c *Colluder) corruptCkpt(member int, to sim.NodeID, msg any) []sim.Injection {
	switch m := msg.(type) {
	case core.CheckpointShareMsg:
		evil := c.colludeDigest("ckpt", m.Seq)
		var out []sim.Injection
		for _, mem := range c.members {
			share, err := c.keysOf(mem).Pi.Sign(core.CheckpointSigDigest(m.Seq, evil))
			if err != nil {
				continue
			}
			em := core.CheckpointShareMsg{Seq: m.Seq, Replica: mem, Digest: evil, PiSig: share}
			out = append(out, sim.Injection{To: to, Msg: em})
		}
		return out
	case core.SignStateMsg:
		evil := c.colludeDigest("state", m.Seq)
		var out []sim.Injection
		for _, mem := range c.members {
			share, err := c.keysOf(mem).Pi.Sign(core.StateSigDigest(m.Seq, evil))
			if err != nil {
				continue
			}
			em := core.SignStateMsg{Seq: m.Seq, Replica: mem, Digest: evil, PiSig: share}
			out = append(out, sim.Injection{To: to, Msg: em})
		}
		return out
	}
	return sim.PassThrough(to, msg)
}
