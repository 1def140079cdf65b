package cluster

import (
	"time"

	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/pbft"
)

// CostModel is the per-message CPU schedule fed to the simulator. The
// paper's throughput differences come from where CPU is spent: quadratic
// message handling and per-client signed replies in PBFT versus collector
// aggregation and single combined signatures in SBFT (§I, §IX). Values
// model 2018-era crypto on the paper's 32-vCPU machines: one signature or
// share verification ≈ 120µs effective (BLS with batch verification), one
// signature ≈ 100µs, one interpolation of a quorum in the exponent ≈ 50µs.
// Costs depend on the message alone: the bytes a delivery puts on a link
// are its wire frame's, charged by the network (frameSizer). The PBFT
// baseline's frames carry no signature, but its signing and checking are
// charged here, as the paper's deployment signs every message (§IX).
type CostModel struct {
	Base   time.Duration // per-message handling floor
	Send   time.Duration // per-message serialization at the sender
	Sign   time.Duration // producing a signature or share
	Verify time.Duration // verifying a signature or share
	// CombineVerified is the Lagrange interpolation in the exponent alone
	// (threshsig.Scheme.CombineVerified, zero pairings). A collector's
	// combine (threshsig.Scheme.Combine) is this plus ONE Verify of the
	// combined signature, whatever the quorum size: shares are not checked
	// on arrival, and one by one only after that Verify failed.
	CombineVerified time.Duration
	PerOp           time.Duration // per-operation work in a block (request auth)

	// Fan-outs used to amortize one-time crypto over a multi-destination
	// send: a broadcast signs/combines once and then sends n copies.
	// Set by cluster.New.
	n          int
	collectors int
	// offload, set by cluster.New when Options.CryptoPool > 0, moves
	// certificate combination off the event loop: the modeled worker
	// pool (poolSink) pays CombineVerified + Verify per combine, Verify
	// per share job, and ShareVerifyCost on top when either has to blame
	// shares, on its own busy horizons.
	// workers is the pool width, used to spread request-authentication
	// cost (verified by the pool in a real deployment, but not routed
	// through the sink here).
	offload bool
	workers int
}

// DefaultCosts returns the schedule used by the benchmarks.
func DefaultCosts() CostModel {
	return CostModel{
		Base:            3 * time.Microsecond,
		Send:            2 * time.Microsecond,
		Sign:            100 * time.Microsecond,
		Verify:          120 * time.Microsecond,
		CombineVerified: 50 * time.Microsecond,
		PerOp:           20 * time.Microsecond,
	}
}

// ScaledCrypto multiplies the signature costs by k, leaving the transport
// floor untouched. Benchmarks run at a scaled-down n; multiplying crypto
// cost by (paper n / scaled n) moves the CPU saturation point to the same
// load, preserving the shape of the paper's throughput curves at a
// tractable simulation size (see DESIGN.md).
func (cm CostModel) ScaledCrypto(k int) CostModel {
	cm.Sign *= time.Duration(k)
	cm.Verify *= time.Duration(k)
	cm.CombineVerified *= time.Duration(k)
	return cm
}

// ShareVerifyCost models verifying k shares one by one: what finding the
// bad shares of a failed combine or of a failed batched check costs, and
// (k = 1) what checking a suspect signer's share on arrival costs.
func (cm CostModel) ShareVerifyCost(k int) time.Duration {
	return time.Duration(k) * cm.Verify
}

// RecvCost implements sim.Config.RecvCost for both engines' messages.
func (cm CostModel) RecvCost(msg any) time.Duration {
	d := cm.Base
	switch m := msg.(type) {
	// --- SBFT engine ---
	case core.RequestMsg:
		// Signed client request (§IX). With the verification pool this
		// check parallelizes across the workers; the event loop pays the
		// per-worker share of it. This is the cost that dominates the
		// primary under open-loop load, so the pool's width is what moves
		// the saturation point.
		if cm.offload && cm.workers > 1 {
			d += cm.Verify / time.Duration(cm.workers)
		} else {
			d += cm.Verify
		}
	case core.PrePrepareMsg:
		d += cm.Verify + time.Duration(len(m.Reqs))*cm.PerOp
	case core.SignShareMsg, core.CommitMsg, core.SignStateMsg:
		// Collectors only de-duplicate arriving shares (handling floor);
		// the check is one Verify of the combined signature, charged where
		// the combine runs (§III: "multiple signature shares ... validated
		// at nearly the same cost of validating only one").
	case core.CheckpointShareMsg:
		// Once per checkpoint every replica checks a quorum of these as
		// one batched job and combines it, spread here over the n shares
		// it receives. With the pool on, a worker pays (poolSink).
		if !cm.offload {
			d += amortized(cm.Verify+cm.CombineVerified+cm.Verify, cm.n)
		}
	case core.FullCommitProofMsg:
		d += cm.Verify
	case core.PrepareMsg:
		d += cm.Verify
	case core.FullCommitProofSlowMsg:
		d += cm.Verify // τ(τ(h)); τ(h) was verified with the prepare
	case core.FullExecuteProofMsg:
		// Kept unverified: π(d) is checked only if execFallback or a
		// redundant E-collector comes to need it.
	case core.ExecuteAckMsg:
		d += cm.Verify + cm.PerOp // π signature + Merkle proof at the client
	case core.ReplyMsg:
		d += cm.Verify // signed reply at the client
	case core.CheckpointCertMsg:
		d += cm.Verify
	case core.ViewChangeMsg:
		d += cm.Verify + time.Duration(len(m.Slots))*cm.Verify
	case core.NewViewMsg:
		d += time.Duration(1+len(m.ViewChanges)) * cm.Verify
	case core.SnapshotMetaMsg:
		d += cm.Verify // π certificate + hashing the leaf list to the root
	case core.SnapshotChunkMsg:
		d += time.Duration(1+len(m.Data)/4096) * cm.PerOp // the chunk's leaf hash
	case core.ReadMsg:
		// Queueing only; proof generation is charged on the reply send.
	case core.ReadReplyMsg:
		// Client-side acceptance: π certificate check plus the header and
		// chunk proof folds with the bucket decode.
		d += cm.Verify + cm.PerOp

	// --- PBFT baseline (all messages carry a signature, §IX) ---
	case pbft.PrePrepareMsg:
		d += cm.Verify + time.Duration(len(m.Reqs))*cm.PerOp
	case pbft.PrepareMsg:
		d += cm.Verify
	case pbft.CommitMsg:
		d += cm.Verify
	case pbft.CheckpointMsg:
		d += cm.Verify
	case pbft.ViewChangeMsg:
		d += cm.Verify + time.Duration(len(m.Prepared))*cm.Verify
	case pbft.NewViewMsg:
		d += time.Duration(1+len(m.ViewChanges)) * cm.Verify
	}
	return d
}

// amortized spreads a one-time cost over a k-destination send.
func amortized(cost time.Duration, k int) time.Duration {
	if k < 1 {
		k = 1
	}
	return cost / time.Duration(k)
}

// SendCost implements sim.Config.SendCost. One-time signing/combination is
// amortized over the message's fan-out (sign once, send k copies);
// per-destination work (distinct reply signatures, Merkle proofs) is
// charged in full on every send.
func (cm CostModel) SendCost(msg any) time.Duration {
	d := cm.Send
	n, coll := cm.n, cm.collectors
	switch m := msg.(type) {
	// --- SBFT engine ---
	case core.SignShareMsg:
		// The shares it carries, each signed once for the c+2 collectors:
		// σ_i(h) alone on a fault-free fast path, τ_i(h) beside it or alone
		// once the slow path needs it.
		signs := 0
		for _, sh := range []threshsig.Share{m.SigmaSig, m.TauSig} {
			if len(sh.Data) > 0 {
				signs++
			}
		}
		d += amortized(time.Duration(signs)*cm.Sign, coll)
	case core.CommitMsg:
		d += amortized(cm.Sign, coll) // τ_i(τ(h))
	case core.SignStateMsg:
		d += amortized(cm.Sign, coll) // π_i(d) to the E-collectors
	case core.CheckpointShareMsg:
		d += amortized(cm.Sign, n)
	case core.FullCommitProofMsg, core.PrepareMsg, core.FullCommitProofSlowMsg,
		core.FullExecuteProofMsg, core.CheckpointCertMsg:
		// The combine that produced the certificate: interpolation plus
		// the one check of the combined signature, once per n-wide
		// broadcast. With the pool on it runs on a worker
		// (poolSink.Combine charges it there).
		if !cm.offload {
			d += amortized(cm.CombineVerified+cm.Verify, n)
		}
	case core.ExecuteAckMsg:
		d += cm.PerOp // per-client Merkle proof; π(d) was already combined
	case core.ReplyMsg:
		d += cm.Sign // per-client signed reply (ingredient 3's bottleneck)
	case core.ReadReplyMsg:
		// Per-reply Merkle proof assembly against the retained commitment
		// tree; batching shares the proofs, so no signing and no combine —
		// the asymmetry versus ReplyMsg's cm.Sign is exactly why certified
		// reads beat ordered reads (the BENCH_reads gate).
		d += cm.PerOp
	case core.ViewChangeMsg:
		d += amortized(cm.Sign, n)

	// --- PBFT baseline: each broadcast signed once, sent n-wide ---
	case pbft.PrePrepareMsg, pbft.PrepareMsg, pbft.CommitMsg,
		pbft.CheckpointMsg, pbft.ViewChangeMsg:
		d += amortized(cm.Sign, n)
	}
	return d
}
