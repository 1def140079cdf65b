package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"

	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/sim"
)

// Ack is one completed client operation as the client observed it.
type Ack struct {
	Client    int
	Timestamp uint64
	Seq       uint64
	Op        []byte
	Val       []byte
}

// Audit is the outcome of the cross-replica safety audit. Divergences are
// safety violations: honest replicas disagreeing on what was committed or
// executed, or a client holding an ack for work no replica performed.
// Byzantine replicas are expected to diverge arbitrarily and are excluded
// from every honest-replica invariant.
type Audit struct {
	Divergences []string
	// ReplicasAudited and SeqsAudited size the evidence base.
	ReplicasAudited int
	SeqsAudited     int
	// ByzantineExcluded counts replicas exempted from honest invariants.
	ByzantineExcluded int
}

// OK reports whether the audit found no divergence.
func (a *Audit) OK() bool { return len(a.Divergences) == 0 }

func (a *Audit) addf(format string, args ...any) {
	a.Divergences = append(a.Divergences, fmt.Sprintf(format, args...))
}

// stateRoot commits to an application's state alone
// (kvstore.AuthState.StateRoot, which both services and Recorder have).
// Its Digest chains the executed blocks and covers the state only at
// genesis, so a replica that silently lost a write would still match its
// peers' digests.
func stateRoot(app core.Application) []byte {
	return app.(interface{ StateRoot() []byte }).StateRoot()
}

// AuditCluster cross-checks a finished scenario:
//
//  1. Committed-log agreement: any two replicas that executed the same
//     sequence executed identical operations with identical results.
//  2. State-root agreement: replicas at the same execution frontier have
//     identical application states (stateRoot).
//  3. No lost acks: every operation a client completed appears in the
//     executed log of every replica that executed its sequence locally,
//     and in at least one replica overall.
//  4. Per-replica no re-execution: the same operation does not appear at
//     two different sequences of one replica's log (callers must use
//     workloads with unique operation payloads).
//  5. Scheduled fault steps all applied (cl.FaultErrors empty).
//
// Crashed replicas are still audited — a crashed node's retained state
// must not contradict the survivors' — but Byzantine replicas (per
// cl.IsByzantine) are expected to diverge and are skipped.
func AuditCluster(cl *cluster.Cluster, recorders map[int]*Recorder, acks []Ack) *Audit {
	a := &Audit{}

	for _, err := range cl.FaultErrors {
		a.addf("fault step failed: %v", err)
	}

	// Execution frontiers per live honest replica.
	frontier := make(map[int]uint64)
	for id := 1; id <= cl.N; id++ {
		if cl.IsByzantine(id) {
			a.ByzantineExcluded++
			continue
		}
		if cl.Replicas != nil {
			frontier[id] = cl.Replicas[id].LastExecuted()
		} else {
			frontier[id] = cl.PBFTReplicas[id].LastExecuted()
		}
	}
	a.ReplicasAudited = len(frontier)

	// (1) Committed-log agreement across all recorded sequences.
	type firstSeen struct {
		replica int
		digest  [32]byte
	}
	bySeq := make(map[uint64]firstSeen)
	ids := make([]int, 0, len(recorders))
	for id := range recorders {
		if _, honest := frontier[id]; honest {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		for seq, rec := range recorders[id].Records {
			d := rec.opsDigest()
			if prev, ok := bySeq[seq]; ok {
				if prev.digest != d {
					a.addf("log divergence at seq %d: replica %d and replica %d executed different blocks", seq, prev.replica, id)
				}
			} else {
				bySeq[seq] = firstSeen{replica: id, digest: d}
			}
		}
	}
	a.SeqsAudited = len(bySeq)

	// (2) State-root agreement at equal frontiers.
	type root struct {
		replica int
		digest  []byte
	}
	byFrontier := make(map[uint64]root)
	for _, id := range ids {
		le := frontier[id]
		d := stateRoot(cl.Apps[id])
		if prev, ok := byFrontier[le]; ok {
			if !bytes.Equal(prev.digest, d) {
				a.addf("state divergence at frontier %d: replica %d and replica %d state roots differ", le, prev.replica, id)
			}
		} else {
			byFrontier[le] = root{replica: id, digest: d}
		}
	}

	// (2b) Execution-state agreement at equal frontiers (SBFT engine):
	// the digest additionally covers the last-reply table, so a replica
	// whose dedup state was perturbed — e.g. restored from a tampered
	// snapshot — diverges here even when application state agrees. This is
	// the post-recovery invariant behind the π-certified checkpoint
	// digest: dedup state must match what the quorum certified.
	if cl.Replicas != nil {
		execByFrontier := make(map[uint64]root)
		for _, id := range ids {
			le := frontier[id]
			d := cl.Replicas[id].ExecutionStateDigest()
			if prev, ok := execByFrontier[le]; ok {
				if !bytes.Equal(prev.digest, d) {
					a.addf("execution-state divergence at frontier %d: replica %d and replica %d disagree on the last-reply table", le, prev.replica, id)
				}
			} else {
				execByFrontier[le] = root{replica: id, digest: d}
			}
		}
	}

	// (3) No lost acks.
	for _, ack := range acks {
		opHash := sha256.Sum256(ack.Op)
		holders := 0
		for _, id := range ids {
			rec, ok := recorders[id].Records[ack.Seq]
			if !ok {
				continue // not executed locally (state transfer or behind)
			}
			holders++
			found := false
			for _, h := range rec.OpHashes {
				if h == opHash {
					found = true
					break
				}
			}
			if !found {
				a.addf("lost ack: client %d op ts=%d acked at seq %d, but replica %d's block %d lacks it",
					ack.Client, ack.Timestamp, ack.Seq, id, ack.Seq)
			}
		}
		if holders == 0 {
			a.addf("lost ack: client %d op ts=%d acked at seq %d, but no replica executed that block locally",
				ack.Client, ack.Timestamp, ack.Seq)
		}
	}

	// (4) No re-execution of one operation at two sequences of a replica.
	for _, id := range ids {
		seen := make(map[[32]byte]uint64)
		seqs := make([]uint64, 0, len(recorders[id].Records))
		for seq := range recorders[id].Records {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			for _, h := range recorders[id].Records[seq].OpHashes {
				if prev, dup := seen[h]; dup {
					a.addf("replica %d re-executed an operation: seq %d and seq %d", id, prev, seq)
				} else {
					seen[h] = seq
				}
			}
		}
	}

	return a
}

// ReadAck is one completed certified read as a client observed it.
type ReadAck struct {
	Client int
	core.ReadResult
}

// AuditReads cross-checks a certified-read ledger against the settled
// cluster. Client-side verification is the primary defense (a forged
// reply must die in VerifyReadReply); this audit is the backstop that
// would catch a verification bug:
//
//  1. No read beyond the certified frontier: a verified read's sequence
//     can never exceed the highest execution frontier any honest replica
//     reached — certifying seq s requires at least one honest π share,
//     and that signer executed to s.
//  2. Monotonic reads per client: the client raises its freshness floor
//     on every completion, so later verified reads may never observe an
//     older certified sequence.
//
// Ordered fallbacks went through consensus and are covered by the main
// audit's ack checks.
func AuditReads(cl *cluster.Cluster, reads []ReadAck) []string {
	var divs []string
	if cl.Replicas == nil {
		for _, r := range reads {
			if !r.Ordered {
				divs = append(divs, fmt.Sprintf("client %d holds a certified read but the cluster runs no SBFT replicas", r.Client))
			}
		}
		return divs
	}
	var frontier uint64
	for id := 1; id <= cl.N; id++ {
		if cl.IsByzantine(id) {
			continue
		}
		if le := cl.Replicas[id].LastExecuted(); le > frontier {
			frontier = le
		}
	}
	lastSeq := make(map[int]uint64)
	for _, r := range reads {
		if r.Ordered {
			continue
		}
		if r.Seq > frontier {
			divs = append(divs, fmt.Sprintf("read beyond certified frontier: client %d read %q at seq %d, honest frontier %d",
				r.Client, r.Key, r.Seq, frontier))
		}
		if prev := lastSeq[r.Client]; r.Seq < prev {
			divs = append(divs, fmt.Sprintf("non-monotonic reads: client %d observed seq %d after seq %d",
				r.Client, r.Seq, prev))
		}
		lastSeq[r.Client] = r.Seq
	}
	return divs
}

// liveReplicaCount reports how many honest replicas are not crashed.
func liveReplicaCount(cl *cluster.Cluster) int {
	n := 0
	for id := 1; id <= cl.N; id++ {
		if !cl.Net.Crashed(sim.NodeID(id)) && !cl.IsByzantine(id) {
			n++
		}
	}
	return n
}
