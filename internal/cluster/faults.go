package cluster

import (
	"fmt"
	"time"

	"sbft/internal/sim"
)

// This file is the cluster-level fault-schedule API of the chaos harness:
// a Schedule of timestamped Fault steps is applied against the simulated
// deployment before (or during) Run/RunClosedLoop, reproducing the paper's
// fault experiments as scripts — "partition the primary at t=2s, heal at
// t=5s" — plus the crash-restart-from-storage path the paper's RocksDB
// persistence implies (§IX).

// FaultKind enumerates scripted fault actions.
type FaultKind int

// Fault actions.
const (
	// FaultCrash crashes replica Node (messages to/from it are dropped;
	// its in-memory state is retained, modeling a paused process).
	FaultCrash FaultKind = iota
	// FaultRecover un-crashes replica Node with its in-memory state.
	FaultRecover
	// FaultRestart rebuilds replica Node from its durable block store and
	// rejoins it (requires Options.Persist): the crash-recover model of
	// the paper's persistent deployment. Implies recovery from a crash.
	FaultRestart
	// FaultPartition moves replica Node into partition Group (non-zero
	// groups cannot talk to each other; group 0 talks to everyone).
	FaultPartition
	// FaultHeal returns every node to partition group 0.
	FaultHeal
	// FaultStraggle delays all messages to/from Node by Extra (0 clears).
	FaultStraggle
	// FaultLink installs a drop/duplicate/reorder rule on the directed
	// link From → To (0 endpoints mean "any node").
	FaultLink
	// FaultLinkClear removes every link rule.
	FaultLinkClear

	// Byzantine fault kinds: each installs a wire-aware sim.Corrupter on
	// replica Node's outbound boundary (the process is compromised, not
	// the engine object — its internal state stays honest, its messages
	// lie) and marks the replica Byzantine for the safety audit.

	// FaultByzEquivocate makes Node an equivocating primary: pre-prepares
	// are rewritten per recipient so different halves of the cluster see
	// conflicting blocks for the same sequence number (footnote-3 of the
	// paper: "primaries sending partial, equivocating and/or stale
	// information"). Non-primary traffic passes through.
	FaultByzEquivocate
	// FaultByzStaleView makes Node a stale-view spammer: alongside its
	// honest traffic it injects view-change messages for stale and
	// near-future views carrying junk certificate evidence.
	FaultByzStaleView
	// FaultByzConflictCkpt makes Node send per-recipient conflicting
	// checkpoint and execution-state digests, correctly signed with its
	// own key shares (signed garbage is within a Byzantine replica's
	// power; only the quorum intersection protects honest replicas).
	FaultByzConflictCkpt
	// FaultByzSilent suppresses all of Node's outbound messages while it
	// keeps receiving: a crash-like replica that still looks alive at the
	// transport level.
	FaultByzSilent
	// FaultByzSnapshot makes Node a Byzantine snapshot server: outbound
	// state-transfer chunks are tampered with (flipped bytes — perturbing
	// the serialized reply table and application state a recovering
	// replica would restore). Because every chunk is checked against its
	// leaf in the list the π-certified checkpoint root commits to, honest
	// receivers must detect the tampering, blame this server, and finish
	// recovery from the remaining honest servers.
	FaultByzSnapshot
	// FaultByzStaleMeta makes Node a stale-snapshot-meta server: it
	// remembers the OLDEST certified snapshot meta it ever served and
	// keeps answering FetchState with it — the π certificate stays valid,
	// only the sequence is stale. Against a fetcher that adopts the first
	// meta at/above its target, this races the honest servers and can win
	// the initial choice, pinning recovery to a checkpoint whose chunks
	// the cluster may already have garbage-collected; the
	// highest-certified-seq meta selection makes it lose to any honest
	// answer collected in the same window.
	FaultByzStaleMeta
	// FaultByzForgedProof makes Node a forged-proof read server: outbound
	// certified-read replies (core.ReadReplyMsg) are tampered per reply,
	// rotating between flipped chunk bytes, corrupted Merkle proof steps,
	// an inflated certified sequence (breaking the π binding) and
	// replaying a cached stale-but-valid reply below the client's floor.
	// Clients must reject every variant through local verification — the
	// chaos check asserts the catches land client-side, never post-hoc.
	FaultByzForgedProof
	// FaultByzRestore removes Node's corrupter. The engine was never
	// corrupted internally, so the replica resumes honest participation;
	// the audit keeps treating it as Byzantine (sticky mark).
	FaultByzRestore

	// Colluding key-share adversaries: Node plus Peers form ONE coordinated
	// adversary whose members pool their σ/τ/π threshold key material (a
	// real attacker compromising several replicas learns all their shares).
	// Installing any collude kind marks every member Byzantine, and the
	// f budget counts the whole set — collusion does not buy extra slots.

	// FaultByzColludeEquivocate is the joint partial-quorum signer: a
	// member primary deals per-recipient conflicting blocks, every member
	// re-signs its σ/τ shares to match whatever each recipient was dealt,
	// and the coordinator pools observed honest shares with all members'
	// forged shares to combine prepare/commit certificates for whichever
	// variant reaches the slow quorum. With ≤f members both variants are
	// mathematically one honest share short of double-certification; with
	// f+1 members the coordinator forges certified divergence (the
	// over-budget auditor canary).
	FaultByzColludeEquivocate
	// FaultByzColludeCkpt makes the members emit certified-looking
	// CONFLICTING checkpoint and execution-state shares: all members sign
	// the same garbage digest per sequence (mutually consistent, unlike
	// the independent FaultByzConflictCkpt), and each member additionally
	// injects its peers' matching shares — so honest replicas see the
	// whole colluding set backing one fake state, exactly one share short
	// of the f+1 π quorum.
	FaultByzColludeCkpt
	// FaultByzColludeSnapshot coordinates stale snapshot metadata: every
	// member serves the OLDEST certified meta ANY member ever saw, so a
	// recovering replica polling several servers receives f mutually
	// consistent lying answers racing the honest ones.
	FaultByzColludeSnapshot

	// Adaptive role-targeting attacks: instead of corrupting a fixed
	// replica, the attacker reads the deterministic role map (primary,
	// C-collectors, E-collectors per rotation — public knowledge) and
	// retargets benign impairments every period. Node is unused; Extra
	// optionally overrides the retarget period. These consume at-once
	// budget slots but never mark anyone Byzantine.

	// FaultAttackCollectors crashes exactly the c+1 collectors of the next
	// slot each period, alternating between C-collectors (commit path) and
	// E-collectors (execution path, forcing the ExecFallbackTimeout reply
	// fallback), releasing previous targets as the roles rotate.
	FaultAttackCollectors
	// FaultAttackFastPath delays c+1 non-collector replicas just beyond
	// the adaptive fast-timer cap, starving the σ quorum while the τ
	// quorum stays reachable: every block is forced through the §V-E
	// linear fallback without ever stopping commits.
	FaultAttackFastPath
	// FaultAttackPartition drops the directed links from the primary to
	// its current C-collectors, severing share collection while all other
	// traffic flows.
	FaultAttackPartition
	// FaultAttackStop halts the adaptive attacker and heals everything it
	// impaired.
	FaultAttackStop
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRecover:
		return "recover"
	case FaultRestart:
		return "restart"
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultStraggle:
		return "straggle"
	case FaultLink:
		return "link"
	case FaultLinkClear:
		return "link-clear"
	case FaultByzEquivocate:
		return "byz-equivocate"
	case FaultByzStaleView:
		return "byz-stale-view"
	case FaultByzConflictCkpt:
		return "byz-conflict-ckpt"
	case FaultByzSilent:
		return "byz-silent"
	case FaultByzSnapshot:
		return "byz-snapshot"
	case FaultByzStaleMeta:
		return "byz-stale-meta"
	case FaultByzForgedProof:
		return "byz-forged-proof"
	case FaultByzRestore:
		return "byz-restore"
	case FaultByzColludeEquivocate:
		return "byz-collude-equivocate"
	case FaultByzColludeCkpt:
		return "byz-collude-ckpt"
	case FaultByzColludeSnapshot:
		return "byz-collude-snapshot"
	case FaultAttackCollectors:
		return "attack-collectors"
	case FaultAttackFastPath:
		return "attack-fastpath"
	case FaultAttackPartition:
		return "attack-partition"
	case FaultAttackStop:
		return "attack-stop"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Byzantine reports whether the kind installs or removes a corrupter.
func (k FaultKind) Byzantine() bool {
	switch k {
	case FaultByzEquivocate, FaultByzStaleView, FaultByzConflictCkpt,
		FaultByzSilent, FaultByzSnapshot, FaultByzStaleMeta, FaultByzForgedProof,
		FaultByzRestore,
		FaultByzColludeEquivocate, FaultByzColludeCkpt, FaultByzColludeSnapshot:
		return true
	}
	return false
}

// Fault is one timestamped step of a fault schedule.
type Fault struct {
	// At is the absolute virtual time the fault applies.
	At   time.Duration
	Kind FaultKind
	// Node is the target replica for Crash/Recover/Restart/Partition/
	// Straggle.
	Node int
	// Group is the partition group for FaultPartition.
	Group int
	// Extra is the straggler delay for FaultStraggle.
	Extra time.Duration
	// From and To are the directed link endpoints for FaultLink; 0 is a
	// wildcard matching any node.
	From, To int
	// Link is the injected link behavior for FaultLink.
	Link sim.LinkFault
	// Peers lists the accomplice replicas for the FaultByzCollude* kinds:
	// Node and Peers together form one colluding adversary set.
	Peers []int
}

// String renders the step for chaos reports.
func (f Fault) String() string {
	switch f.Kind {
	case FaultPartition:
		return fmt.Sprintf("%v %s r%d→g%d", f.At, f.Kind, f.Node, f.Group)
	case FaultStraggle:
		return fmt.Sprintf("%v %s r%d +%v", f.At, f.Kind, f.Node, f.Extra)
	case FaultLink:
		return fmt.Sprintf("%v %s %d→%d drop=%.2f dup=%.2f reorder=%v",
			f.At, f.Kind, f.From, f.To, f.Link.Drop, f.Link.Duplicate, f.Link.ReorderJitter)
	case FaultHeal, FaultLinkClear, FaultAttackStop:
		return fmt.Sprintf("%v %s", f.At, f.Kind)
	case FaultByzColludeEquivocate, FaultByzColludeCkpt, FaultByzColludeSnapshot:
		return fmt.Sprintf("%v %s r%d+%v", f.At, f.Kind, f.Node, f.Peers)
	case FaultAttackCollectors, FaultAttackFastPath, FaultAttackPartition:
		return fmt.Sprintf("%v %s period=%v", f.At, f.Kind, f.Extra)
	default:
		return fmt.Sprintf("%v %s r%d", f.At, f.Kind, f.Node)
	}
}

// Schedule is a scripted fault timeline.
type Schedule []Fault

// linkEnd maps a schedule endpoint (0 = wildcard) to a sim node.
func linkEnd(id int) sim.NodeID {
	if id == 0 {
		return sim.AnyNode
	}
	return sim.NodeID(id)
}

// Apply schedules every fault step against the cluster's simulator. Steps
// fire at their absolute virtual times (at once if that time has passed)
// during subsequent Run or RunClosedLoop calls. Errors from steps (e.g. a
// failed restart) collect in cl.FaultErrors.
func (cl *Cluster) Apply(s Schedule) {
	for _, f := range s {
		cl.Sched.Schedule(max(0, f.At-cl.Sched.Now()), func() { cl.applyFault(f) })
	}
}

// applyFault executes one fault step immediately.
func (cl *Cluster) applyFault(f Fault) {
	switch f.Kind {
	case FaultCrash:
		cl.Net.Crash(sim.NodeID(f.Node))
	case FaultRecover:
		cl.Net.Recover(sim.NodeID(f.Node))
	case FaultRestart:
		if err := cl.RestartReplica(f.Node); err != nil {
			cl.FaultErrors = append(cl.FaultErrors, fmt.Errorf("restart r%d at %v: %w", f.Node, f.At, err))
		}
	case FaultPartition:
		cl.Net.SetPartition(sim.NodeID(f.Node), f.Group)
	case FaultHeal:
		cl.Net.HealPartitions()
	case FaultStraggle:
		cl.Net.SetStraggler(sim.NodeID(f.Node), f.Extra)
	case FaultLink:
		cl.Net.SetLinkFault(linkEnd(f.From), linkEnd(f.To), f.Link)
	case FaultLinkClear:
		cl.Net.ClearLinkFaults()
	case FaultByzEquivocate, FaultByzStaleView, FaultByzConflictCkpt,
		FaultByzSilent, FaultByzSnapshot, FaultByzStaleMeta, FaultByzForgedProof,
		FaultByzRestore:
		if err := cl.InstallByzantine(f.Node, f.Kind); err != nil {
			cl.FaultErrors = append(cl.FaultErrors, fmt.Errorf("%s r%d at %v: %w", f.Kind, f.Node, f.At, err))
		}
	case FaultByzColludeEquivocate, FaultByzColludeCkpt, FaultByzColludeSnapshot:
		if err := cl.InstallColluders(f.Kind, append([]int{f.Node}, f.Peers...)); err != nil {
			cl.FaultErrors = append(cl.FaultErrors, fmt.Errorf("%s r%d+%v at %v: %w", f.Kind, f.Node, f.Peers, f.At, err))
		}
	case FaultAttackCollectors, FaultAttackFastPath, FaultAttackPartition:
		if err := cl.StartAdaptiveAttack(f.Kind, f.Extra); err != nil {
			cl.FaultErrors = append(cl.FaultErrors, fmt.Errorf("%s at %v: %w", f.Kind, f.At, err))
		}
	case FaultAttackStop:
		cl.StopAdaptiveAttack()
	default:
		cl.FaultErrors = append(cl.FaultErrors, fmt.Errorf("unknown fault kind %d at %v", f.Kind, f.At))
	}
}

// RestartReplica rebuilds replica id from its durable block store — the
// process-crash-and-restart path: the old in-memory replica is discarded,
// a fresh application replays the persisted block log, and the rebuilt
// replica takes over the node's network identity and rejoins (catching up
// via gap repair or state transfer). Requires Options.Persist; covers
// both the SBFT variants and the PBFT baseline.
func (cl *Cluster) RestartReplica(id int) error {
	if !cl.Opts.Persist {
		return fmt.Errorf("cluster: restart requires Options.Persist")
	}
	if id < 1 || id > cl.N {
		return fmt.Errorf("cluster: replica id %d out of range [1,%d]", id, cl.N)
	}
	// Drop the process: kill the old env so the abandoned replica's timer
	// callbacks and sends are suppressed, exactly as a process death would.
	cl.Net.Crash(sim.NodeID(id))
	if old := cl.envs[id]; old != nil {
		old.dead = true
	}
	if old := cl.Stores[id]; old != nil {
		if err := old.Close(); err != nil {
			return fmt.Errorf("cluster: closing store of replica %d: %w", id, err)
		}
	}
	node, err := cl.startReplica(id)
	if err != nil {
		return fmt.Errorf("cluster: recovering replica %d: %w", id, err)
	}
	if err := cl.Net.Reattach(sim.NodeID(id), handler{node}); err != nil {
		return err
	}
	cl.Net.Recover(sim.NodeID(id))
	return nil
}
