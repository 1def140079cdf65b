package cluster

import (
	"fmt"
	"time"

	"sbft/internal/core"
	"sbft/internal/sim"
)

// This file implements the adaptive role-targeting attacker: where the
// fault schedules crash FIXED replicas, this adversary reads the
// deterministic role map — primary, C-collectors and E-collectors per
// (seq, view), all public knowledge (§V) — and retargets benign
// impairments every period to hit exactly the replicas currently holding
// a role. It is a performance attack, not a safety attack: no replica is
// corrupted or marked Byzantine, yet the fast path, the execution-ack
// path, or share collection is under permanent targeted fire. The harness
// quantifies how gracefully the protocol degrades (forced §V-E linear
// fallback, ExecFallbackTimeout replies, redundant-collector takeover)
// instead of merely surviving.

// defaultAttackPeriod is the retargeting cadence when Fault.Extra is zero:
// fast enough to track role rotation block by block under the default
// timeouts.
const defaultAttackPeriod = 150 * time.Millisecond

// roleAttacker is the periodic retargeting engine behind the FaultAttack*
// kinds. At most one is active per cluster.
type roleAttacker struct {
	cl      *Cluster
	kind    FaultKind
	period  time.Duration
	stopped bool
	flip    bool // FaultAttackCollectors: alternate C- and E-collectors

	// Current impairments, so retargeting releases exactly what it took.
	crashed    []int
	straggling []int
	links      [][2]sim.NodeID
}

// StartAdaptiveAttack begins an adaptive role-targeting attack, replacing
// any attack already running. period ≤ 0 uses the default cadence.
func (cl *Cluster) StartAdaptiveAttack(kind FaultKind, period time.Duration) error {
	if cl.Opts.Protocol == ProtoPBFT {
		return fmt.Errorf("cluster: %v targets the SBFT engine's role map", kind)
	}
	switch kind {
	case FaultAttackCollectors, FaultAttackFastPath, FaultAttackPartition:
	default:
		return fmt.Errorf("cluster: %v is not an adaptive attack kind", kind)
	}
	cl.StopAdaptiveAttack()
	if period <= 0 {
		period = defaultAttackPeriod
	}
	a := &roleAttacker{cl: cl, kind: kind, period: period}
	cl.attacker = a
	a.tick()
	return nil
}

// StopAdaptiveAttack halts the attacker and heals everything it impaired.
func (cl *Cluster) StopAdaptiveAttack() {
	if cl.attacker == nil {
		return
	}
	cl.attacker.stopped = true
	cl.attacker.release()
	cl.attacker = nil
}

// release heals every impairment this attacker currently holds.
func (a *roleAttacker) release() {
	for _, id := range a.crashed {
		a.cl.Net.Recover(sim.NodeID(id))
	}
	a.crashed = nil
	for _, id := range a.straggling {
		a.cl.Net.SetStraggler(sim.NodeID(id), 0)
	}
	a.straggling = nil
	for _, l := range a.links {
		a.cl.Net.SetLinkFault(l[0], l[1], sim.LinkFault{})
	}
	a.links = nil
}

// observe reads the cluster's protocol frontier the way an omniscient but
// deterministic attacker would: the highest settled view and execution
// frontier across live honest replicas (skipping lone escapees still in a
// view change, whose inflated view is not where the traffic is).
func (a *roleAttacker) observe() (view, frontier uint64) {
	anySettled := false
	for id := 1; id <= a.cl.N; id++ {
		r := a.cl.Replicas[id]
		if a.cl.IsByzantine(id) || a.cl.Net.Crashed(sim.NodeID(id)) {
			continue
		}
		if le := r.LastExecuted(); le > frontier {
			frontier = le
		}
		if r.InViewChange() {
			continue
		}
		anySettled = true
		if v := r.View(); v > view {
			view = v
		}
	}
	if !anySettled {
		// Everyone is mid-view-change: target the highest escalation.
		for id := 1; id <= a.cl.N; id++ {
			r := a.cl.Replicas[id]
			if a.cl.IsByzantine(id) || a.cl.Net.Crashed(sim.NodeID(id)) {
				continue
			}
			if v := r.View(); v > view {
				view = v
			}
		}
	}
	return view, frontier
}

// tick retargets the attack at the current role map and reschedules
// itself.
func (a *roleAttacker) tick() {
	if a.stopped {
		return
	}
	cfg := a.cl.Cfg
	view, frontier := a.observe()
	primary := cfg.Primary(view)
	target := frontier + 1
	budget := cfg.F + cfg.C // at-once fault budget this attacker must respect

	switch a.kind {
	case FaultAttackCollectors:
		// Crash exactly the collectors of the next slot, alternating
		// between the commit path (C-collectors) and the execution-ack
		// path (E-collectors, forcing the ExecFallbackTimeout replies).
		// The primary is spared: crashing it is a different, blunter
		// attack (and its staggered-collector fallback is the defense
		// under test here).
		roles := cfg.CCollectors(target, view)
		if a.flip && cfg.ExecCollectors {
			roles = cfg.ECollectors(target, view)
		}
		a.flip = !a.flip
		var want []int
		for _, id := range roles {
			if id != primary && len(want) < budget {
				want = append(want, id)
			}
		}
		a.retargetCrash(want)
	case FaultAttackFastPath:
		// Straggle c+1 replicas that are neither primary nor collectors:
		// the σ quorum (tolerates only c missing shares) dies while the τ
		// quorum (tolerates f+c) survives, so every block rides the
		// linear fallback — for this to beat the adaptive fast timer the
		// extra delay must exceed its 6× cap.
		avoid := map[int]bool{primary: true}
		for _, id := range cfg.CCollectors(target, view) {
			avoid[id] = true
		}
		var want []int
		for id := 1; id <= a.cl.N && len(want) < cfg.C+1; id++ {
			if !avoid[id] {
				want = append(want, id)
			}
		}
		a.retargetStraggle(want, 8*cfg.FastPathTimeout)
	case FaultAttackPartition:
		// Sever the primary's links TO its C-collectors (one direction:
		// each dropped outbound link costs one lossy-endpoint budget
		// slot). Shares still reach the collectors; the primary's
		// pre-prepares must arrive via other paths or the slot stalls
		// into the staggered fallback and view-change machinery.
		var want [][2]sim.NodeID
		for _, id := range cfg.CCollectors(target, view) {
			if id != primary && len(want) < budget {
				want = append(want, [2]sim.NodeID{sim.NodeID(primary), sim.NodeID(id)})
			}
		}
		a.retargetLinks(want)
	}
	a.cl.Sched.Schedule(a.period, a.tick)
}

// retargetCrash moves the attacker's crash set to `want`, releasing
// replicas that lost their role and sparing any replica already crashed
// by someone else (the schedule's crashes are not the attacker's to heal).
func (a *roleAttacker) retargetCrash(want []int) {
	wantSet := make(map[int]bool, len(want))
	for _, id := range want {
		wantSet[id] = true
	}
	var keep []int
	for _, id := range a.crashed {
		if wantSet[id] {
			keep = append(keep, id)
			continue
		}
		a.cl.Net.Recover(sim.NodeID(id))
	}
	held := make(map[int]bool, len(keep))
	for _, id := range keep {
		held[id] = true
	}
	for _, id := range want {
		if held[id] || a.cl.Net.Crashed(sim.NodeID(id)) || a.cl.IsByzantine(id) {
			continue
		}
		a.cl.Net.Crash(sim.NodeID(id))
		keep = append(keep, id)
	}
	a.crashed = keep
}

// retargetStraggle moves the attacker's straggler set to `want`.
func (a *roleAttacker) retargetStraggle(want []int, extra time.Duration) {
	wantSet := make(map[int]bool, len(want))
	for _, id := range want {
		wantSet[id] = true
	}
	var keep []int
	for _, id := range a.straggling {
		if wantSet[id] {
			keep = append(keep, id)
			continue
		}
		a.cl.Net.SetStraggler(sim.NodeID(id), 0)
	}
	held := make(map[int]bool, len(keep))
	for _, id := range keep {
		held[id] = true
	}
	for _, id := range want {
		if held[id] || a.cl.IsByzantine(id) {
			continue
		}
		a.cl.Net.SetStraggler(sim.NodeID(id), extra)
		keep = append(keep, id)
	}
	a.straggling = keep
}

// retargetLinks moves the attacker's dropped-link set to `want`.
func (a *roleAttacker) retargetLinks(want [][2]sim.NodeID) {
	wantSet := make(map[[2]sim.NodeID]bool, len(want))
	for _, l := range want {
		wantSet[l] = true
	}
	var keep [][2]sim.NodeID
	for _, l := range a.links {
		if wantSet[l] {
			keep = append(keep, l)
			continue
		}
		a.cl.Net.SetLinkFault(l[0], l[1], sim.LinkFault{})
	}
	held := make(map[[2]sim.NodeID]bool, len(keep))
	for _, l := range keep {
		held[l] = true
	}
	for _, l := range want {
		if held[l] {
			continue
		}
		a.cl.Net.SetLinkFault(l[0], l[1], sim.LinkFault{Drop: 1})
		keep = append(keep, l)
	}
	a.links = keep
}

// ImpairFirstCollectors makes the first C-collector of every slot fail in
// that role, through a corrupter on each replica's outbound boundary (no
// replica is marked Byzantine: every engine stays honest). With crashed it
// sends nothing about the slot's ordering, as if it had crashed for that
// slot alone; otherwise it withholds only the certificates it assembles,
// full-commit proofs and prepares, and its shares still go out. At c = 0
// the primary, the last C-collector, is left to take over.
func (cl *Cluster) ImpairFirstCollectors(crashed bool) {
	for id := 1; id <= cl.N; id++ {
		cl.Net.SetCorrupter(sim.NodeID(id), sim.CorruptFunc(func(to sim.NodeID, msg any) []sim.Injection {
			seq, view, cert, ok := orderingSlot(msg)
			if ok && (crashed || cert) && cl.Cfg.CCollectors(seq, view)[0] == id {
				return nil
			}
			return []sim.Injection{{To: to, Msg: msg}}
		}))
	}
}

// orderingSlot names the slot an ordering message is about, and whether it
// is a certificate a C-collector assembles.
func orderingSlot(msg any) (seq, view uint64, cert, ok bool) {
	switch m := msg.(type) {
	case core.SignShareMsg:
		return m.Seq, m.View, false, true
	case core.FetchSharesMsg:
		return m.Seq, m.View, false, true
	case core.CommitMsg:
		return m.Seq, m.View, false, true
	case core.FullCommitProofMsg:
		return m.Seq, m.View, true, true
	case core.PrepareMsg:
		return m.Seq, m.View, true, true
	case core.FullCommitProofSlowMsg:
		return m.Seq, m.View, true, true
	}
	return 0, 0, false, false
}
