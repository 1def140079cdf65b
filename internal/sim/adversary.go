// Timed adversary: a scripted fault injector on top of the seeded
// Scheduler. Where Network's Crash/SetPartition/SetLinkFault mutate the
// fault state immediately, the Adversary schedules those mutations at
// virtual times, so a test can declare "partition the primary at t=2s,
// heal at t=5s" up front and replay it deterministically from the seed.
package sim

import "time"

// Adversary schedules fault transitions against a network. All methods
// take absolute virtual times (not delays), so schedules read like the
// fault timelines in the paper's experiments (§IX).
type Adversary struct {
	net *Network
}

// NewAdversary returns an adversary over a network.
func NewAdversary(net *Network) *Adversary {
	return &Adversary{net: net}
}

// at schedules fn at absolute virtual time t (immediately if t has passed).
func (a *Adversary) at(t time.Duration, fn func()) {
	d := t - a.net.sched.Now()
	if d < 0 {
		d = 0
	}
	a.net.sched.Schedule(d, fn)
}

// CrashAt crashes a node at time t.
func (a *Adversary) CrashAt(t time.Duration, id NodeID) {
	a.at(t, func() { a.net.Crash(id) })
}

// RecoverAt clears a node's crash flag at time t.
func (a *Adversary) RecoverAt(t time.Duration, id NodeID) {
	a.at(t, func() { a.net.Recover(id) })
}

// PartitionWindow places nodes into partition groups at `from` and heals
// all partitions at `until` (0 = never heal).
func (a *Adversary) PartitionWindow(from, until time.Duration, groups map[NodeID]int) {
	a.at(from, func() {
		for id, g := range groups {
			a.net.SetPartition(id, g)
		}
	})
	if until > 0 {
		a.at(until, a.net.HealPartitions)
	}
}

// CorrupterWindow installs a Byzantine outbound interceptor on a node at
// `from` and clears it at `until` (0 = keep). While installed, every send
// of the node is rewritten by c (equivocation, mutation, replay,
// suppression); the node's internal state stays honest throughout.
func (a *Adversary) CorrupterWindow(from, until time.Duration, id NodeID, c Corrupter) {
	a.at(from, func() { a.net.SetCorrupter(id, c) })
	if until > 0 {
		a.at(until, func() { a.net.SetCorrupter(id, nil) })
	}
}

// Do schedules an arbitrary fault action at time t (escape hatch for
// transitions the helpers don't cover, e.g. replica restart).
func (a *Adversary) Do(t time.Duration, fn func()) {
	a.at(t, fn)
}
