// Package cluster wires SBFT and PBFT replicas, clients and applications
// into the discrete-event simulator, reproducing the paper's deployments
// (§IX): a full protocol stack per replica over a modeled WAN, with a
// per-message CPU cost model, scripted fault schedules, Byzantine
// corrupters, durable storage, and closed-loop measurement clients.
//
// # Protocol variants
//
// The five configurations of the paper's evaluation map to:
//
//	PBFT            → internal/pbft (quadratic baseline)
//	Linear-PBFT     → SBFT engine, fast path off, exec collectors off, c=0
//	Linear+Fast     → SBFT engine, fast path on, exec collectors off, c=0
//	SBFT (c=0)      → all ingredients, c=0
//	SBFT (c=8)      → all ingredients, c=8
//
// # Fault schedules
//
// A Schedule is a list of timestamped Fault steps applied against the
// running simulation (faults.go): crash/recover, restart-from-storage
// (RestartReplica → core.NewReplica over the store the replica left),
// partitions, stragglers, per-link drop/duplicate/reorder rules — plus
// the Byzantine kinds
// (byzantine.go), each of which installs a wire-aware sim.Corrupter on a
// replica's outbound boundary and marks it Byzantine for the safety
// audit: FaultByzEquivocate (equivocating primary), FaultByzSilent,
// FaultByzConflictCkpt (signed-conflicting checkpoint digests),
// FaultByzStaleView (junk view-change spam), FaultByzSnapshot (tampered
// state-transfer chunks), FaultByzRestore.
//
// # Persistence
//
// Options.Persist gives every replica a storage.Ledger: committed blocks
// append durably, stable certified snapshots persist alongside, and
// RestartReplica rebuilds a replica from disk mid-run.
//
// The cost model (costs.go) charges per-message CPU mirroring the real
// crypto structure (shares filed unchecked, one interpolation plus one
// signature check per certificate where the combine runs); see DESIGN.md
// substitution #3.
package cluster
