// Package sim is a deterministic discrete-event network simulator
// standing in for the paper's geo-replicated WAN deployments (§IX; the
// substitution is documented in DESIGN.md). Protocol nodes are sans-io
// event machines; the simulator owns virtual time and, reproducibly from
// a seed, delivers messages with region-to-region latency, jitter,
// serialization delay proportional to the wire frame each delivery
// travels as (decoded on arrival, as off a socket) and per-message CPU
// service time, fires timers, and injects faults.
//
// # Fault surface
//
//   - Crash/Recover and Reattach (replace a node's handler mid-run, the
//     restart-from-storage hook).
//   - Partitions (group-based) and per-node stragglers.
//   - LinkFault rules per directed link, wildcard-able: probabilistic
//     drop, duplication, and reorder jitter (§II network model).
//   - Corrupter: per-node OUTBOUND message interception at the
//     process/wire boundary — the Byzantine adversary hook. The engine
//     object stays honest; its traffic can be equivocated, mutated,
//     replayed, redirected or suppressed, deterministically.
//
// Figures 2 and 3 of the paper depend on message counts, quorum waiting
// and latency distributions, which this model reproduces; absolute
// throughput also depends on crypto CPU cost, which callers model as
// service time via Config.SendCost/RecvCost (see cluster.CostModel).
//
// Determinism contract: one logical thread runs every Deliver and timer
// callback; all randomness flows from Config.Seed. The same seed and
// schedule replay bit-for-bit, which is what makes a failing chaos seed
// a complete reproduction recipe.
package sim
