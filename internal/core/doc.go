// Package core implements the SBFT replication protocol of the paper
// (§V–VIII): the sans-io Replica and Client event machines that every
// runtime in this repository drives — the deterministic simulator
// (internal/sim via internal/cluster), the chaos harness
// (internal/harness), and real TCP (internal/transport, cmd/sbft-node).
//
// # Protocol surface
//
//   - Fast path (§V-C): pre-prepare → sign-share (σᵢ, τᵢ) → C-collector
//     combines σ(h) at 3f+c+1 shares → full-commit-proof.
//   - Linear-PBFT fallback (§V-E): when the σ quorum stalls past the
//     adaptive fast-path timer, the same collectors fall back per slot to
//     prepare τ(h) → commit τᵢ(τ(h)) → full-commit-proof-slow, with no
//     view change.
//   - Execution (§V-D): committed blocks execute in sequence order
//     through the exactly-once filter (the classic last-reply-timestamp
//     rule); E-collectors combine π(d) over the state digest and clients
//     accept a single execute-ack carrying π(d) plus a Merkle proof.
//   - Checkpoints (§V-F): every win/2 executions, replicas π-sign the
//     CERTIFIED execution-state root (see certstate.go) — a Merkle
//     commitment to the application snapshot AND the last-reply table —
//     then garbage-collect below the stable point.
//   - State transfer (§VIII): a lagging replica fetches the certified
//     snapshot in chunks, verified leaf-by-leaf against the
//     threshold-signed root, blaming and excluding any server whose
//     material fails verification (one honest server suffices).
//   - Dual-mode view change (§V-G, §VII): per-slot fast/slow evidence is
//     arbitrated by a deterministic safe-value computation every replica
//     re-runs; liveness comes from progress timers, the f+1 join rule
//     and exponential back-off.
//
// # Structure
//
//	config.go     Config (n = 3f+2c+1, quorums, collector sets), Env,
//	              Application, CryptoSuite/ReplicaKeys dealing
//	messages.go   every wire message + WireSize estimates
//	replica.go    the Replica event machine (Deliver is the single entry)
//	propose.go    request admission and the primary's proposal rule
//	certstate.go  certified execution state: canonical reply table,
//	              chunked Merkle-committed snapshots, signing digests
//	viewchange.go view-change timers, safe-value computation, new-view
//	client.go     the sans-io Client (single-ack accept, f+1 fallback,
//	              view tracking from reply hints)
//	recovery.go   restart-from-storage replay + durable snapshot re-arm
//
// Replicas and clients are NOT safe for concurrent use: the runtime must
// serialize Deliver and timer callbacks on one logical thread (the
// simulator and transport.Shell both do).
package core
