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
// One file per mechanism of the paper, all on one Replica; the two parts
// with state of their own are types the replica holds (DESIGN.md "Stages"
// says who owns which field).
//
//	config.go     Config (n = 3f+2c+1, quorums, collector sets), Env,
//	              Application, CryptoSuite/ReplicaKeys dealing
//	messages.go   every wire message (internal/wire frames them)
//	replica.go    the Replica struct, NewReplica (the one constructor: it
//	              replays a store that has history), Deliver (the single
//	              entry) and Metrics
//	propose.go    request admission and the primary's proposal rule
//	ordering.go   the slot, pre-prepare → commit on both paths, and the
//	              commit rule: σ(h), or τ(τ(h)) over τ(h) (§V-C, §V-E)
//	collector.go  the C-collector role: share tables, stagger, optimistic
//	              combine, blame and suspects
//	cryptosink.go CryptoSink, the seam the combines run behind
//	execute.go    gap repair, in-order execution through the exactly-once
//	              filter, the E-collectors' π(d), execute-acks and their
//	              fallback (§V-D); install, the host side of state transfer
//	checkpoint.go stable-checkpoint certificate and collection (§V-F);
//	              snapChain: capture, retained generations, persistence
//	              hand-off, serving fetchers
//	statefetch.go fetcher: the client side of state transfer (§VIII),
//	              behind the two-method fetchHost
//	read.go       certified reads served from the snapshot chain, and
//	              their client side
//	certstate.go  certified execution state: canonical reply table,
//	              chunked Merkle-committed snapshots, signing digests
//	viewchange.go view-change timers, safe-value computation, new-view
//	client.go     the sans-io Client (single-ack accept, f+1 fallback,
//	              view tracking from reply hints)
//	recovery.go   the durable block record, snapshot persistence, and the
//	              replay NewReplica runs over a store with history
//
// Replicas and clients are NOT safe for concurrent use: the runtime must
// serialize Deliver and timer callbacks on one logical thread (the
// simulator and transport.Shell both do).
package core
