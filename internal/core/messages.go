package core

import (
	"crypto/sha256"
	"encoding/binary"
	"time"

	"sbft/internal/crypto/threshsig"
	"sbft/internal/merkle"
	"sbft/internal/snapcodec"
)

// Digest is a SHA-256 block or state digest.
type Digest [32]byte

// BlockHash computes h = H(s ‖ v ‖ r), the digest replicas threshold-sign
// (§V-C). Binding the view into the hash is what the view-change safety
// argument (§VI) relies on.
func BlockHash(seq uint64, view uint64, reqs []Request) Digest {
	h := sha256.New()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seq)
	h.Write(b[:])
	binary.BigEndian.PutUint64(b[:], view)
	h.Write(b[:])
	for _, r := range reqs {
		binary.BigEndian.PutUint64(b[:], uint64(r.Client))
		h.Write(b[:])
		binary.BigEndian.PutUint64(b[:], r.Timestamp)
		h.Write(b[:])
		binary.BigEndian.PutUint64(b[:], uint64(len(r.Op)))
		h.Write(b[:])
		h.Write(r.Op)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// Request is a client operation (§V-A): ⟨"request", o, t, k⟩.
type Request struct {
	Client    int
	Timestamp uint64
	Op        []byte
	// Direct requests ask for the PBFT-style f+1 direct-reply path (§V-A
	// retry fallback) instead of the single execute-ack.
	Direct bool
}

// AppendRequest appends the binary form of one request — the same bytes in
// a socket frame (internal/wire) and in a block record (recovery.go).
func AppendRequest(b []byte, q Request) []byte {
	b = snapcodec.AppendInt(b, q.Client)
	b = snapcodec.AppendUint(b, q.Timestamp)
	b = snapcodec.AppendBytes(b, q.Op)
	return snapcodec.AppendBool(b, q.Direct)
}

// ReadRequest reads what AppendRequest wrote; Op aliases the reader's input.
func ReadRequest(r *snapcodec.Reader) Request {
	return Request{Client: r.Int(), Timestamp: r.Uint(), Op: r.Bytes(), Direct: r.Bool()}
}

// AppendRequests appends a request block: a count, then each request.
func AppendRequests(b []byte, reqs []Request) []byte {
	b = snapcodec.AppendUint(b, uint64(len(reqs)))
	for _, q := range reqs {
		b = AppendRequest(b, q)
	}
	return b
}

// ReadRequests reads what AppendRequests wrote, nil for an empty block.
func ReadRequests(r *snapcodec.Reader) []Request {
	n := r.Count(4) // a request is at least four one-byte fields
	if n == 0 {
		return nil
	}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = ReadRequest(r)
	}
	return reqs
}

// Message is a protocol message: a value of a type internal/wire has a
// tag for. Every message travels as a value, and its size on the wire —
// in a deployment and in the simulator alike — is its frame's.
type Message = any

// RequestMsg carries a client request to the primary (or, on retry, to all
// replicas).
type RequestMsg struct {
	Req Request
}

// PrePrepareMsg is ⟨"pre-prepare", s, v, r⟩ from the primary (§V-C).
type PrePrepareMsg struct {
	Seq  uint64
	View uint64
	Reqs []Request
}

// SignShareMsg is ⟨"sign-share", s, v, σ_i(h), τ_i(h)⟩ sent by replicas to
// the C-collectors (§V-C, §V-E). σ_i(h) is absent outside the fast-path
// gate (§V-F). τ_i(h) only insures the slow path, so it is absent on the
// fast path's fault-free run: a replica sends it here when it sends no σ,
// or until the fast path has carried its last activeWindow commits in
// the view, and otherwise in answer to a FetchSharesMsg. A backup sends
// the primary, the last C-collector, only a sign-share with τ_i(h).
type SignShareMsg struct {
	Seq      uint64
	View     uint64
	Replica  int
	SigmaSig threshsig.Share
	TauSig   threshsig.Share
}

// FetchSharesMsg asks a replica for its shares of (Seq, View). A hashed
// C-collector sends it when its fast timer expires short of 2f+c+1 τ
// shares, and the replica answers once, with a τ-only SignShareMsg to
// every C-collector of the slot. The primary sends it to every replica,
// with the pre-prepare again, when its stagger and a fast timer run out on
// an uncommitted slot, and each replica answers once, with its σ_i(h) and
// τ_i(h) to the primary alone.
type FetchSharesMsg struct {
	Seq  uint64
	View uint64
}

// FullCommitProofMsg is ⟨"full-commit-proof", s, v, σ(h)⟩ from a
// C-collector: the fast-path commit certificate (§V-C).
type FullCommitProofMsg struct {
	Seq   uint64
	View  uint64
	Sigma threshsig.Signature
}

// PrepareMsg is ⟨"prepare", s, v, τ(h)⟩: the linear-PBFT intermediate
// certificate broadcast when the fast path times out (§V-E).
type PrepareMsg struct {
	Seq  uint64
	View uint64
	Tau  threshsig.Signature
}

// CommitMsg is ⟨"commit", s, v, τ_i(τ(h))⟩ from a replica to the
// collectors in the slow path (§V-E).
type CommitMsg struct {
	Seq     uint64
	View    uint64
	Replica int
	TauTau  threshsig.Share
}

// FullCommitProofSlowMsg is ⟨"full-commit-proof-slow", s, v, τ(τ(h))⟩: the
// slow-path commit certificate (§V-E). Tau is the inner prepare
// certificate so receivers that missed the PrepareMsg can still verify.
type FullCommitProofSlowMsg struct {
	Seq    uint64
	View   uint64
	Tau    threshsig.Signature
	TauTau threshsig.Signature
}

// SignStateMsg is ⟨"sign-state", s, π_i(d)⟩ from a replica to the
// E-collectors after executing through s (§V-D).
type SignStateMsg struct {
	Seq     uint64
	Replica int
	Digest  []byte
	PiSig   threshsig.Share
}

// FullExecuteProofMsg is ⟨"full-execute-proof", s, π(d)⟩ from an
// E-collector to all replicas (§V-D).
type FullExecuteProofMsg struct {
	Seq    uint64
	Digest []byte
	Pi     threshsig.Signature
}

// ExecuteAckMsg is the single-message client acknowledgement
// ⟨"execute-ack", s, l, val, o, π(d), proof⟩ (§V-A, §V-D). View is the
// sender's current view — a routing hint that lets clients address the
// current primary directly after a view change instead of paying a retry
// broadcast. It is unauthenticated beside the ack itself; clients adopt
// it with bounded drift and reset it when routing demonstrably failed
// (see Client.complete), so a lying replica can only degrade latency,
// never safety.
type ExecuteAckMsg struct {
	Seq       uint64
	L         int
	Val       []byte
	Client    int
	Timestamp uint64
	View      uint64
	Digest    []byte
	Pi        threshsig.Signature
	Proof     []byte // application-encoded proof(o, l, s, D, val)
}

// ReplyMsg is the PBFT-style direct reply used when execution collectors
// are disabled or a client requested the f+1 fallback path. View carries
// the same routing hint as ExecuteAckMsg.View.
type ReplyMsg struct {
	Seq       uint64
	L         int
	Replica   int
	Client    int
	Timestamp uint64
	View      uint64
	Val       []byte
}

// BusyMsg is the §V-C backpressure reject: the primary's admission
// queue is full (len(pending) ≥ MaxPending), so the request was dropped
// instead of growing the queue without bound under open-loop overload.
// RetryAfter is a load-derived hint — roughly how long the queued
// backlog takes to drain — after which the client resubmits to the
// primary. The hint is unauthenticated advice: a lying primary can only
// delay one client's retry (bounded by its request timeout), never
// safety.
type BusyMsg struct {
	Client     int
	Timestamp  uint64
	RetryAfter time.Duration
}

// CheckpointShareMsg carries a replica's π share over the certified
// execution-state root at a checkpoint sequence (every win/2 executions,
// §V-F). Digest is the Merkle root committing to the application snapshot
// AND the last-reply table (see certstate.go); the share signs
// CheckpointSigDigest(Seq, Digest).
type CheckpointShareMsg struct {
	Seq     uint64
	Replica int
	Digest  []byte
	PiSig   threshsig.Share
}

// CheckpointCertMsg is the combined stable-checkpoint certificate
// broadcast by an E-collector.
type CheckpointCertMsg struct {
	Seq    uint64
	Digest []byte
	Pi     threshsig.Signature
}

// FetchCommitMsg asks a peer to retransmit the decision for a sequence
// number (the re-transmit layer assumed by the system model, §II: a
// replica with an execution gap repairs it without a view change).
type FetchCommitMsg struct {
	Replica int
	Seq     uint64
}

// CommitInfoMsg retransmits a committed decision block with its commit
// certificate (fast σ(h) or slow τ(τ(h))), self-contained so the receiver
// can commit without having accepted the pre-prepare.
type CommitInfoMsg struct {
	Seq     uint64
	View    uint64 // view whose hash the certificate covers
	Reqs    []Request
	HasFast bool
	Sigma   threshsig.Signature
	Tau     threshsig.Signature
	TauTau  threshsig.Signature
}

// FetchStateMsg asks a peer for the metadata of a certified checkpoint
// snapshot at or above Seq (state transfer, §VIII).
type FetchStateMsg struct {
	Replica int
	Seq     uint64
}

// SnapshotMetaMsg answers FetchStateMsg: the certified snapshot's root,
// its π stable-checkpoint certificate, the header, and the commitment
// tree's leaf hashes (the header's at 0, chunk i's at i; 32 bytes per
// chunk). A receiver checks that the leaves hash to Root and π certifies
// Root before requesting chunks; after that each chunk is authenticated
// by its own leaf, and every chunk the receiver already holds under an
// equal leaf — from an older snapshot or a superseded transfer — need not
// be fetched at all. Fetchers poll every eligible server and briefly
// collect the competing (verified) metas, adopting the HIGHEST certified
// sequence: a Byzantine server racing a stale-but-valid meta cannot win
// the choice by answering first.
type SnapshotMetaMsg struct {
	Seq    uint64
	Root   []byte
	Pi     threshsig.Signature
	Header SnapshotHeader
	Leaves []merkle.Digest
}

// FetchSnapshotChunkMsg requests one chunk (1-based Merkle leaf index)
// of the certified snapshot at Seq. A recovering replica keeps a bounded
// window of these in flight (fetchWindow), routes each through a
// per-server scheduler that prefers lightly-loaded, fast servers, and
// re-issues a request to a different server when it times out or its
// chunk fails verification.
type FetchSnapshotChunkMsg struct {
	Replica int
	Seq     uint64
	Index   int
}

// SnapshotChunkMsg carries one snapshot chunk. The receiver holds the
// verified leaf list, so tampering with Data is detected by hashing it
// against the leaf at Index, and blamed on the sender.
type SnapshotChunkMsg struct {
	Seq   uint64
	Index int
	Data  []byte
}

// SlotInfo is one sequence slot of a view-change message (§V-G): the pair
// x_j = (lm_j, fm_j). Each component carries the request block its
// certificate or share refers to, because the slow- and fast-path evidence
// of one replica may concern different blocks from different views; the
// new primary needs the block to re-propose it (§V-G1 describes the
// hash-chaining optimization that avoids shipping blocks).
type SlotInfo struct {
	Seq uint64

	// Slow-path component lm_j: a full commit certificate τ(τ(h)) with
	// its inner certificate, or else the highest accepted prepare.
	HasCommitProofSlow bool
	TauTau             threshsig.Signature
	Tau                threshsig.Signature
	SlowView           uint64
	SlowReqs           []Request

	HasPrepare  bool
	PrepareTau  threshsig.Signature
	PrepareView uint64
	PrepareReqs []Request

	// Fast-path component fm_j: a fast commit certificate σ(h), or else
	// this replica's own σ share over its highest accepted pre-prepare.
	HasCommitProof bool
	Sigma          threshsig.Signature
	FastView       uint64
	FastReqs       []Request

	HasPrePrepare  bool
	SigmaShare     threshsig.Share
	PrePrepareView uint64
	PrePrepareReqs []Request
}

// ViewChangeMsg is ⟨"view-change", v, ls, x_ls..x_ls+win⟩ (§V-G).
type ViewChangeMsg struct {
	NewView    uint64
	Replica    int
	LastStable uint64
	// StableDigest and StablePi prove LastStable is a valid checkpoint
	// (π(d_ls)); zero-valued for LastStable == 0 (genesis).
	StableDigest []byte
	StablePi     threshsig.Signature
	Slots        []SlotInfo
}

// NewViewMsg carries the set of 2f+2c+1 view-change messages the new
// primary based its decisions on; replicas repeat the same deterministic
// computation (§VII "forwards both the decision and the signed messages").
type NewViewMsg struct {
	View        uint64
	ViewChanges []ViewChangeMsg
}

// ReadMsg asks one replica for a consensus-free certified read (ROADMAP
// item 2): the value of a key under the replica's latest π-certified
// snapshot root, proven by Merkle inclusion. Op is an application-encoded
// read operation (the replica maps it to a key via the KeyReader hook);
// MinSeq is the client's freshness floor — a replica whose certified
// frontier is below it answers ReadBehind instead of serving stale state
// (read-your-writes without consensus). Nonce matches replies to the
// in-flight read across failovers.
type ReadMsg struct {
	Client int
	Nonce  uint64
	Op     []byte
	MinSeq uint64
}

// Read reply statuses.
const (
	// ReadOK: the reply carries the certified snapshot evidence.
	ReadOK byte = iota + 1
	// ReadBehind: the replica's certified frontier is below the client's
	// MinSeq floor; Seq reports the frontier so the client can fail over.
	ReadBehind
	// ReadUnavailable: the replica cannot serve certified reads (no
	// certified snapshot yet, no bucketed layout, or the application has
	// no key mapping for the operation).
	ReadUnavailable
)

// ReadReplyMsg answers ReadMsg with everything the client needs to verify
// the read locally against the threshold-certified state:
//
//   - Root, Pi: the latest certified snapshot root and its π
//     stable-checkpoint certificate over CheckpointSigDigest(Seq, Root);
//   - Header, HeaderProof: the snapshot header (leaf 0) with its
//     inclusion proof, establishing the chunk layout under Root;
//   - ChunkIndex, Chunk, ChunkProof: the bucket chunk covering the key,
//     with its inclusion proof.
//
// The reply deliberately has NO separate value field: the client extracts
// the value from the verified bucket chunk itself, which authenticates
// both presence and absence of the key — a lying replica cannot drop a
// key from a chunk without breaking the inclusion proof.
type ReadReplyMsg struct {
	Client  int
	Nonce   uint64
	Replica int
	Status  byte
	Seq     uint64

	Root        []byte
	Pi          threshsig.Signature
	Header      SnapshotHeader
	HeaderProof merkle.Proof
	ChunkIndex  int
	Chunk       []byte
	ChunkProof  merkle.Proof
}

// TauTauDigest exposes the outer slow-path signing digest for a prepare
// certificate. Adversarial harnesses use it to let colluding replicas
// jointly sign commit shares over certificates they assembled from pooled
// key material (forging with owned keys is within a Byzantine set's power;
// only quorum intersection protects honest replicas).
func TauTauDigest(inner threshsig.Signature) []byte {
	return tauTauDigest(inner)
}

// tauTauDigest is the digest signed by the outer τ threshold in the slow
// path: the bytes of the inner certificate τ(h).
func tauTauDigest(inner threshsig.Signature) []byte {
	h := sha256.Sum256(append([]byte("sbft:tautau:"), inner.Data...))
	return h[:]
}

// StateSigDigest exposes the domain-separated π signing digest for a
// state at a sequence number. Adversarial harnesses use it to craft
// correctly-signed conflicting checkpoint shares (a Byzantine replica
// owns its key shares, so "signed garbage" is within its power).
func StateSigDigest(seq uint64, digest []byte) []byte {
	return stateSigDigest(seq, digest)
}

// stateSigDigest domain-separates π signatures over state digests at a
// sequence number.
func stateSigDigest(seq uint64, digest []byte) []byte {
	h := sha256.New()
	h.Write([]byte("sbft:state"))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seq)
	h.Write(b[:])
	h.Write(digest)
	return h.Sum(nil)
}
