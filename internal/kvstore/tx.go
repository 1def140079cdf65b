package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"sbft/internal/snapcodec"
)

// Cross-shard two-phase commit op envelope (ROADMAP item 5).
//
// A sharded deployment partitions the keyspace across k independent SBFT
// groups; a cross-shard transaction is driven by an UNTRUSTED coordinator
// through three ordered operations:
//
//	TxPrepare(txid, participants, writes)  → "PREPARED" | "CONFLICT:…"
//	TxCommit(txid, certs[other shards])    → "COMMITTED" | "ERR:…"
//	TxAbort(txid, refuser, cert)           → "ABORTED"   | "ERR:…"
//
// Prepare locks the written keys and stages the writes without applying
// them. Commit applies the staged writes ONLY after verifying, for every
// OTHER participant shard, a π-certified execute certificate proving that
// shard answered its prepare with "PREPARED" (or had already committed).
// Abort requires a certificate proving some participant REFUSED — so a
// lying coordinator can neither commit a transaction a shard refused nor
// abort one every shard accepted: the two evidence classes cannot both
// exist for one txid.
//
// Refusals are STICKY: a prepare that cannot lock (conflict, bad write,
// wrong shard) permanently aborts the txid on this shard before the
// refusal result is emitted. Without stickiness a coordinator could farm
// a CONFLICT certificate, retry the prepare until it succeeded, and hold
// both abort and commit evidence for the same transaction.
//
// All 2PC state (prepared records, per-key locks, decision markers)
// lives IN the authenticated state map under a reserved "\x00tx/" key
// prefix, written through the snapshot tracker like any user key: state
// digests, checkpoints, state transfer and restarts cover the protocol
// state with no extra machinery, and replicas agree on it byte for byte.
const (
	// OpTxPrepare locks and stages a transaction's writes on one shard.
	// The Op.Key field carries the transaction id.
	OpTxPrepare OpKind = iota + 5
	// OpTxCommit applies a staged transaction after verifying the other
	// participants' prepare certificates.
	OpTxCommit
	// OpTxAbort discards a staged transaction on refusal evidence.
	OpTxAbort
)

// Transaction result values. PREPARED/COMMITTED results are commit
// evidence; ABORTED/CONFLICT results are abort evidence; ERR results are
// evidence of nothing (deterministic rejections of invalid requests).
const (
	TxPrepared  = "PREPARED"
	TxCommitted = "COMMITTED"
	TxAborted   = "ABORTED"
)

// reserved key layout of the 2PC state.
const (
	txRecPrefix  = "\x00tx/p/" // prepared record: txid → prepare payload
	txLockPrefix = "\x00tx/l/" // write lock: user key → txid
	txDonePrefix = "\x00tx/d/" // decision marker: txid → "c" | "a"
)

func txRecKey(txid string) string  { return txRecPrefix + txid }
func txLockKey(key string) string  { return txLockPrefix + key }
func txDoneKey(txid string) string { return txDonePrefix + txid }

// reservedKey reports whether a key is in the store's internal namespace
// (user operations on it are refused deterministically).
func reservedKey(key string) bool { return len(key) > 0 && key[0] == 0 }

// CertVerifier checks an opaque execute certificate allegedly from
// another shard's SBFT group. wantPrepared selects the evidence class:
// true demands proof the shard answered txid's prepare with
// PREPARED/COMMITTED (commit evidence); false demands proof it answered
// with a refusal — CONFLICT or ABORTED (abort evidence). The sharded
// deployment layer supplies an implementation wired to every group's π
// public key (internal/shard); it must be deterministic, since it runs
// inside execution on every replica of the verifying shard.
type CertVerifier func(shard int, txid string, wantPrepared bool, cert []byte) error

// RouteKey maps a key to its owning shard among k groups, with the same
// FNV-1a discipline as the snapshot bucketing (snapcodec.BucketOf): a
// pure function of the key bytes every replica and client agrees on.
func RouteKey(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	return snapcodec.BucketOf(key, shards)
}

// EnableSharding makes the store shard `shard` of a k-group deployment:
// user operations on keys routing elsewhere are refused
// deterministically, and verify becomes the commit rule's certificate
// check for the other shards' prepare/refusal evidence. All replicas of
// the group must be configured identically before sequence 1.
func (s *Store) EnableSharding(shard, shards int, verify CertVerifier) {
	s.shardID = shard
	s.shards = shards
	s.certVerify = verify
}

// TxStats implements core.TwoPhaser: cumulative prepares staged, commits
// applied and aborts applied since process start.
func (s *Store) TxStats() (prepares, commits, aborts uint64) {
	return s.txPrepares, s.txCommits, s.txAborts
}

// ownsKey reports whether this store's shard owns key.
func (s *Store) ownsKey(key string) bool {
	return s.shards <= 1 || RouteKey(key, s.shards) == s.shardID
}

// userKeyError validates a user operation's key: reserved-namespace and
// foreign-shard keys are refused, and writes to locked keys are parked
// until the lock holder commits or aborts. Returns nil when the
// operation may proceed.
func (s *Store) userKeyError(key string, write bool) []byte {
	if reservedKey(key) {
		return []byte("ERR:reserved-key")
	}
	if !s.ownsKey(key) {
		return []byte("ERR:wrong-shard")
	}
	if write {
		if _, locked := s.Get(txLockKey(key)); locked {
			return []byte("ERR:locked")
		}
	}
	return nil
}

// TxPrepare encodes a prepare op: txid, the full (deduplicated, sorted)
// participant shard list, and this shard's staged writes (encoded Put or
// Delete ops).
func TxPrepare(txid string, participants []int, writes ...[]byte) []byte {
	parts := dedupShards(participants)
	var payload []byte
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(parts)))
	for _, p := range parts {
		payload = binary.BigEndian.AppendUint32(payload, uint32(p))
	}
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(writes)))
	for _, w := range writes {
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(w)))
		payload = append(payload, w...)
	}
	return Op{Kind: OpTxPrepare, Key: txid, Value: payload}.Encode()
}

// TxCommit encodes a commit op carrying, for each OTHER participant
// shard, its prepare certificate (encoding is canonical: sorted by
// shard, so retried commits stay byte-identical).
func TxCommit(txid string, certs map[int][]byte) []byte {
	shards := make([]int, 0, len(certs))
	for sh := range certs {
		shards = append(shards, sh)
	}
	sort.Ints(shards)
	var payload []byte
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(shards)))
	for _, sh := range shards {
		payload = binary.BigEndian.AppendUint32(payload, uint32(sh))
		payload = binary.BigEndian.AppendUint32(payload, uint32(len(certs[sh])))
		payload = append(payload, certs[sh]...)
	}
	return Op{Kind: OpTxCommit, Key: txid, Value: payload}.Encode()
}

// TxAbort encodes an abort op carrying one refusal certificate from the
// shard that refused the transaction.
func TxAbort(txid string, refuser int, cert []byte) []byte {
	var payload []byte
	payload = binary.BigEndian.AppendUint32(payload, uint32(refuser))
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(cert)))
	payload = append(payload, cert...)
	return Op{Kind: OpTxAbort, Key: txid, Value: payload}.Encode()
}

// dedupShards sorts and deduplicates a participant list (a transaction
// naming the same shard twice is a single participation).
func dedupShards(shards []int) []int {
	out := append([]int(nil), shards...)
	sort.Ints(out)
	w := 0
	for i, sh := range out {
		if i == 0 || sh != out[w-1] {
			out[w] = sh
			w++
		}
	}
	return out[:w]
}

func decodePreparePayload(payload []byte) (parts []int, writes [][]byte, err error) {
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("%w: short prepare", ErrBadOp)
	}
	np := binary.BigEndian.Uint32(payload[:4])
	payload = payload[4:]
	if uint64(len(payload)) < uint64(np)*4 {
		return nil, nil, fmt.Errorf("%w: truncated participants", ErrBadOp)
	}
	parts = make([]int, np)
	for i := range parts {
		parts[i] = int(binary.BigEndian.Uint32(payload[:4]))
		payload = payload[4:]
	}
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("%w: short prepare writes", ErrBadOp)
	}
	nw := binary.BigEndian.Uint32(payload[:4])
	payload = payload[4:]
	writes = make([][]byte, 0, nw)
	for i := uint32(0); i < nw; i++ {
		if len(payload) < 4 {
			return nil, nil, fmt.Errorf("%w: truncated prepare writes", ErrBadOp)
		}
		l := binary.BigEndian.Uint32(payload[:4])
		payload = payload[4:]
		if uint32(len(payload)) < l {
			return nil, nil, fmt.Errorf("%w: truncated prepare write", ErrBadOp)
		}
		writes = append(writes, payload[:l])
		payload = payload[l:]
	}
	if len(payload) != 0 {
		return nil, nil, fmt.Errorf("%w: trailing prepare bytes", ErrBadOp)
	}
	return parts, writes, nil
}

func decodeCommitPayload(payload []byte) (map[int][]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: short commit", ErrBadOp)
	}
	n := binary.BigEndian.Uint32(payload[:4])
	payload = payload[4:]
	certs := make(map[int][]byte, n)
	for i := uint32(0); i < n; i++ {
		if len(payload) < 8 {
			return nil, fmt.Errorf("%w: truncated commit certs", ErrBadOp)
		}
		sh := int(binary.BigEndian.Uint32(payload[:4]))
		l := binary.BigEndian.Uint32(payload[4:8])
		payload = payload[8:]
		if uint32(len(payload)) < l {
			return nil, fmt.Errorf("%w: truncated commit cert", ErrBadOp)
		}
		certs[sh] = payload[:l]
		payload = payload[l:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: trailing commit bytes", ErrBadOp)
	}
	return certs, nil
}

func decodeAbortPayload(payload []byte) (refuser int, cert []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("%w: short abort", ErrBadOp)
	}
	refuser = int(binary.BigEndian.Uint32(payload[:4]))
	l := binary.BigEndian.Uint32(payload[4:8])
	payload = payload[8:]
	if uint32(len(payload)) != l {
		return 0, nil, fmt.Errorf("%w: truncated abort cert", ErrBadOp)
	}
	return refuser, payload, nil
}

// refuse permanently aborts txid on this shard and returns the refusal
// result. Stickiness is the soundness core of the evidence scheme: once
// any replica set of this shard has issued a CONFLICT certificate for
// txid, no later prepare may succeed — otherwise commit evidence and
// abort evidence for the same transaction could both exist.
func (s *Store) refuse(txid, reason string) []byte {
	s.Set(txDoneKey(txid), []byte("a"))
	return []byte("CONFLICT:" + reason)
}

// applyTxPrepare executes the prepare phase on this shard.
func (s *Store) applyTxPrepare(op Op) []byte {
	txid := op.Key
	if txid == "" {
		return []byte("ERR:empty-txid")
	}
	if done, ok := s.Get(txDoneKey(txid)); ok {
		if string(done) == "c" {
			return []byte(TxCommitted)
		}
		return []byte(TxAborted)
	}
	if rec, ok := s.Get(txRecKey(txid)); ok {
		// Idempotent re-prepare: coordinators (original or recovery)
		// resubmit prepares to refetch lost certificates. A DIFFERENT
		// payload under the same txid is neither acceptance nor refusal —
		// answering CONFLICT while the original prepare holds locks would
		// mint abort evidence against a prepared transaction.
		if bytes.Equal(rec, op.Value) {
			return []byte(TxPrepared)
		}
		return []byte("ERR:tx-mismatch")
	}
	parts, writes, err := decodePreparePayload(op.Value)
	if err != nil {
		return s.refuse(txid, "malformed")
	}
	parts = dedupShards(parts)
	if len(parts) == 0 {
		return s.refuse(txid, "no-participants")
	}
	if s.shards > 0 {
		member := false
		for _, p := range parts {
			if p == s.shardID {
				member = true
			}
			if p < 0 || p >= s.shards {
				return s.refuse(txid, "bad-participant")
			}
		}
		if !member {
			return s.refuse(txid, "not-participant")
		}
	}
	for _, w := range writes {
		wo, err := DecodeOp(w)
		if err != nil || (wo.Kind != OpPut && wo.Kind != OpDelete) {
			return s.refuse(txid, "bad-write")
		}
		if reservedKey(wo.Key) {
			return s.refuse(txid, "reserved-key")
		}
		if !s.ownsKey(wo.Key) {
			return s.refuse(txid, "wrong-shard")
		}
		if holder, locked := s.Get(txLockKey(wo.Key)); locked && string(holder) != txid {
			return s.refuse(txid, "locked")
		}
	}
	// All checks passed: stage the record and take the locks.
	s.Set(txRecKey(txid), append([]byte(nil), op.Value...))
	for _, w := range writes {
		wo, _ := DecodeOp(w)
		s.Set(txLockKey(wo.Key), []byte(txid))
	}
	s.txPrepares++
	return []byte(TxPrepared)
}

// applyTxCommit executes the commit phase: the certificate-verifying
// commit rule. The staged writes apply ONLY if every other participant's
// certificate proves that shard prepared (or already committed) txid.
func (s *Store) applyTxCommit(op Op) []byte {
	txid := op.Key
	if txid == "" {
		return []byte("ERR:empty-txid")
	}
	if done, ok := s.Get(txDoneKey(txid)); ok {
		if string(done) == "c" {
			return []byte(TxCommitted) // idempotent retry
		}
		return []byte("ERR:aborted")
	}
	rec, ok := s.Get(txRecKey(txid))
	if !ok {
		return []byte("ERR:not-prepared")
	}
	certs, err := decodeCommitPayload(op.Value)
	if err != nil {
		return []byte("ERR:malformed")
	}
	parts, writes, err := decodePreparePayload(rec)
	if err != nil {
		return []byte("ERR:corrupt-record")
	}
	for _, p := range dedupShards(parts) {
		if p == s.shardID {
			continue // our own prepare is the local record itself
		}
		cert, ok := certs[p]
		if !ok {
			return []byte("ERR:missing-cert")
		}
		if s.certVerify == nil {
			return []byte("ERR:no-verifier")
		}
		if err := s.certVerify(p, txid, true, cert); err != nil {
			return []byte("ERR:bad-cert")
		}
	}
	// Commit: release locks, apply staged writes, record the decision.
	for _, w := range writes {
		wo, _ := DecodeOp(w)
		s.Delete(txLockKey(wo.Key))
		switch wo.Kind {
		case OpPut:
			s.Set(wo.Key, wo.Value)
		case OpDelete:
			s.Delete(wo.Key)
		}
	}
	s.Delete(txRecKey(txid))
	s.Set(txDoneKey(txid), []byte("c"))
	s.txCommits++
	return []byte(TxCommitted)
}

// applyTxAbort discards a transaction on refusal evidence: a certificate
// proving some participant answered txid's prepare with a refusal. An
// invalid certificate is rejected deterministically — this is exactly
// what stops an equivocating coordinator from aborting on one shard a
// transaction it commits on another.
func (s *Store) applyTxAbort(op Op) []byte {
	txid := op.Key
	if txid == "" {
		return []byte("ERR:empty-txid")
	}
	if done, ok := s.Get(txDoneKey(txid)); ok {
		if string(done) == "a" {
			return []byte(TxAborted) // idempotent retry
		}
		return []byte("ERR:committed")
	}
	refuser, cert, err := decodeAbortPayload(op.Value)
	if err != nil {
		return []byte("ERR:malformed")
	}
	if s.certVerify == nil {
		return []byte("ERR:no-verifier")
	}
	if err := s.certVerify(refuser, txid, false, cert); err != nil {
		return []byte("ERR:bad-cert")
	}
	if rec, ok := s.Get(txRecKey(txid)); ok {
		if _, writes, err := decodePreparePayload(rec); err == nil {
			for _, w := range writes {
				if wo, err := DecodeOp(w); err == nil {
					s.Delete(txLockKey(wo.Key))
				}
			}
		}
		s.Delete(txRecKey(txid))
	}
	s.Set(txDoneKey(txid), []byte("a"))
	s.txAborts++
	return []byte(TxAborted)
}

// PreparedVal reports whether an execute result value is commit
// evidence: the shard prepared (or already committed) the transaction.
func PreparedVal(val []byte) bool {
	v := string(val)
	return v == TxPrepared || v == TxCommitted
}

// RefusalVal reports whether an execute result value is abort evidence:
// the shard refused or permanently aborted the transaction.
func RefusalVal(val []byte) bool {
	v := string(val)
	return v == TxAborted || strings.HasPrefix(v, "CONFLICT:")
}

// TxState reports this shard's local decision for txid: "committed",
// "aborted", "prepared" (staged, undecided) or "none".
func (s *Store) TxState(txid string) string {
	if done, ok := s.Get(txDoneKey(txid)); ok {
		if string(done) == "c" {
			return "committed"
		}
		return "aborted"
	}
	if _, ok := s.Get(txRecKey(txid)); ok {
		return "prepared"
	}
	return "none"
}

// LockedKeys returns the user keys currently under a prepared-write
// lock, sorted — the harness auditor's lock-leak probe.
func (s *Store) LockedKeys() []string {
	var keys []string
	for _, k := range s.Keys() {
		if strings.HasPrefix(k, txLockPrefix) {
			keys = append(keys, strings.TrimPrefix(k, txLockPrefix))
		}
	}
	sort.Strings(keys)
	return keys
}

// PendingTxs returns txids staged on this shard but not yet decided,
// sorted.
func (s *Store) PendingTxs() []string {
	var ids []string
	for _, k := range s.Keys() {
		if strings.HasPrefix(k, txRecPrefix) {
			ids = append(ids, strings.TrimPrefix(k, txRecPrefix))
		}
	}
	sort.Strings(ids)
	return ids
}
