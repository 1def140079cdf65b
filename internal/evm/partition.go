package evm

import (
	"strings"

	"sbft/internal/snapcodec"
)

// Keyspace partitioning for sharded deployments (ROADMAP item 5).
//
// The ledger partitions by ACCOUNT: every world-state key embeds exactly
// one account token (the hex address segment after the first '/'), and
// an account's balance, nonce, code and storage all route to the same
// shard — a single-account transaction touches one partition. The guard
// installed on the MapState rejects writes to foreign accounts, the
// per-transaction revert in ExecuteBlock turns any rejection into a
// whole-transaction rollback with a deterministic error receipt, and the
// lock set lets a future cross-shard commit protocol park accounts while
// a distributed transaction is in flight. Full proof-carrying 2PC over
// EVM transactions (the kvstore tx.go treatment) is documented future
// work; this layer provides the partition discipline it will sit on.

// Deterministic receipt error classes for guard violations.
const (
	ErrClassWrongShard = "wrong-shard"
	ErrClassLocked     = "locked"
)

type guardError string

func (e guardError) Error() string { return string(e) }

// AccountToken extracts the account routing token from a world-state key:
// the hex address between the first and second '/' (or end of key). Keys
// without a '/' route by their full text (defensive; the ledger never
// writes such keys).
func AccountToken(key string) string {
	i := strings.IndexByte(key, '/')
	if i < 0 {
		return key
	}
	rest := key[i+1:]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		return rest[:j]
	}
	return rest
}

// RouteAccount maps an account to its owning shard among k groups, with
// the same FNV-1a discipline as kvstore.RouteKey: a pure function every
// replica and client agrees on.
func RouteAccount(a Address, shards int) int {
	if shards <= 1 {
		return 0
	}
	return snapcodec.BucketOf(hexStr(a[:]), shards)
}

// Partition makes the ledger shard `shard` of a k-group deployment:
// transactions writing any foreign account roll back with a
// "wrong-shard" receipt. All replicas of the group must be configured
// identically before sequence 1, and AFTER genesis (genesis mints of
// foreign accounts would otherwise be refused). shards <= 1 removes the
// partition (locks remain enforced).
func (l *Ledger) Partition(shard, shards int) {
	l.shardID, l.shards = shard, shards
	l.state.SetGuard(l.guardKey)
}

// LockAccount parks an account: transactions writing it roll back with a
// "locked" receipt until UnlockAccount. The lock set is deterministic
// only if driven identically on every replica of the group — it is the
// in-flight-transaction hook for the future EVM cross-shard commit
// protocol, not client-reachable state (it is not part of snapshots).
func (l *Ledger) LockAccount(a Address) {
	if l.lockedAccounts == nil {
		l.lockedAccounts = make(map[string]bool)
	}
	l.lockedAccounts[hexStr(a[:])] = true
	l.state.SetGuard(l.guardKey)
}

// UnlockAccount releases a parked account.
func (l *Ledger) UnlockAccount(a Address) { delete(l.lockedAccounts, a.hex()) }

func (a Address) hex() string { return hexStr(a[:]) }

// guardKey is the MapState write guard: foreign partition first, then
// the lock set.
func (l *Ledger) guardKey(key string) error {
	tok := AccountToken(key)
	if l.shards > 1 && snapcodec.BucketOf(tok, l.shards) != l.shardID {
		return guardError(ErrClassWrongShard)
	}
	if l.lockedAccounts[tok] {
		return guardError(ErrClassLocked)
	}
	return nil
}
