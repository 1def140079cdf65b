// Package apps adapts the authenticated key-value store and the EVM smart
// contract ledger to the replication engine's Application interface, and
// provides the matching client-side proof verifiers. Both services stand
// on kvstore.AuthState (§IV layering: generic service → authenticated KV
// store → smart contract engine) and already have the interface's shape;
// what this package adds is the wire encoding of the one proof format.
package apps

import (
	"fmt"

	"sbft/internal/core"
	"sbft/internal/evm"
	"sbft/internal/kvstore"
	"sbft/internal/merkle"
	"sbft/internal/snapcodec"
)

// KVApp is kvstore.Store as a core.Application (plus the optional
// KeyReader extension, which the store implements itself).
type KVApp struct {
	*kvstore.Store
}

// TxStats implements the deprecated core.TwoPhaser with zeros.
//
// Deprecated: the store has no two-phase commit; nothing reads this.
func (a *KVApp) TxStats() (prepares, commits, aborts uint64) { return 0, 0, 0 }

// NewKVApp returns an adapter over a fresh store.
func NewKVApp() *KVApp { return &KVApp{Store: kvstore.New()} }

var _ core.Application = (*KVApp)(nil)

// ProveOperation implements core.Application.
func (a *KVApp) ProveOperation(seq uint64, l int) ([]byte, error) {
	return encodeProof(a.Store.ProveOperation(seq, l))
}

// VerifyKV is the core.ProofVerifier for key-value clients.
func VerifyKV(digest []byte, op, val []byte, seq uint64, l int, proof []byte) error {
	p, err := decodeProof(proof)
	if err != nil {
		return err
	}
	return kvstore.Verify(digest, op, val, seq, l, p)
}

// EVMApp is evm.Ledger as a core.Application (plus KeyReader).
type EVMApp struct {
	*evm.Ledger
}

// NewEVMApp returns an adapter over a fresh ledger.
func NewEVMApp() *EVMApp { return &EVMApp{Ledger: evm.NewLedger()} }

var _ core.Application = (*EVMApp)(nil)

// ProveOperation implements core.Application.
func (a *EVMApp) ProveOperation(seq uint64, l int) ([]byte, error) {
	return encodeProof(a.Ledger.ProveOperation(seq, l))
}

// VerifyEVM is the core.ProofVerifier for smart-contract clients.
func VerifyEVM(digest []byte, op, val []byte, seq uint64, l int, proof []byte) error {
	p, err := decodeProof(proof)
	if err != nil {
		return err
	}
	return evm.Verify(digest, op, val, seq, l, p)
}

// encodeProof writes an operation proof for the execute-ack with the
// snapcodec primitives: Seq, L, Op, Val, the 32 bytes of Prev (the state
// digest before block Seq), then the execution-tree path as
// merkle.AppendProof writes it.
func encodeProof(p kvstore.Proof, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 64+len(p.Op)+len(p.Val)+(merkle.DigestSize+1)*len(p.Path.Steps))
	b = snapcodec.AppendUint(b, p.Seq)
	b = snapcodec.AppendInt(b, p.L)
	b = snapcodec.AppendBytes(b, p.Op)
	b = snapcodec.AppendBytes(b, p.Val)
	b = append(b, p.Prev[:]...)
	return merkle.AppendProof(b, p.Path), nil
}

// decodeProof is encodeProof's inverse; Op and Val alias proof.
func decodeProof(proof []byte) (kvstore.Proof, error) {
	r := snapcodec.NewReader(proof)
	p := kvstore.Proof{Seq: r.Uint(), L: r.Int(), Op: r.Bytes(), Val: r.Bytes()}
	copy(p.Prev[:], r.Fixed(len(p.Prev)))
	p.Path = merkle.ReadProof(&r)
	if err := r.Done(); err != nil {
		return kvstore.Proof{}, fmt.Errorf("apps: decoding proof: %w", err)
	}
	return p, nil
}
