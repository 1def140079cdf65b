package evm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"sbft/internal/kvstore"
	"sbft/internal/snapcodec"
)

// TxKind distinguishes the two Ethereum transaction types the paper models
// (§IV): contract creation and contract execution.
type TxKind uint8

// Transaction kinds.
const (
	TxCreate TxKind = iota + 1
	TxCall
	// TxBalance is a read-only balance query: executed through the
	// ordering path it returns the balance bytes in the receipt, and
	// being side-effect-free it is also servable as a certified
	// single-replica read (ReadKey maps it to the balance state key).
	TxBalance
)

// Tx is one ledger transaction.
type Tx struct {
	Kind     TxKind
	From     Address
	To       Address // ignored for TxCreate
	Value    uint64
	GasLimit uint64
	Data     []byte // init code (create) or calldata (call)
}

// ErrBadTx is returned when decoding a malformed transaction.
var ErrBadTx = errors.New("evm: malformed transaction")

// Encode serializes the transaction.
func (tx Tx) Encode() []byte {
	buf := make([]byte, 0, 1+20+20+8+8+4+len(tx.Data))
	buf = append(buf, byte(tx.Kind))
	buf = append(buf, tx.From[:]...)
	buf = append(buf, tx.To[:]...)
	buf = binary.BigEndian.AppendUint64(buf, tx.Value)
	buf = binary.BigEndian.AppendUint64(buf, tx.GasLimit)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(tx.Data)))
	buf = append(buf, tx.Data...)
	return buf
}

// DecodeTx parses an encoded transaction.
func DecodeTx(data []byte) (Tx, error) {
	const hdr = 1 + 20 + 20 + 8 + 8 + 4
	if len(data) < hdr {
		return Tx{}, fmt.Errorf("%w: %d bytes", ErrBadTx, len(data))
	}
	var tx Tx
	tx.Kind = TxKind(data[0])
	if tx.Kind != TxCreate && tx.Kind != TxCall && tx.Kind != TxBalance {
		return Tx{}, fmt.Errorf("%w: kind %d", ErrBadTx, tx.Kind)
	}
	copy(tx.From[:], data[1:21])
	copy(tx.To[:], data[21:41])
	tx.Value = binary.BigEndian.Uint64(data[41:49])
	tx.GasLimit = binary.BigEndian.Uint64(data[49:57])
	dlen := binary.BigEndian.Uint32(data[57:61])
	if uint32(len(data)-hdr) != dlen {
		return Tx{}, fmt.Errorf("%w: data length %d, have %d", ErrBadTx, dlen, len(data)-hdr)
	}
	tx.Data = append([]byte(nil), data[hdr:]...)
	return tx, nil
}

// Receipt is the result of executing one transaction.
type Receipt struct {
	OK       bool
	Reverted bool
	GasUsed  uint64
	Ret      []byte
	Created  Address // set for successful creations
	Err      string  // deterministic error class, empty on success
}

// Encode serializes the receipt (the per-operation "val" in the paper's
// execute-ack). The encoding is canonical fixed framing, NOT gob:
// receipt bytes land in the certified last-reply table and in block
// records compared across replicas, so they must be identical in every
// process (gob embeds process-global type ids).
func (r Receipt) Encode() []byte {
	var flags byte
	if r.OK {
		flags |= 1
	}
	if r.Reverted {
		flags |= 2
	}
	buf := make([]byte, 0, 8+1+8+8+len(r.Ret)+len(r.Created)+8+len(r.Err))
	buf = append(buf, "evmrcpt1"...)
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, r.GasUsed)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(r.Ret)))
	buf = append(buf, r.Ret...)
	buf = append(buf, r.Created[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(r.Err)))
	buf = append(buf, r.Err...)
	return buf
}

// DecodeReceipt parses an encoded receipt.
func DecodeReceipt(data []byte) (Receipt, error) {
	const magic = "evmrcpt1"
	if len(data) < len(magic)+1+8+8 || string(data[:len(magic)]) != magic {
		return Receipt{}, fmt.Errorf("evm: bad receipt framing")
	}
	data = data[len(magic):]
	var r Receipt
	flags := data[0]
	r.OK, r.Reverted = flags&1 != 0, flags&2 != 0
	data = data[1:]
	r.GasUsed = binary.BigEndian.Uint64(data)
	data = data[8:]
	retLen := binary.BigEndian.Uint64(data)
	data = data[8:]
	if retLen > uint64(len(data)) {
		return Receipt{}, fmt.Errorf("evm: truncated receipt ret")
	}
	if retLen > 0 {
		r.Ret = append([]byte(nil), data[:retLen]...)
	}
	data = data[retLen:]
	if len(data) < len(r.Created)+8 {
		return Receipt{}, fmt.Errorf("evm: truncated receipt")
	}
	copy(r.Created[:], data[:len(r.Created)])
	data = data[len(r.Created):]
	errLen := binary.BigEndian.Uint64(data)
	data = data[8:]
	if errLen != uint64(len(data)) {
		return Receipt{}, fmt.Errorf("evm: bad receipt error length")
	}
	r.Err = string(data)
	return r, nil
}

// stateTag is the domain of the ledger's state digests.
const stateTag = "sbft:evm-state"

// Ledger is the replica-side smart-contract application: the VM over the
// same kvstore.AuthState the key-value store stands on, so digests,
// per-transaction proofs, snapshots and state transfer are that type's and
// the ledger plugs into the same replication engine (§IV layering).
type Ledger struct {
	*kvstore.AuthState
	state *MapState
}

// NewLedger returns an empty contract ledger.
func NewLedger() *Ledger {
	a := kvstore.NewAuthState(stateTag, snapcodec.DefaultBuckets)
	return &Ledger{AuthState: a, state: NewMapState(a)}
}

// Mint credits an account balance outside consensus, for genesis setup in
// tests, examples and workload generation. All replicas must apply the
// same genesis before sequence 1.
func (l *Ledger) Mint(a Address, amount uint64) {
	l.state.SetBalance(a, new(big.Int).Add(l.state.GetBalance(a), new(big.Int).SetUint64(amount)))
	l.state.DiscardJournal()
	l.ResealGenesis()
}

// GenesisCreate deploys a contract outside consensus (genesis block). All
// replicas must apply identical genesis operations before sequence 1.
func (l *Ledger) GenesisCreate(from Address, initCode []byte, gas uint64) (Address, error) {
	vm := NewVM(l.state, Context{GasLimit: gas})
	addr, res, err := vm.Create(from, nil, initCode, gas)
	l.state.DiscardJournal()
	l.ResealGenesis()
	if err != nil {
		return Address{}, fmt.Errorf("evm: genesis create: %w", err)
	}
	if res.Reverted {
		return Address{}, fmt.Errorf("evm: genesis create reverted")
	}
	return addr, nil
}

// Storage reads a contract storage word.
func (l *Ledger) Storage(a Address, k Word) Word { return l.state.GetStorage(a, k) }

// Code reads installed contract code.
func (l *Ledger) Code(a Address) []byte { return l.state.GetCode(a) }

// applyTx executes one transaction, returning its receipt. Failed
// transactions roll back their state effects but still consume a slot in
// the block (deterministically), as in Ethereum.
func (l *Ledger) applyTx(seq uint64, raw []byte) Receipt {
	tx, err := DecodeTx(raw)
	if err != nil {
		return Receipt{Err: "malformed"}
	}
	vm := NewVM(l.state, Context{BlockNum: seq, GasLimit: tx.GasLimit})
	value := new(big.Int).SetUint64(tx.Value)
	switch tx.Kind {
	case TxCreate:
		addr, res, err := vm.Create(tx.From, value, tx.Data, tx.GasLimit)
		if err != nil {
			return Receipt{GasUsed: res.GasUsed, Err: errClass(err)}
		}
		if res.Reverted {
			return Receipt{GasUsed: res.GasUsed, Reverted: true, Ret: res.Ret}
		}
		return Receipt{OK: true, GasUsed: res.GasUsed, Created: addr, Ret: res.Ret}
	case TxCall:
		res, err := vm.Call(tx.From, tx.To, value, tx.Data, tx.GasLimit)
		if err != nil {
			return Receipt{GasUsed: res.GasUsed, Err: errClass(err)}
		}
		if res.Reverted {
			return Receipt{GasUsed: res.GasUsed, Reverted: true, Ret: res.Ret}
		}
		return Receipt{OK: true, GasUsed: res.GasUsed, Ret: res.Ret}
	case TxBalance:
		// Side-effect-free: the receipt returns the raw big-endian balance
		// bytes of To — the same bytes the balance state key holds, so the
		// ordering path and the certified read path agree on the value.
		return Receipt{OK: true, Ret: l.state.GetBalance(tx.To).Bytes()}
	default:
		return Receipt{Err: "malformed"}
	}
}

// BalanceQuery encodes a TxBalance read of an account.
func BalanceQuery(addr Address) []byte {
	return Tx{Kind: TxBalance, To: addr}.Encode()
}

// ReadKey maps an encoded transaction to the state key a certified read
// serves (core.KeyReader): defined only for the side-effect-free
// TxBalance. The key is the ledger's balance slot for the queried
// account; a zero balance is stored as an absent key, which the verified
// bucket chunk authenticates as such.
func ReadKey(op []byte) (string, error) {
	tx, err := DecodeTx(op)
	if err != nil {
		return "", err
	}
	if tx.Kind != TxBalance {
		return "", fmt.Errorf("evm: tx kind %d is not a certified read", tx.Kind)
	}
	return addrKey("b", tx.To), nil
}

// ReadKey implements core.KeyReader for direct Ledger embedding.
func (l *Ledger) ReadKey(op []byte) (string, error) { return ReadKey(op) }

// errClass maps VM errors to deterministic receipt strings (error text must
// be identical across replicas; we never embed addresses or values).
func errClass(err error) string {
	switch {
	case errors.Is(err, ErrOutOfGas):
		return "out-of-gas"
	case errors.Is(err, ErrInsufficient):
		return "insufficient-balance"
	case errors.Is(err, ErrBadJump):
		return "bad-jump"
	case errors.Is(err, ErrInvalidOpcode):
		return "invalid-opcode"
	case errors.Is(err, ErrStackUnderflow), errors.Is(err, ErrStackOverflow):
		return "stack-fault"
	case errors.Is(err, ErrCallDepth):
		return "call-depth"
	case errors.Is(err, ErrMemoryLimit):
		return "memory-limit"
	case errors.Is(err, ErrCodeSize):
		return "code-size"
	default:
		return "vm-error"
	}
}

// ExecuteBlock applies a block of encoded transactions in order and
// returns encoded receipts, one per transaction.
func (l *Ledger) ExecuteBlock(seq uint64, ops [][]byte) [][]byte {
	return l.Execute(seq, ops, func(raw []byte) []byte {
		rcpt := l.applyTx(seq, raw)
		l.state.DiscardJournal()
		return rcpt.Encode()
	})
}

// Verify is kvstore.VerifyProof for smart-contract clients.
func Verify(digest []byte, op, val []byte, seq uint64, idx int, p kvstore.Proof) error {
	return kvstore.VerifyProof(stateTag, digest, op, val, seq, idx, p)
}
