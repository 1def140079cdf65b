package evm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"strings"
)

// AddressSize is the byte length of an account address.
const AddressSize = 20

// Address identifies an account or contract.
type Address [AddressSize]byte

// String renders the address as 0x-prefixed hex.
func (a Address) String() string { return fmt.Sprintf("0x%x", a[:]) }

// AddressFromBytes builds an address from the low 20 bytes of b.
func AddressFromBytes(b []byte) Address {
	var a Address
	if len(b) >= AddressSize {
		copy(a[:], b[len(b)-AddressSize:])
	} else {
		copy(a[AddressSize-len(b):], b)
	}
	return a
}

// Word is a 256-bit EVM word.
type Word [32]byte

// Big converts the word to a big.Int.
func (w Word) Big() *big.Int { return new(big.Int).SetBytes(w[:]) }

// WordFromBig truncates a big.Int into a 256-bit word.
func WordFromBig(v *big.Int) Word {
	var w Word
	b := new(big.Int).And(v, u256Mask).Bytes()
	copy(w[32-len(b):], b)
	return w
}

// WordFromUint64 builds a word from a uint64.
func WordFromUint64(v uint64) Word {
	var w Word
	binary.BigEndian.PutUint64(w[24:], v)
	return w
}

var u256Mask = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))

// State is the world-state interface the VM executes against. The ledger
// implementation stores everything in its authenticated state, so the
// certified checkpoint covers the entire contract state (§IV).
type State interface {
	GetBalance(Address) *big.Int
	SetBalance(Address, *big.Int)
	GetNonce(Address) uint64
	SetNonce(Address, uint64)
	GetCode(Address) []byte
	SetCode(Address, []byte)
	GetStorage(Address, Word) Word
	SetStorage(Address, Word, Word)
	// Snapshot and RevertTo implement transaction-level rollback for
	// REVERT and failed calls.
	Snapshot() int
	RevertTo(int)
}

// MapState implements State over a key-value map (the ledger's
// kvstore.AuthState; a bare map behind an adapter in VM tests) with an
// undo journal for snapshots. The journal keeps the copies Get returns. Key layout (all printable
// prefixes for debuggability):
//
//	b/<addr-hex>           balance (big-endian bytes)
//	n/<addr-hex>           nonce (8 bytes)
//	c/<addr-hex>           code
//	s/<addr-hex>/<key-hex> storage word
type MapState struct {
	m       kvMap
	journal []journalEntry
}

type journalEntry struct {
	key     string
	prev    []byte
	existed bool
}

// kvMap is the map a MapState reads and writes.
type kvMap interface {
	Get(key string) ([]byte, bool)
	Set(key string, val []byte)
	Delete(key string)
}

// NewMapState wraps a key-value map as EVM world state.
func NewMapState(m kvMap) *MapState { return &MapState{m: m} }

var _ State = (*MapState)(nil)

func addrKey(prefix string, a Address) string {
	return prefix + "/" + hexStr(a[:])
}

func storageKey(a Address, k Word) string {
	return "s/" + hexStr(a[:]) + "/" + hexStr(k[:])
}

const hexDigits = "0123456789abcdef"

func hexStr(b []byte) string {
	var sb strings.Builder
	sb.Grow(len(b) * 2)
	for _, c := range b {
		sb.WriteByte(hexDigits[c>>4])
		sb.WriteByte(hexDigits[c&0x0f])
	}
	return sb.String()
}

func (s *MapState) set(key string, val []byte) {
	prev, existed := s.m.Get(key)
	s.journal = append(s.journal, journalEntry{key: key, prev: prev, existed: existed})
	s.m.Set(key, val)
}

func (s *MapState) del(key string) {
	prev, existed := s.m.Get(key)
	if !existed {
		return
	}
	s.journal = append(s.journal, journalEntry{key: key, prev: prev, existed: true})
	s.m.Delete(key)
}

// GetBalance implements State.
func (s *MapState) GetBalance(a Address) *big.Int {
	v, ok := s.m.Get(addrKey("b", a))
	if !ok {
		return new(big.Int)
	}
	return new(big.Int).SetBytes(v)
}

// SetBalance implements State.
func (s *MapState) SetBalance(a Address, v *big.Int) {
	if v.Sign() == 0 {
		s.del(addrKey("b", a))
		return
	}
	s.set(addrKey("b", a), v.Bytes())
}

// GetNonce implements State.
func (s *MapState) GetNonce(a Address) uint64 {
	v, ok := s.m.Get(addrKey("n", a))
	if !ok || len(v) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// SetNonce implements State.
func (s *MapState) SetNonce(a Address, n uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], n)
	s.set(addrKey("n", a), buf[:])
}

// GetCode implements State.
func (s *MapState) GetCode(a Address) []byte {
	v, _ := s.m.Get(addrKey("c", a))
	return v
}

// SetCode implements State.
func (s *MapState) SetCode(a Address, code []byte) {
	s.set(addrKey("c", a), code)
}

// GetStorage implements State.
func (s *MapState) GetStorage(a Address, k Word) Word {
	v, ok := s.m.Get(storageKey(a, k))
	var w Word
	if ok {
		copy(w[32-len(v):], v)
	}
	return w
}

// SetStorage implements State.
func (s *MapState) SetStorage(a Address, k, v Word) {
	if v == (Word{}) {
		s.del(storageKey(a, k))
		return
	}
	s.set(storageKey(a, k), trimLeadingZeros(v[:]))
}

func trimLeadingZeros(b []byte) []byte {
	i := 0
	for i < len(b)-1 && b[i] == 0 {
		i++
	}
	return b[i:]
}

// Snapshot implements State: returns a journal mark.
func (s *MapState) Snapshot() int { return len(s.journal) }

// RevertTo implements State: undoes all writes after the mark.
func (s *MapState) RevertTo(mark int) {
	for i := len(s.journal) - 1; i >= mark; i-- {
		e := s.journal[i]
		if e.existed {
			s.m.Set(e.key, e.prev)
		} else {
			s.m.Delete(e.key)
		}
	}
	s.journal = s.journal[:mark]
}

// DiscardJournal clears the undo log (call at transaction boundaries once
// the transaction outcome is final).
func (s *MapState) DiscardJournal() { s.journal = s.journal[:0] }

// ContractAddress derives the address of a contract created by sender with
// the given nonce. The real EVM uses Keccak(rlp(sender, nonce)); we use
// SHA-256 over a fixed encoding (documented substitution).
func ContractAddress(sender Address, nonce uint64) Address {
	h := sha256.New()
	h.Write([]byte("evm:create"))
	h.Write(sender[:])
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	h.Write(nb[:])
	return AddressFromBytes(h.Sum(nil))
}
