// Package evm implements the smart-contract execution layer of the SBFT
// blockchain (§IV, §VIII): a deterministic stack-based virtual machine
// executing a substantial subset of EVM bytecode over the authenticated
// state of package kvstore (kvstore.AuthState: digests, proofs, snapshots),
// plus the two Ethereum transaction types the paper models (contract
// creation and contract execution).
//
// Substitutions from the real EVM, documented in DESIGN.md: the hashing
// opcode uses SHA-256 (stdlib) instead of Keccak-256, and gas costs are a
// simplified schedule. Neither affects the replication workload shape: the
// engine performs real 256-bit arithmetic, memory, storage and control
// flow, and every replica reaches the same post-state digest.
package evm

// Opcode is a single EVM instruction.
type Opcode byte

// Supported opcodes. Values match the Ethereum yellow paper so real
// assembly listings map over directly.
const (
	STOP       Opcode = 0x00
	ADD        Opcode = 0x01
	MUL        Opcode = 0x02
	SUB        Opcode = 0x03
	DIV        Opcode = 0x04
	SDIV       Opcode = 0x05
	MOD        Opcode = 0x06
	SMOD       Opcode = 0x07
	ADDMOD     Opcode = 0x08
	MULMOD     Opcode = 0x09
	EXP        Opcode = 0x0a
	SIGNEXTEND Opcode = 0x0b

	LT     Opcode = 0x10
	GT     Opcode = 0x11
	SLT    Opcode = 0x12
	SGT    Opcode = 0x13
	EQ     Opcode = 0x14
	ISZERO Opcode = 0x15
	AND    Opcode = 0x16
	OR     Opcode = 0x17
	XOR    Opcode = 0x18
	NOT    Opcode = 0x19
	BYTE   Opcode = 0x1a
	SHL    Opcode = 0x1b
	SHR    Opcode = 0x1c

	SHA3 Opcode = 0x20

	ADDRESS      Opcode = 0x30
	BALANCE      Opcode = 0x31
	CALLER       Opcode = 0x33
	CALLVALUE    Opcode = 0x34
	CALLDATALOAD Opcode = 0x35
	CALLDATASIZE Opcode = 0x36
	CALLDATACOPY Opcode = 0x37
	CODESIZE     Opcode = 0x38
	CODECOPY     Opcode = 0x39

	BLOCKNUM  Opcode = 0x43 // NUMBER
	TIMESTAMP Opcode = 0x42

	POP      Opcode = 0x50
	MLOAD    Opcode = 0x51
	MSTORE   Opcode = 0x52
	MSTORE8  Opcode = 0x53
	SLOAD    Opcode = 0x54
	SSTORE   Opcode = 0x55
	JUMP     Opcode = 0x56
	JUMPI    Opcode = 0x57
	PC       Opcode = 0x58
	MSIZE    Opcode = 0x59
	GAS      Opcode = 0x5a
	JUMPDEST Opcode = 0x5b

	PUSH1  Opcode = 0x60
	PUSH2  Opcode = 0x61
	PUSH32 Opcode = 0x7f
	DUP1   Opcode = 0x80
	DUP2   Opcode = 0x81
	DUP3   Opcode = 0x82
	DUP16  Opcode = 0x8f
	SWAP1  Opcode = 0x90
	SWAP2  Opcode = 0x91
	SWAP16 Opcode = 0x9f

	LOG0 Opcode = 0xa0
	LOG1 Opcode = 0xa1
	LOG2 Opcode = 0xa2
	LOG3 Opcode = 0xa3
	LOG4 Opcode = 0xa4

	CREATE Opcode = 0xf0
	CALL   Opcode = 0xf1
	RETURN Opcode = 0xf3
	REVERT Opcode = 0xfd
)
