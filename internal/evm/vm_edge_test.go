package evm

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"sbft/internal/merkle"
)

func TestByteOpcodeEdges(t *testing.T) {
	tests := []struct {
		name string
		i    uint64
		want uint64
	}{
		{"msb", 0, 0},     // most significant byte of 0xAB (32-byte value) is 0
		{"lsb", 31, 0xAB}, // least significant byte
		{"out of range", 32, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := NewAsm().Push(0xAB) // value
			a.Push(tt.i).Op(BYTE)    // BYTE(i, value)
			res := runCode(t, retTop(a), nil)
			wantWord(t, res.Ret, tt.want)
		})
	}
}

func TestSignExtend(t *testing.T) {
	// SIGNEXTEND(0, 0xFF) → -1 (sign bit of byte 0 set).
	a := NewAsm().Push(0xFF).Push(0).Op(SIGNEXTEND)
	res := runCode(t, retTop(a), nil)
	all := bytes.Repeat([]byte{0xFF}, 32)
	if !bytes.Equal(res.Ret, all) {
		t.Fatalf("SIGNEXTEND(0, 0xFF) = %x, want all-FF", res.Ret)
	}
	// SIGNEXTEND(0, 0x7F) → 0x7F (sign bit clear).
	b := NewAsm().Push(0x7F).Push(0).Op(SIGNEXTEND)
	res = runCode(t, retTop(b), nil)
	wantWord(t, res.Ret, 0x7F)
	// Out-of-range byte index leaves the value untouched.
	c := NewAsm().Push(0xABCD).Push(40).Op(SIGNEXTEND)
	res = runCode(t, retTop(c), nil)
	wantWord(t, res.Ret, 0xABCD)
}

func TestShiftBeyondWidth(t *testing.T) {
	a := NewAsm().Push(1).Push(256).Op(SHL) // shift ≥ 256 → 0
	res := runCode(t, retTop(a), nil)
	wantWord(t, res.Ret, 0)
	b := NewAsm().Push(1).Push(300).Op(SHR)
	res = runCode(t, retTop(b), nil)
	wantWord(t, res.Ret, 0)
}

func TestMemoryLimitEnforced(t *testing.T) {
	vm, st := newTestVM()
	self := addr(0xCC)
	// MSTORE far beyond MaxMemory must fail, not allocate gigabytes.
	a := NewAsm()
	a.Push(1).PushBig(new(big.Int).Lsh(big.NewInt(1), 40)).Op(MSTORE)
	st.SetCode(self, a.MustBuild())
	_, err := vm.Call(addr(1), self, nil, nil, 100_000_000)
	if !errors.Is(err, ErrMemoryLimit) && !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("err=%v, want memory limit or OOG", err)
	}
}

func TestGasAccountingMonotone(t *testing.T) {
	// A longer loop must consume more gas.
	run := func(n uint64) uint64 {
		vm, st := newTestVM()
		self := addr(0xCC)
		st.SetCode(self, ChurnRuntime())
		res, err := vm.Call(addr(1), self, nil, ChurnCalldata(n), 10_000_000)
		if err != nil || res.Reverted {
			t.Fatalf("churn(%d): %v", n, err)
		}
		return res.GasUsed
	}
	g4, g16 := run(4), run(16)
	if g16 <= g4 {
		t.Fatalf("gas not monotone: churn(16)=%d ≤ churn(4)=%d", g16, g4)
	}
}

func TestCreateInsideContract(t *testing.T) {
	vm, st := newTestVM()
	// A factory that CREATEs the churn contract (init code arrives as
	// calldata) and returns the new address.
	deploy := ChurnDeploy()
	f2 := NewAsm()
	f2.Op(CALLDATASIZE).Push(0).Push(0).Op(CALLDATACOPY) // mem[0:len] = calldata
	f2.Op(CALLDATASIZE).Push(0).Push(0).Op(CREATE)       // CREATE(value=0, off=0, size)
	code := retTop(f2)
	self := addr(0xFA)
	st.SetCode(self, code)
	res, err := vm.Call(addr(1), self, nil, deploy, 10_000_000)
	if err != nil || res.Reverted {
		t.Fatalf("factory call: %v reverted=%v", err, res.Reverted)
	}
	created := AddressFromBytes(res.Ret[12:32])
	if len(st.GetCode(created)) == 0 {
		t.Fatal("factory-created contract has no code")
	}
}

func TestRevertReturnsPayload(t *testing.T) {
	vm, st := newTestVM()
	self := addr(0xCC)
	a := NewAsm()
	a.Push(0xDEAD).Push(0).Op(MSTORE)
	a.Push(32).Push(0).Op(REVERT)
	st.SetCode(self, a.MustBuild())
	res, err := vm.Call(addr(1), self, nil, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reverted {
		t.Fatal("not reverted")
	}
	if new(big.Int).SetBytes(res.Ret).Uint64() != 0xDEAD {
		t.Fatalf("revert payload = %x", res.Ret)
	}
}

func TestMulmodLargeOperands(t *testing.T) {
	// MULMOD must compute over the full product, not the truncated one.
	big1 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	a := NewAsm()
	a.Push(7)       // modulus (pushed first, popped last)
	a.PushBig(big1) // b
	a.PushBig(big1) // a
	a.Op(MULMOD)
	res := runCode(t, retTop(a), nil)
	want := new(big.Int).Mul(big1, big1)
	want.Mod(want, big.NewInt(7))
	if new(big.Int).SetBytes(res.Ret).Cmp(want) != 0 {
		t.Fatalf("MULMOD = %x, want %v", res.Ret, want)
	}
}

func TestStateJournalRevertNested(t *testing.T) {
	st := NewMapState(bareMap{merkle.NewMap()})
	a1 := addr(0x01)
	st.SetBalance(a1, big.NewInt(100))
	outer := st.Snapshot()
	st.SetBalance(a1, big.NewInt(200))
	inner := st.Snapshot()
	st.SetBalance(a1, big.NewInt(300))
	st.SetStorage(a1, WordFromUint64(1), WordFromUint64(42))
	st.RevertTo(inner)
	if st.GetBalance(a1).Int64() != 200 {
		t.Fatalf("inner revert: balance %v", st.GetBalance(a1))
	}
	if st.GetStorage(a1, WordFromUint64(1)) != (Word{}) {
		t.Fatal("inner revert left storage")
	}
	st.RevertTo(outer)
	if st.GetBalance(a1).Int64() != 100 {
		t.Fatalf("outer revert: balance %v", st.GetBalance(a1))
	}
}
