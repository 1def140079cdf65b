package evm

import (
	"bytes"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"sbft/internal/merkle"
)

// bareMap is a bare merkle.Map as a kvMap: VM tests need no snapshot
// tracker mirroring the map, so nothing keeps the copy Set returns.
type bareMap struct{ *merkle.Map }

func (b bareMap) Set(key string, val []byte) { b.Map.Set(key, val) }

func newTestVM() (*VM, *MapState) {
	st := NewMapState(bareMap{merkle.NewMap()})
	return NewVM(st, Context{BlockNum: 1, Timestamp: 1000}), st
}

func addr(b byte) Address {
	var a Address
	a[AddressSize-1] = b
	return a
}

// runCode executes raw code as a contract call frame and returns the result.
func runCode(t *testing.T, code []byte, input []byte) ExecResult {
	t.Helper()
	vm, st := newTestVM()
	self := addr(0xCC)
	st.SetCode(self, code)
	res, err := vm.Call(addr(0x01), self, nil, input, 1_000_000)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	return res
}

func wantWord(t *testing.T, got []byte, want uint64) {
	t.Helper()
	if len(got) != 32 {
		t.Fatalf("return length = %d, want 32", len(got))
	}
	w := WordFromUint64(want)
	if !bytes.Equal(got, w[:]) {
		t.Fatalf("return = %x, want %d", got, want)
	}
}

// retWord builds code that computes with the asm program and returns the
// top of stack as one word.
func retTop(a *Asm) []byte {
	a.Push(0).Op(MSTORE)
	a.Push(32).Push(0).Op(RETURN)
	return a.MustBuild()
}

func TestArithmeticOps(t *testing.T) {
	tests := []struct {
		name string
		prog func() *Asm
		want uint64
	}{
		{"add", func() *Asm { return NewAsm().Push(2).Push(3).Op(ADD) }, 5},
		{"mul", func() *Asm { return NewAsm().Push(7).Push(6).Op(MUL) }, 42},
		{"sub", func() *Asm { return NewAsm().Push(3).Push(10).Op(SUB) }, 7},
		{"div", func() *Asm { return NewAsm().Push(4).Push(20).Op(DIV) }, 5},
		{"div by zero", func() *Asm { return NewAsm().Push(0).Push(20).Op(DIV) }, 0},
		{"mod", func() *Asm { return NewAsm().Push(5).Push(17).Op(MOD) }, 2},
		{"mod by zero", func() *Asm { return NewAsm().Push(0).Push(17).Op(MOD) }, 0},
		{"exp", func() *Asm { return NewAsm().Push(10).Push(2).Op(EXP) }, 1024},
		{"lt true", func() *Asm { return NewAsm().Push(5).Push(3).Op(LT) }, 1},
		{"lt false", func() *Asm { return NewAsm().Push(3).Push(5).Op(LT) }, 0},
		{"gt true", func() *Asm { return NewAsm().Push(3).Push(5).Op(GT) }, 1},
		{"eq true", func() *Asm { return NewAsm().Push(9).Push(9).Op(EQ) }, 1},
		{"eq false", func() *Asm { return NewAsm().Push(9).Push(8).Op(EQ) }, 0},
		{"iszero of zero", func() *Asm { return NewAsm().Push(0).Op(ISZERO) }, 1},
		{"iszero of one", func() *Asm { return NewAsm().Push(1).Op(ISZERO) }, 0},
		{"and", func() *Asm { return NewAsm().Push(0b1100).Push(0b1010).Op(AND) }, 0b1000},
		{"or", func() *Asm { return NewAsm().Push(0b1100).Push(0b1010).Op(OR) }, 0b1110},
		{"xor", func() *Asm { return NewAsm().Push(0b1100).Push(0b1010).Op(XOR) }, 0b0110},
		{"shl", func() *Asm { return NewAsm().Push(1).Push(4).Op(SHL) }, 16},
		{"shr", func() *Asm { return NewAsm().Push(16).Push(2).Op(SHR) }, 4},
		{"addmod", func() *Asm { return NewAsm().Push(7).Push(5).Push(9).Op(ADDMOD) }, 0},
		{"mulmod", func() *Asm { return NewAsm().Push(7).Push(5).Push(4).Op(MULMOD) }, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := runCode(t, retTop(tt.prog()), nil)
			wantWord(t, res.Ret, tt.want)
		})
	}
}

// Stack order note: Push(a).Push(b).Op(SUB) computes b - a since b is on top.

func TestArithmeticOverflowWraps(t *testing.T) {
	// (2^256 - 1) + 2 == 1 (mod 2^256)
	a := NewAsm()
	a.PushBig(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)))
	a.Push(2).Op(ADD)
	res := runCode(t, retTop(a), nil)
	wantWord(t, res.Ret, 1)
}

func TestSignedOps(t *testing.T) {
	negOne := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	t.Run("sdiv -6/2", func(t *testing.T) {
		negSix := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(6))
		a := NewAsm().Push(2)
		a.PushBig(negSix).Op(SDIV)
		res := runCode(t, retTop(a), nil)
		negThree := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(3))
		w := WordFromBig(negThree)
		if !bytes.Equal(res.Ret, w[:]) {
			t.Fatalf("sdiv = %x, want -3", res.Ret)
		}
	})
	t.Run("slt -1 < 1", func(t *testing.T) {
		a := NewAsm().Push(1)
		a.PushBig(negOne).Op(SLT)
		res := runCode(t, retTop(a), nil)
		wantWord(t, res.Ret, 1)
	})
	t.Run("sgt 1 > -1", func(t *testing.T) {
		a := NewAsm().PushBig(negOne)
		a.Push(1).Op(SGT)
		res := runCode(t, retTop(a), nil)
		wantWord(t, res.Ret, 1)
	})
}

func TestMemoryOps(t *testing.T) {
	// MSTORE8 then MLOAD: byte lands at the given offset.
	a := NewAsm()
	a.Push(0xAB).Push(31).Op(MSTORE8) // mem[31] = 0xAB
	a.Push(0).Op(MLOAD)
	res := runCode(t, retTop(a), nil)
	wantWord(t, res.Ret, 0xAB)
}

func TestCalldataOps(t *testing.T) {
	input := AdderCalldata(big.NewInt(30), big.NewInt(12))
	res := runCode(t, AdderRuntime(), input)
	wantWord(t, res.Ret, 42)

	t.Run("calldatasize", func(t *testing.T) {
		a := NewAsm().Op(CALLDATASIZE)
		res := runCode(t, retTop(a), input)
		wantWord(t, res.Ret, 64)
	})
	t.Run("out of range load is zero", func(t *testing.T) {
		a := NewAsm().Push(1000).Op(CALLDATALOAD)
		res := runCode(t, retTop(a), input)
		wantWord(t, res.Ret, 0)
	})
	t.Run("calldatacopy", func(t *testing.T) {
		a := NewAsm()
		a.Push(32).Push(32).Push(0).Op(CALLDATACOPY) // copy word1 → mem[0]
		a.Push(0).Op(MLOAD)
		res := runCode(t, retTop(a), input)
		wantWord(t, res.Ret, 12)
	})
}

func TestControlFlow(t *testing.T) {
	t.Run("jump skips revert", func(t *testing.T) {
		a := NewAsm()
		a.Jump("ok")
		a.Push(0).Push(0).Op(REVERT)
		a.Label("ok")
		a.Push(7)
		res := runCode(t, retTop(a), nil)
		wantWord(t, res.Ret, 7)
	})
	t.Run("jumpi not taken", func(t *testing.T) {
		a := NewAsm()
		a.Push(0).JumpI("skip")
		a.Push(1)
		a.Label("skip2")
		_ = a
		b := NewAsm()
		b.Push(0).JumpI("skip")
		b.Push(42)
		b.Label("skip")
		res := runCode(t, retTop(b), nil)
		// Not taken: falls through Push(42), then JUMPDEST, returns 42.
		wantWord(t, res.Ret, 42)
	})
	t.Run("jump to non-jumpdest fails", func(t *testing.T) {
		code := NewAsm().Push(1).Op(JUMP).MustBuild()
		vm, st := newTestVM()
		self := addr(0xCC)
		st.SetCode(self, code)
		_, err := vm.Call(addr(1), self, nil, nil, 100000)
		if !errors.Is(err, ErrBadJump) {
			t.Fatalf("err=%v, want ErrBadJump", err)
		}
	})
	t.Run("jump into push data fails", func(t *testing.T) {
		// PUSH2 0x5b5b then JUMP to offset 1 (inside the push immediate).
		code := []byte{byte(PUSH2), 0x5b, 0x5b, byte(PUSH1), 1, byte(JUMP)}
		vm, st := newTestVM()
		self := addr(0xCC)
		st.SetCode(self, code)
		_, err := vm.Call(addr(1), self, nil, nil, 100000)
		if !errors.Is(err, ErrBadJump) {
			t.Fatalf("err=%v, want ErrBadJump", err)
		}
	})
	t.Run("loop terminates", func(t *testing.T) {
		// sum 1..10 via loop.
		a := NewAsm()
		a.Push(0)  // sum
		a.Push(10) // i
		a.Label("loop")
		a.Op(DUP1).Op(ISZERO).JumpI("end") // [sum, i]
		a.Op(DUP1)                         // [sum, i, i]
		a.Op(SWAP2)                        // [i, i, sum]
		a.Op(ADD)                          // [i, sum+i]
		a.Op(SWAP1)                        // [sum+i, i]
		a.Push(1).Op(SWAP1).Op(SUB)        // [sum+i, i-1]
		a.Jump("loop")
		a.Label("end")
		a.Op(POP)
		res := runCode(t, retTop(a), nil)
		wantWord(t, res.Ret, 55)
	})
}

func TestStorageOps(t *testing.T) {
	a := NewAsm()
	a.Push(99).Push(7).Op(SSTORE) // storage[7] = 99
	a.Push(7).Op(SLOAD)
	res := runCode(t, retTop(a), nil)
	wantWord(t, res.Ret, 99)
}

func TestEnvironmentOps(t *testing.T) {
	vm, st := newTestVM()
	self := addr(0xCC)
	caller := addr(0x7F)
	t.Run("caller and address", func(t *testing.T) {
		a := NewAsm().Op(CALLER)
		st.SetCode(self, retTop(a))
		res, err := vm.Call(caller, self, nil, nil, 100000)
		if err != nil {
			t.Fatal(err)
		}
		want := WordFromBig(new(big.Int).SetBytes(caller[:]))
		if !bytes.Equal(res.Ret, want[:]) {
			t.Fatalf("CALLER = %x", res.Ret)
		}
	})
	t.Run("callvalue", func(t *testing.T) {
		st.SetBalance(caller, big.NewInt(1000))
		a := NewAsm().Op(CALLVALUE)
		st.SetCode(self, retTop(a))
		res, err := vm.Call(caller, self, big.NewInt(123), nil, 100000)
		if err != nil {
			t.Fatal(err)
		}
		wantWord(t, res.Ret, 123)
	})
	t.Run("block number", func(t *testing.T) {
		a := NewAsm().Op(BLOCKNUM)
		st.SetCode(self, retTop(a))
		res, err := vm.Call(caller, self, nil, nil, 100000)
		if err != nil {
			t.Fatal(err)
		}
		wantWord(t, res.Ret, 1)
	})
}

func TestRevertRollsBackState(t *testing.T) {
	vm, st := newTestVM()
	self := addr(0xCC)
	a := NewAsm()
	a.Push(1).Push(1).Op(SSTORE) // storage[1] = 1
	a.Push(0).Push(0).Op(REVERT)
	st.SetCode(self, a.MustBuild())
	res, err := vm.Call(addr(1), self, nil, nil, 100000)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if !res.Reverted {
		t.Fatal("expected revert")
	}
	if got := st.GetStorage(self, WordFromUint64(1)); got != (Word{}) {
		t.Fatalf("storage survived revert: %x", got)
	}
}

func TestOutOfGas(t *testing.T) {
	vm, st := newTestVM()
	self := addr(0xCC)
	// Infinite loop must exhaust gas.
	a := NewAsm()
	a.Label("loop").Jump("loop")
	st.SetCode(self, a.MustBuild())
	_, err := vm.Call(addr(1), self, nil, nil, 10_000)
	if !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("err=%v, want ErrOutOfGas", err)
	}
}

func TestStackErrors(t *testing.T) {
	t.Run("underflow", func(t *testing.T) {
		vm, st := newTestVM()
		self := addr(0xCC)
		st.SetCode(self, []byte{byte(ADD)})
		_, err := vm.Call(addr(1), self, nil, nil, 100000)
		if !errors.Is(err, ErrStackUnderflow) {
			t.Fatalf("err=%v, want ErrStackUnderflow", err)
		}
	})
	t.Run("overflow", func(t *testing.T) {
		vm, st := newTestVM()
		self := addr(0xCC)
		a := NewAsm()
		a.Push(1)
		a.Label("loop").Op(DUP1).Jump("loop")
		st.SetCode(self, a.MustBuild())
		_, err := vm.Call(addr(1), self, nil, nil, 100_000)
		if !errors.Is(err, ErrStackOverflow) && !errors.Is(err, ErrOutOfGas) {
			t.Fatalf("err=%v, want ErrStackOverflow or ErrOutOfGas", err)
		}
	})
}

func TestInvalidOpcode(t *testing.T) {
	vm, st := newTestVM()
	self := addr(0xCC)
	st.SetCode(self, []byte{0xef})
	_, err := vm.Call(addr(1), self, nil, nil, 100000)
	if !errors.Is(err, ErrInvalidOpcode) {
		t.Fatalf("err=%v, want ErrInvalidOpcode", err)
	}
}

func TestValueTransfer(t *testing.T) {
	vm, st := newTestVM()
	alice, bob := addr(0xA1), addr(0xB2)
	st.SetBalance(alice, big.NewInt(100))
	if _, err := vm.Call(alice, bob, big.NewInt(40), nil, 100000); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if got := st.GetBalance(alice); got.Int64() != 60 {
		t.Fatalf("alice = %v, want 60", got)
	}
	if got := st.GetBalance(bob); got.Int64() != 40 {
		t.Fatalf("bob = %v, want 40", got)
	}
	if _, err := vm.Call(alice, bob, big.NewInt(1000), nil, 100000); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("overdraft err=%v, want ErrInsufficient", err)
	}
}

func TestCreateAndCall(t *testing.T) {
	vm, st := newTestVM()
	deployer := addr(0xD0)
	st.SetBalance(deployer, big.NewInt(1_000_000))

	contractAddr, res, err := vm.Create(deployer, nil, TokenDeploy(), 1_000_000)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if res.Reverted {
		t.Fatal("deploy reverted")
	}
	if !bytes.Equal(st.GetCode(contractAddr), TokenRuntime()) {
		t.Fatal("installed code differs from runtime")
	}

	// Mint 100 to alice, then transfer 30 to bob via calls.
	alice, bob := addr(0xA1), addr(0xB2)
	mint, err := vm.Call(alice, contractAddr, nil, TokenCalldata(TokenMint, alice, 100), 1_000_000)
	if err != nil || mint.Reverted {
		t.Fatalf("mint: %v reverted=%v", err, mint.Reverted)
	}
	tr, err := vm.Call(alice, contractAddr, nil, TokenCalldata(TokenTransfer, bob, 30), 1_000_000)
	if err != nil || tr.Reverted {
		t.Fatalf("transfer: %v reverted=%v", err, tr.Reverted)
	}
	if len(tr.Logs) != 1 {
		t.Fatalf("transfer logs = %d, want 1", len(tr.Logs))
	}

	balOf := func(who Address) uint64 {
		res, err := vm.Call(addr(1), contractAddr, nil, TokenCalldata(TokenBalance, who, 0), 1_000_000)
		if err != nil || res.Reverted {
			t.Fatalf("balance: %v", err)
		}
		return new(big.Int).SetBytes(res.Ret).Uint64()
	}
	if got := balOf(alice); got != 70 {
		t.Fatalf("alice balance = %d, want 70", got)
	}
	if got := balOf(bob); got != 30 {
		t.Fatalf("bob balance = %d, want 30", got)
	}

	// Over-transfer reverts and leaves balances intact.
	over, err := vm.Call(bob, contractAddr, nil, TokenCalldata(TokenTransfer, alice, 1_000_000), 1_000_000)
	if err != nil {
		t.Fatalf("over-transfer: %v", err)
	}
	if !over.Reverted {
		t.Fatal("over-transfer did not revert")
	}
	if got := balOf(bob); got != 30 {
		t.Fatalf("bob after failed transfer = %d, want 30", got)
	}
}

func TestChurnContract(t *testing.T) {
	vm, st := newTestVM()
	deployer := addr(0xD0)
	contractAddr, res, err := vm.Create(deployer, nil, ChurnDeploy(), 1_000_000)
	if err != nil || res.Reverted {
		t.Fatalf("deploy: %v", err)
	}
	out, err := vm.Call(addr(1), contractAddr, nil, ChurnCalldata(8), 1_000_000)
	if err != nil || out.Reverted {
		t.Fatalf("churn: %v reverted=%v", err, out.Reverted)
	}
	for i := uint64(0); i < 8; i++ {
		if got := st.GetStorage(contractAddr, WordFromUint64(i)); got != WordFromUint64(i) {
			t.Fatalf("slot %d = %x", i, got)
		}
	}
}

func TestNestedCallOpcode(t *testing.T) {
	vm, st := newTestVM()
	// Deploy the adder, then a caller contract that CALLs it and returns
	// the result.
	adderAddr, res, err := vm.Create(addr(0xD0), nil, DeployWrapper(AdderRuntime()), 1_000_000)
	if err != nil || res.Reverted {
		t.Fatalf("deploy adder: %v", err)
	}

	a := NewAsm()
	// Write calldata for adder into memory: mem[0]=5, mem[32]=9.
	a.Push(5).Push(0).Op(MSTORE)
	a.Push(9).Push(32).Op(MSTORE)
	// CALL(gas=0→all, to=adder, value=0, in=0..64, out=64..96)
	a.Push(32).Push(64) // outSize, outOff
	a.Push(64).Push(0)  // inSize, inOff
	a.Push(0)           // value
	a.PushBytes(adderAddr[:])
	a.Push(0) // gas → all available
	a.Op(CALL)
	a.Op(POP) // drop success flag
	a.Push(64).Op(MLOAD)
	code := retTop(a)
	self := addr(0xCA)
	st.SetCode(self, code)
	out, err := vm.Call(addr(1), self, nil, nil, 1_000_000)
	if err != nil {
		t.Fatalf("outer call: %v", err)
	}
	wantWord(t, out.Ret, 14)
}

func TestCallDepthLimit(t *testing.T) {
	vm, st := newTestVM()
	self := addr(0xCC)
	// Contract that calls itself forever.
	a := NewAsm()
	a.Push(0).Push(0).Push(0).Push(0).Push(0)
	a.PushBytes(self[:])
	a.Push(0)
	a.Op(CALL)
	a.Op(POP).Op(STOP)
	st.SetCode(self, a.MustBuild())
	res, err := vm.Call(addr(1), self, nil, nil, 100_000_000)
	// Recursion is cut by depth or gas; either is acceptable, and the
	// outer call itself must not error out.
	if err != nil {
		t.Fatalf("outer call err: %v", err)
	}
	if res.Reverted {
		t.Fatal("outer call reverted")
	}
}

func TestSha3Deterministic(t *testing.T) {
	a := NewAsm()
	a.Push(0xAB).Push(0).Op(MSTORE)
	a.Push(32).Push(0).Op(SHA3)
	res1 := runCode(t, retTop(a), nil)
	b := NewAsm()
	b.Push(0xAB).Push(0).Op(MSTORE)
	b.Push(32).Push(0).Op(SHA3)
	res2 := runCode(t, retTop(b), nil)
	if !bytes.Equal(res1.Ret, res2.Ret) {
		t.Fatal("SHA3 nondeterministic")
	}
	if new(big.Int).SetBytes(res1.Ret).Sign() == 0 {
		t.Fatal("SHA3 returned zero")
	}
}

func TestQuickAdderMatchesBigInt(t *testing.T) {
	code := AdderRuntime()
	vm, st := newTestVM()
	self := addr(0xCC)
	st.SetCode(self, code)
	mod := new(big.Int).Lsh(big.NewInt(1), 256)
	f := func(x, y uint64) bool {
		bx, by := new(big.Int).SetUint64(x), new(big.Int).SetUint64(y)
		res, err := vm.Call(addr(1), self, nil, AdderCalldata(bx, by), 1_000_000)
		if err != nil || res.Reverted {
			return false
		}
		want := new(big.Int).Add(bx, by)
		want.Mod(want, mod)
		return new(big.Int).SetBytes(res.Ret).Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
