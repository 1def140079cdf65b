package threshbls

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"strings"
	"sync"
	"testing"

	"sbft/internal/crypto/bn254"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/crypto/threshsig/sigtest"
)

// Pairing operations cost ~1s each with auditable big.Int arithmetic, so
// the suite shares one small (2, 3) instance and every test is skipped
// under -short.

var (
	dealOnce sync.Once
	scheme   threshsig.Scheme
	signers  []threshsig.Signer
)

func instance(t *testing.T) (threshsig.Scheme, []threshsig.Signer) {
	t.Helper()
	if testing.Short() {
		t.Skip("threshold BLS tests are expensive (real pairings)")
	}
	dealOnce.Do(func() {
		s, sg, err := Dealer{}.Deal(2, 3)
		if err != nil {
			t.Fatalf("Deal: %v", err)
		}
		scheme, signers = s, sg
	})
	if scheme == nil {
		t.Fatal("shared deal failed earlier")
	}
	return scheme, signers
}

func digestOf(s string) []byte {
	d := sha256.Sum256([]byte(s))
	return d[:]
}

func TestDealValidation(t *testing.T) {
	if _, _, err := (Dealer{}).Deal(4, 3); err == nil {
		t.Fatal("Deal(4,3) accepted")
	}
	if _, _, err := (Dealer{}).Deal(0, 3); err == nil {
		t.Fatal("Deal(0,3) accepted")
	}
}

func TestSignVerifyCombine(t *testing.T) {
	sch, sgs := instance(t)
	d := digestOf("bls threshold")
	sh1, err := sgs[0].Sign(d)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	sh2, err := sgs[1].Sign(d)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := sch.VerifyShare(d, sh1); err != nil {
		t.Fatalf("VerifyShare: %v", err)
	}
	sig, err := sch.Combine(d, []threshsig.Share{sh1, sh2})
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if err := sch.Verify(d, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// 33-byte-class signatures: one G1 point (64B uncompressed here; the
	// paper's 33B figure is the compressed form).
	if len(sig.Data) != 64 {
		t.Fatalf("signature size = %d", len(sig.Data))
	}
}

func TestCombineSubsetsAgree(t *testing.T) {
	sch, sgs := instance(t)
	d := digestOf("unique")
	var shares []threshsig.Share
	for _, sg := range sgs {
		sh, _ := sg.Sign(d)
		shares = append(shares, sh)
	}
	sig12, err := sch.Combine(d, shares[:2])
	if err != nil {
		t.Fatalf("Combine{1,2}: %v", err)
	}
	sig23, err := sch.Combine(d, shares[1:])
	if err != nil {
		t.Fatalf("Combine{2,3}: %v", err)
	}
	if !bytes.Equal(sig12.Data, sig23.Data) {
		t.Fatal("different subsets produced different signatures; BLS threshold signatures are unique")
	}
}

func TestRobustnessRejectsBadShare(t *testing.T) {
	sch, sgs := instance(t)
	d := digestOf("robust")
	sh, _ := sgs[0].Sign(d)

	bad := threshsig.Share{Signer: 1, Data: append([]byte{}, sh.Data...)}
	bad.Data[5] ^= 0xff
	if err := sch.VerifyShare(d, bad); !errors.Is(err, threshsig.ErrInvalidShare) {
		t.Fatalf("corrupt share: err=%v", err)
	}
	// Replay under a different signer id must fail (binds to pk_i).
	replay := threshsig.Share{Signer: 2, Data: sh.Data}
	if err := sch.VerifyShare(d, replay); !errors.Is(err, threshsig.ErrInvalidShare) {
		t.Fatalf("replayed share: err=%v", err)
	}
	if err := sch.VerifyShare(digestOf("other"), sh); !errors.Is(err, threshsig.ErrInvalidShare) {
		t.Fatalf("wrong-digest share: err=%v", err)
	}
	if err := sch.VerifyShare(d, threshsig.Share{Signer: 9, Data: sh.Data}); !errors.Is(err, threshsig.ErrBadSignerID) {
		t.Fatalf("out-of-range signer: err=%v", err)
	}
}

// TestVerifyShareConcurrent: a signer's prepared lines are built on first
// use, and the crypto pool verifies from several goroutines at once.
func TestVerifyShareConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("threshold BLS tests are expensive (real pairings)")
	}
	sch, sgs, err := Dealer{}.Deal(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := digestOf("concurrent")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		sh, _ := sgs[g%2].Sign(d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sch.VerifyShare(d, sh); err != nil {
				t.Errorf("VerifyShare(signer %d): %v", sh.Signer, err)
			}
			if err := sch.VerifyShare(d, threshsig.Share{Signer: 3, Data: sh.Data}); !errors.Is(err, threshsig.ErrInvalidShare) {
				t.Errorf("share replayed under signer 3: err=%v", err)
			}
		}()
	}
	wg.Wait()
}

func TestVerifyRejectsForgery(t *testing.T) {
	sch, sgs := instance(t)
	d := digestOf("forge")
	sh1, _ := sgs[0].Sign(d)
	sh2, _ := sgs[1].Sign(d)
	sig, err := sch.Combine(d, []threshsig.Share{sh1, sh2})
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if err := sch.Verify(digestOf("different"), sig); !errors.Is(err, threshsig.ErrInvalidSignature) {
		t.Fatalf("wrong digest: err=%v", err)
	}
	bad := threshsig.Signature{Data: append([]byte{}, sig.Data...)}
	bad.Data[0] ^= 1
	if err := sch.Verify(d, bad); !errors.Is(err, threshsig.ErrInvalidSignature) {
		t.Fatalf("tampered signature: err=%v", err)
	}
}

func TestNotEnoughShares(t *testing.T) {
	sch, sgs := instance(t)
	d := digestOf("short")
	sh1, _ := sgs[0].Sign(d)
	if _, err := sch.Combine(d, []threshsig.Share{sh1}); !errors.Is(err, threshsig.ErrNotEnoughShares) {
		t.Fatalf("err=%v", err)
	}
}

func TestCombineVerifiedMatchesCombine(t *testing.T) {
	sch, sgs := instance(t)
	d := digestOf("pre-verified shares")
	sh1, _ := sgs[0].Sign(d)
	sh2, _ := sgs[1].Sign(d)
	shares := []threshsig.Share{sh1, sh2}
	for _, sh := range shares {
		if err := sch.VerifyShare(d, sh); err != nil {
			t.Fatalf("VerifyShare: %v", err)
		}
	}
	fast, err := sch.CombineVerified(d, shares)
	if err != nil {
		t.Fatalf("CombineVerified: %v", err)
	}
	slow, err := sch.Combine(d, shares)
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if !bytes.Equal(fast.Data, slow.Data) {
		t.Fatal("CombineVerified and Combine disagree")
	}
	if err := sch.Verify(d, fast); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Threshold bookkeeping still applies.
	if _, err := sch.CombineVerified(d, shares[:1]); !errors.Is(err, threshsig.ErrNotEnoughShares) {
		t.Fatalf("short CombineVerified: err=%v", err)
	}
	if _, err := sch.CombineVerified(d, []threshsig.Share{sh1, sh1}); !errors.Is(err, threshsig.ErrDuplicateShare) {
		t.Fatalf("duplicate CombineVerified: err=%v", err)
	}
}

func TestBatchVerifyShares(t *testing.T) {
	sch, sgs := instance(t)
	blsScheme := sch.(*Scheme)
	d := digestOf("batch verification")
	var shares []threshsig.Share
	for _, sg := range sgs {
		sh, _ := sg.Sign(d)
		shares = append(shares, sh)
	}
	if err := blsScheme.BatchVerifyShares(d, shares); err != nil {
		t.Fatalf("batch of valid shares rejected: %v", err)
	}
	if err := blsScheme.BatchVerifyShares(d, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := blsScheme.BatchVerifyShares(d, shares[:1]); err != nil {
		t.Fatalf("singleton batch: %v", err)
	}

	// A corrupted share must fail the batch and be attributed to its
	// signer via the per-share fallback.
	bad := threshsig.Share{Signer: 2, Data: append([]byte{}, shares[0].Data...)}
	tampered := []threshsig.Share{shares[0], bad, shares[2]}
	err := blsScheme.BatchVerifyShares(d, tampered)
	if !errors.Is(err, threshsig.ErrInvalidShare) {
		t.Fatalf("tampered batch: err=%v", err)
	}
	if !strings.Contains(err.Error(), "signer 2") {
		t.Fatalf("bad signer not identified: %v", err)
	}
	// Combine goes through the batch path and must report the same error.
	if _, err := sch.Combine(d, tampered[:2]); !errors.Is(err, threshsig.ErrInvalidShare) {
		t.Fatalf("Combine with bad share: err=%v", err)
	}
	if err := blsScheme.BatchVerifyShares(d, []threshsig.Share{{Signer: 9, Data: shares[0].Data}, shares[0]}); !errors.Is(err, threshsig.ErrBadSignerID) {
		t.Fatalf("out-of-range signer in batch: err=%v", err)
	}
}

func TestAggregateGroupMode(t *testing.T) {
	sch, sgs := instance(t)
	blsScheme := sch.(*Scheme)
	d := digestOf("group mode")
	var shares []threshsig.Share
	for _, sg := range sgs {
		sh, _ := sg.Sign(d)
		shares = append(shares, sh)
	}
	sig, err := blsScheme.Aggregate(d, shares)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if err := sch.Verify(d, sig); err != nil {
		t.Fatalf("Verify aggregated: %v", err)
	}
	if _, err := blsScheme.Aggregate(d, shares[:2]); err == nil {
		t.Fatal("group mode accepted missing shares")
	}
}

func TestCombineRobust(t *testing.T) {
	sch, signers, err := Dealer{}.Deal(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sigtest.CombineRobust(t, sch, signers, 12)
}

// TestAllocsPerOp pins the heap allocations of each collector-path kernel
// on a (3, 4) instance, the benchmarks' shape. The bounds are the counts
// measured when bn254's points moved onto the limb field (DESIGN.md's
// kernel table has them beside the math/big-era ones); a kernel that
// allocates more has grown a conversion or a temporary back. Two counts
// depend on data: hashing a digest onto G1 costs 3 allocations per
// rejected candidate (this digest takes three), and each batch scalar past
// 125 bits costs 8 in its GLV split — the bound is for all four. Under
// -race the counts are not deterministic (race builds make sync.Pool drop
// entries at random, and math/big's division temporaries come from one),
// so CI's race job skips this test by name.
func TestAllocsPerOp(t *testing.T) {
	s, sgs, err := Dealer{}.Deal(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	sch := s.(*Scheme)
	d := digestOf("allocs per op")
	shares := make([]threshsig.Share, len(sgs))
	for i, sg := range sgs {
		if shares[i], err = sg.Sign(d); err != nil {
			t.Fatal(err)
		}
	}
	sig, err := sch.Combine(d, shares[:3])
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []struct {
		name  string
		bound float64
		run   func()
	}{
		{"Sign", 23, func() { _, err := sgs[0].Sign(d); must(err) }},
		{"Verify", 3, func() { must(sch.Verify(d, sig)) }},
		{"VerifyShare", 3, func() { must(sch.VerifyShare(d, shares[0])) }},
		{"BatchVerifyShares/k=4", 72, func() { must(sch.BatchVerifyShares(d, shares)) }},
		{"Combine", 42, func() { _, err := sch.Combine(d, shares[:3]); must(err) }},
	} {
		if got := testing.AllocsPerRun(10, k.run); got > k.bound {
			t.Errorf("%s: %.0f allocs/op, bound %.0f", k.name, got, k.bound)
		} else {
			t.Logf("%s: %.0f allocs/op (bound %.0f)", k.name, got, k.bound)
		}
	}
}

// TestGoldenVectors pins the bytes this package produces: BLS signatures
// are deterministic, so a change to the arithmetic under them (bn254's
// field, group law, hash-to-curve or the interpolation here) must leave
// every vector below untouched. The instances are dealt from a seeded
// reader; the vectors were captured before the kernels were rebuilt.
func TestGoldenVectors(t *testing.T) {
	if testing.Short() {
		t.Skip("threshold BLS tests are expensive (real pairings)")
	}
	d1, d2 := digestOf("golden vector one"), digestOf("golden vector two")
	hexOf := func(b []byte) string { return hex.EncodeToString(b) }
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s moved:\n got %s\nwant %s", name, got, want)
		}
	}
	check("HashToG1(d1)", hexOf(bn254.HashToG1(d1).Marshal()), goldenHash1)
	check("HashToG1(d2)", hexOf(bn254.HashToG1(d2).Marshal()), goldenHash2)

	sch, sgs, err := Dealer{Rand: mrand.New(mrand.NewSource(21))}.Deal(3, 4)
	if err != nil {
		t.Fatalf("Deal(3,4): %v", err)
	}
	shares := make([]threshsig.Share, len(sgs))
	for i, sg := range sgs {
		if shares[i], err = sg.Sign(d1); err != nil {
			t.Fatalf("Sign: %v", err)
		}
		check(fmt.Sprintf("share %d", sg.ID()), hexOf(shares[i].Data), goldenShares[i])
	}
	for _, subset := range [][]threshsig.Share{shares[:3], {shares[3], shares[1], shares[0]}} {
		sig, err := sch.Combine(d1, subset)
		if err != nil {
			t.Fatalf("Combine: %v", err)
		}
		check("combined (3,4) signature", hexOf(sig.Data), goldenSig34)
	}

	sch, sgs, err = Dealer{Rand: mrand.New(mrand.NewSource(79))}.Deal(7, 9)
	if err != nil {
		t.Fatalf("Deal(7,9): %v", err)
	}
	shares = shares[:0]
	for _, sg := range sgs[2:] { // signers 3..9
		sh, err := sg.Sign(d2)
		if err != nil {
			t.Fatalf("Sign: %v", err)
		}
		shares = append(shares, sh)
	}
	sig, err := sch.Combine(d2, shares)
	if err != nil {
		t.Fatalf("Combine(7,9): %v", err)
	}
	check("combined (7,9) signature", hexOf(sig.Data), goldenSig79)
}

const (
	goldenHash1 = "05ff37a681f9bf8a8c4b26067edac2dde53187af817c09d101affd83e2005bf10602a14bbb0dd27ea1f9717e60790fd0f579833b58f949a8785e4c8f6575426d"
	goldenHash2 = "104d80830d3001e7ab2ffe5de9df19f961cff9927555df628b4316917e103f4f0220a7151c812bcc9beab9a8dda1b713fff720e4ebcd885a325cc189c45c36b5"
	goldenSig34 = "2a8295697af2eb3404c2ff2ca3294c60507fb70de775d994b4798acc71d78afc1c218d1de8b3a6443f82dee9a03187b2f6807752ccdf417d6f8bc0c730708fe1"
	goldenSig79 = "06a50df756d1e885891aa0d9ddd11d7e20fc045da1f45d4ecd62a2c1320c2629112f87cc83a2bbe82a60b18c983c78a90c09c644403ecfbdd9205de89cbf6cfa"
)

var goldenShares = [4]string{
	"2beb7063a5dff956f8efda1d51c79f06e876faebc0edb297e158faf46a26592526834919e48cf575a6166bd9a8e95dcd9994b835e9b0f0436207abb96a9809bc",
	"2f7a6741bd3510b2c1b43695fa743ac584050b22a7d485283c86c6572a6f7f791c1482a669218fe4797e28913db783d88f113c5ab98405c5486895f1ad18891c",
	"2ac038ca99e79d5a6d0a7074ada2dd2095830b8be25070b5b02d292b66ee0540190c226feb38d2ea13c1630ec2ed22800b2cf3f17fc8d7324dea70cc22d6a625",
	"24a23adc1963b85f117b0034e3c547b39939325c1a233056d578aa121977b3302903c04a8bf325324eb1d592a13432e8b8a9aeb2f1df4654938a037657c65447",
}
