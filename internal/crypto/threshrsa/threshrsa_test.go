package threshrsa

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"math/big"
	"sync"
	"testing"

	"sbft/internal/crypto/threshsig"
	"sbft/internal/crypto/threshsig/sigtest"
)

// testBits keeps safe-prime generation fast in tests while exercising the
// full algebra. Production uses DefaultModulusBits.
const testBits = 512

var (
	dealOnce   sync.Once
	dealScheme threshsig.Scheme
	dealSign   []threshsig.Signer
)

// sharedInstance deals a single (3, 7) instance reused across tests because
// safe-prime generation dominates test time.
func sharedInstance(t *testing.T) (threshsig.Scheme, []threshsig.Signer) {
	t.Helper()
	dealOnce.Do(func() {
		s, sg, err := Dealer{ModulusBits: testBits}.Deal(3, 7)
		if err != nil {
			t.Fatalf("Deal: %v", err)
		}
		dealScheme, dealSign = s, sg
	})
	if dealScheme == nil {
		t.Fatal("shared deal failed earlier")
	}
	return dealScheme, dealSign
}

func digestOf(s string) []byte {
	d := sha256.Sum256([]byte(s))
	return d[:]
}

func TestDealParameters(t *testing.T) {
	scheme, signers := sharedInstance(t)
	if got := scheme.Threshold(); got != 3 {
		t.Errorf("Threshold() = %d, want 3", got)
	}
	if got := scheme.N(); got != 7 {
		t.Errorf("N() = %d, want 7", got)
	}
	if len(signers) != 7 {
		t.Fatalf("len(signers) = %d, want 7", len(signers))
	}
	for i, sg := range signers {
		if sg.ID() != i+1 {
			t.Errorf("signers[%d].ID() = %d, want %d", i, sg.ID(), i+1)
		}
	}
}

func TestDealRejectsBadParams(t *testing.T) {
	if _, _, err := (Dealer{ModulusBits: testBits}).Deal(5, 3); err == nil {
		t.Fatal("Deal(5, 3) succeeded, want error")
	}
	if _, _, err := (Dealer{ModulusBits: testBits}).Deal(0, 3); err == nil {
		t.Fatal("Deal(0, 3) succeeded, want error")
	}
}

func TestSignVerifyCombine(t *testing.T) {
	scheme, signers := sharedInstance(t)
	d := digestOf("threshold rsa")
	var shares []threshsig.Share
	for _, sg := range signers {
		sh, err := sg.Sign(d)
		if err != nil {
			t.Fatalf("Sign: %v", err)
		}
		if err := scheme.VerifyShare(d, sh); err != nil {
			t.Fatalf("VerifyShare(%d): %v", sg.ID(), err)
		}
		shares = append(shares, sh)
	}
	sig, err := scheme.Combine(d, shares[:3])
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if err := scheme.Verify(d, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestCombineArbitrarySubsetsAgree(t *testing.T) {
	scheme, signers := sharedInstance(t)
	d := digestOf("subsets")
	shares := make([]threshsig.Share, len(signers))
	for i, sg := range signers {
		var err error
		shares[i], err = sg.Sign(d)
		if err != nil {
			t.Fatalf("Sign: %v", err)
		}
	}
	subsets := [][]int{{0, 1, 2}, {4, 5, 6}, {0, 3, 6}, {1, 2, 5}}
	var first []byte
	for _, sub := range subsets {
		in := []threshsig.Share{shares[sub[0]], shares[sub[1]], shares[sub[2]]}
		sig, err := scheme.Combine(d, in)
		if err != nil {
			t.Fatalf("Combine(%v): %v", sub, err)
		}
		if first == nil {
			first = sig.Data
		} else if !bytes.Equal(first, sig.Data) {
			t.Fatalf("subset %v produced a different signature; RSA threshold signatures are unique", sub)
		}
	}
}

func TestCombineSkipsNothingWithExtraShares(t *testing.T) {
	scheme, signers := sharedInstance(t)
	d := digestOf("extra")
	var shares []threshsig.Share
	for _, sg := range signers {
		sh, _ := sg.Sign(d)
		shares = append(shares, sh)
	}
	sig, err := scheme.Combine(d, shares) // all 7, threshold 3
	if err != nil {
		t.Fatalf("Combine with extras: %v", err)
	}
	if err := scheme.Verify(d, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestRobustnessRejectsCorruptShare(t *testing.T) {
	scheme, signers := sharedInstance(t)
	d := digestOf("robust")
	sh, err := signers[0].Sign(d)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}

	t.Run("bit flip", func(t *testing.T) {
		bad := threshsig.Share{Signer: 1, Data: append([]byte{}, sh.Data...)}
		bad.Data[10] ^= 0x01
		if err := scheme.VerifyShare(d, bad); !errors.Is(err, threshsig.ErrInvalidShare) {
			t.Fatalf("err=%v, want ErrInvalidShare", err)
		}
	})
	t.Run("replayed under wrong id", func(t *testing.T) {
		bad := threshsig.Share{Signer: 2, Data: sh.Data}
		if err := scheme.VerifyShare(d, bad); !errors.Is(err, threshsig.ErrInvalidShare) {
			t.Fatalf("err=%v, want ErrInvalidShare", err)
		}
	})
	t.Run("replayed under wrong digest", func(t *testing.T) {
		if err := scheme.VerifyShare(digestOf("other"), sh); !errors.Is(err, threshsig.ErrInvalidShare) {
			t.Fatalf("err=%v, want ErrInvalidShare", err)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		bad := threshsig.Share{Signer: 1, Data: []byte{1, 2, 3}}
		if err := scheme.VerifyShare(d, bad); !errors.Is(err, threshsig.ErrInvalidShare) {
			t.Fatalf("err=%v, want ErrInvalidShare", err)
		}
	})
}

func TestCombineRejectsCorruptShareAmongGood(t *testing.T) {
	scheme, signers := sharedInstance(t)
	d := digestOf("mixed")
	good1, _ := signers[0].Sign(d)
	good2, _ := signers[1].Sign(d)
	bad, _ := signers[2].Sign(d)
	bad.Data = append([]byte{}, bad.Data...)
	bad.Data[5] ^= 0xff
	if _, err := scheme.Combine(d, []threshsig.Share{good1, good2, bad}); !errors.Is(err, threshsig.ErrInvalidShare) {
		t.Fatalf("Combine with corrupt share: err=%v, want ErrInvalidShare", err)
	}
}

func TestVerifyRejectsForgery(t *testing.T) {
	scheme, signers := sharedInstance(t)
	d := digestOf("forgery")
	var shares []threshsig.Share
	for _, sg := range signers[:3] {
		sh, _ := sg.Sign(d)
		shares = append(shares, sh)
	}
	sig, err := scheme.Combine(d, shares)
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}

	t.Run("wrong digest", func(t *testing.T) {
		if err := scheme.Verify(digestOf("not it"), sig); !errors.Is(err, threshsig.ErrInvalidSignature) {
			t.Fatalf("err=%v, want ErrInvalidSignature", err)
		}
	})
	t.Run("tampered signature", func(t *testing.T) {
		bad := threshsig.Signature{Data: append([]byte{}, sig.Data...)}
		bad.Data[0] ^= 0x80
		if err := scheme.Verify(d, bad); !errors.Is(err, threshsig.ErrInvalidSignature) {
			t.Fatalf("err=%v, want ErrInvalidSignature", err)
		}
	})
	t.Run("zero signature", func(t *testing.T) {
		if err := scheme.Verify(d, threshsig.Signature{Data: nil}); !errors.Is(err, threshsig.ErrInvalidSignature) {
			t.Fatalf("err=%v, want ErrInvalidSignature", err)
		}
	})
}

func TestNotEnoughShares(t *testing.T) {
	scheme, signers := sharedInstance(t)
	d := digestOf("short")
	sh1, _ := signers[0].Sign(d)
	sh2, _ := signers[1].Sign(d)
	if _, err := scheme.Combine(d, []threshsig.Share{sh1, sh2}); !errors.Is(err, threshsig.ErrNotEnoughShares) {
		t.Fatalf("err=%v, want ErrNotEnoughShares", err)
	}
}

func TestLagrangeCoefficientsAreIntegers(t *testing.T) {
	s := &Scheme{delta: factorial(7)}
	sets := [][]int{{1, 2, 3}, {2, 4, 7}, {1, 5, 6}, {3, 4, 5}}
	for _, set := range sets {
		// Σ λ_{0,i} f(i) must equal Δ·f(0) for any polynomial; check with
		// f(x) = 17 + 5x + 3x² over the integers.
		f := func(x int64) *big.Int {
			return big.NewInt(17 + 5*x + 3*x*x)
		}
		sum := new(big.Int)
		for _, i := range set {
			term := new(big.Int).Mul(s.lagrange0(set, i), f(int64(i)))
			sum.Add(sum, term)
		}
		want := new(big.Int).Mul(s.delta, f(0))
		if sum.Cmp(want) != 0 {
			t.Fatalf("set %v: Σ λ·f(i) = %v, want Δ·f(0) = %v", set, sum, want)
		}
	}
}

func TestSafePrime(t *testing.T) {
	pp, p, err := safePrime(rand.Reader, 64)
	if err != nil {
		t.Fatalf("safePrime: %v", err)
	}
	if !pp.ProbablyPrime(20) || !p.ProbablyPrime(20) {
		t.Fatal("safePrime returned a composite")
	}
	want := new(big.Int).Lsh(pp, 1)
	want.Add(want, big.NewInt(1))
	if p.Cmp(want) != 0 {
		t.Fatalf("p = %v, want 2p'+1 = %v", p, want)
	}
	if p.BitLen() != 64 {
		t.Fatalf("p.BitLen() = %d, want 64", p.BitLen())
	}
}

func TestShareEncodingRoundTrip(t *testing.T) {
	xi, c, z := big.NewInt(12345), big.NewInt(678), new(big.Int).Lsh(big.NewInt(1), 200)
	enc := encodeShare(xi, c, z)
	gx, gc, gz, err := decodeShare(enc)
	if err != nil {
		t.Fatalf("decodeShare: %v", err)
	}
	if gx.Cmp(xi) != 0 || gc.Cmp(c) != 0 || gz.Cmp(z) != 0 {
		t.Fatal("round trip mismatch")
	}
	if _, _, _, err := decodeShare(enc[:len(enc)-1]); err == nil {
		t.Fatal("decodeShare accepted truncated input")
	}
	if _, _, _, err := decodeShare([]byte{0, 0}); err == nil {
		t.Fatal("decodeShare accepted short input")
	}
}

func TestCombineRobust(t *testing.T) {
	scheme, signers := sharedInstance(t)
	sigtest.CombineRobust(t, scheme, signers, 12)
}
