package threshsig

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func deal(t *testing.T, k, n int) (Scheme, []Signer) {
	t.Helper()
	scheme, signers, err := InsecureDealer{Seed: []byte("test-seed")}.Deal(k, n)
	if err != nil {
		t.Fatalf("Deal(%d, %d): %v", k, n, err)
	}
	return scheme, signers
}

func digestOf(s string) []byte {
	d := sha256.Sum256([]byte(s))
	return d[:]
}

func TestDealValidation(t *testing.T) {
	tests := []struct {
		name string
		k, n int
		ok   bool
	}{
		{"k equals n", 3, 3, true},
		{"k one", 1, 5, true},
		{"typical", 5, 7, true},
		{"k zero", 0, 3, false},
		{"n zero", 1, 0, false},
		{"k exceeds n", 4, 3, false},
		{"negative k", -1, 3, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := InsecureDealer{}.Deal(tt.k, tt.n)
			if (err == nil) != tt.ok {
				t.Fatalf("Deal(%d, %d) err=%v, want ok=%v", tt.k, tt.n, err, tt.ok)
			}
		})
	}
}

func TestSignVerifyCombine(t *testing.T) {
	scheme, signers := deal(t, 3, 5)
	d := digestOf("hello")
	var shares []Share
	for _, sg := range signers {
		sh, err := sg.Sign(d)
		if err != nil {
			t.Fatalf("Sign: %v", err)
		}
		if err := scheme.VerifyShare(d, sh); err != nil {
			t.Fatalf("VerifyShare(signer %d): %v", sg.ID(), err)
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

func TestCombineAnySubsetYieldsSameSignature(t *testing.T) {
	scheme, signers := deal(t, 2, 5)
	d := digestOf("subset")
	shares := make([]Share, len(signers))
	for i, sg := range signers {
		shares[i], _ = sg.Sign(d)
	}
	sig1, err := scheme.Combine(d, []Share{shares[0], shares[1]})
	if err != nil {
		t.Fatalf("Combine{1,2}: %v", err)
	}
	sig2, err := scheme.Combine(d, []Share{shares[3], shares[4]})
	if err != nil {
		t.Fatalf("Combine{4,5}: %v", err)
	}
	if !bytes.Equal(sig1.Data, sig2.Data) {
		t.Fatal("signatures from different share subsets differ; threshold signatures must be unique")
	}
}

func TestCombineRejectsTooFewShares(t *testing.T) {
	scheme, signers := deal(t, 3, 5)
	d := digestOf("few")
	sh0, _ := signers[0].Sign(d)
	sh1, _ := signers[1].Sign(d)
	if _, err := scheme.Combine(d, []Share{sh0, sh1}); !errors.Is(err, ErrNotEnoughShares) {
		t.Fatalf("Combine with 2 of 3 shares: err=%v, want ErrNotEnoughShares", err)
	}
}

func TestCombineRejectsDuplicateSigner(t *testing.T) {
	scheme, signers := deal(t, 3, 5)
	d := digestOf("dup")
	sh0, _ := signers[0].Sign(d)
	sh1, _ := signers[1].Sign(d)
	if _, err := scheme.Combine(d, []Share{sh0, sh1, sh0}); !errors.Is(err, ErrDuplicateShare) {
		t.Fatalf("Combine with duplicate: err=%v, want ErrDuplicateShare", err)
	}
}

func TestVerifyShareRejectsForgery(t *testing.T) {
	scheme, signers := deal(t, 2, 4)
	d := digestOf("forge")
	sh, _ := signers[0].Sign(d)

	t.Run("tampered data", func(t *testing.T) {
		bad := Share{Signer: sh.Signer, Data: append([]byte{}, sh.Data...)}
		bad.Data[0] ^= 0xff
		if err := scheme.VerifyShare(d, bad); !errors.Is(err, ErrInvalidShare) {
			t.Fatalf("err=%v, want ErrInvalidShare", err)
		}
	})
	t.Run("wrong signer id", func(t *testing.T) {
		bad := Share{Signer: 2, Data: sh.Data}
		if err := scheme.VerifyShare(d, bad); !errors.Is(err, ErrInvalidShare) {
			t.Fatalf("err=%v, want ErrInvalidShare", err)
		}
	})
	t.Run("out of range signer", func(t *testing.T) {
		bad := Share{Signer: 9, Data: sh.Data}
		if err := scheme.VerifyShare(d, bad); !errors.Is(err, ErrBadSignerID) {
			t.Fatalf("err=%v, want ErrBadSignerID", err)
		}
	})
	t.Run("wrong digest", func(t *testing.T) {
		if err := scheme.VerifyShare(digestOf("other"), sh); !errors.Is(err, ErrInvalidShare) {
			t.Fatalf("err=%v, want ErrInvalidShare", err)
		}
	})
}

func TestVerifyRejectsWrongDigest(t *testing.T) {
	scheme, signers := deal(t, 2, 4)
	d := digestOf("a")
	var shares []Share
	for _, sg := range signers[:2] {
		sh, _ := sg.Sign(d)
		shares = append(shares, sh)
	}
	sig, err := scheme.Combine(d, shares)
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if err := scheme.Verify(digestOf("b"), sig); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("Verify with wrong digest: err=%v, want ErrInvalidSignature", err)
	}
}

func TestDistinctSeedsProduceDistinctKeys(t *testing.T) {
	s1, sg1, _ := InsecureDealer{Seed: []byte("one")}.Deal(2, 3)
	_, sg2, _ := InsecureDealer{Seed: []byte("two")}.Deal(2, 3)
	d := digestOf("x")
	shA, _ := sg1[0].Sign(d)
	shB, _ := sg2[0].Sign(d)
	if bytes.Equal(shA.Data, shB.Data) {
		t.Fatal("different dealer seeds produced identical shares")
	}
	if err := s1.VerifyShare(d, shB); err == nil {
		t.Fatal("scheme accepted a share from a differently-seeded instance")
	}
}

func TestCheckSharesSorts(t *testing.T) {
	shares := []Share{{Signer: 3}, {Signer: 1}, {Signer: 2}}
	sorted, err := CheckShares(3, 5, shares)
	if err != nil {
		t.Fatalf("CheckShares: %v", err)
	}
	for i, s := range sorted {
		if s.Signer != i+1 {
			t.Fatalf("sorted[%d].Signer = %d, want %d", i, s.Signer, i+1)
		}
	}
}

// Property: for any digest, shares from any k distinct signers combine to a
// signature that verifies; k-1 shares never do.
func TestQuickThresholdProperty(t *testing.T) {
	scheme, signers := deal(t, 4, 9)
	f := func(msg []byte, perm uint32) bool {
		d := sha256.Sum256(msg)
		// Choose 4 distinct signers via the permutation seed.
		idx := map[int]bool{}
		x := perm
		for len(idx) < 4 {
			idx[int(x%9)] = true
			x = x*1664525 + 1013904223
		}
		var shares []Share
		for i := range idx {
			sh, err := signers[i].Sign(d[:])
			if err != nil {
				return false
			}
			shares = append(shares, sh)
		}
		sig, err := scheme.Combine(d[:], shares)
		if err != nil {
			return false
		}
		if scheme.Verify(d[:], sig) != nil {
			return false
		}
		_, err = scheme.Combine(d[:], shares[:3])
		return errors.Is(err, ErrNotEnoughShares)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestInsecureMACMatchesHMAC: a key's pooled HMAC, reset and reused from
// one MAC to the next, gives HMAC-SHA256 byte for byte, and the dealt keys
// are the ones the scheme has always derived: master = HMAC(seed,
// "master/k/n"), signer i's secret = HMAC(master, i as 8 big-endian bytes).
func TestInsecureMACMatchesHMAC(t *testing.T) {
	ref := func(key []byte, msg ...[]byte) []byte {
		m := hmac.New(sha256.New, key)
		for _, b := range msg {
			m.Write(b)
		}
		return m.Sum(nil)
	}
	msg := make([]byte, 201)
	for i := range msg {
		msg[i] = byte(i*7 + 3)
	}
	for _, kl := range []int{0, 1, 32, 64, 65, 100} {
		key := make([]byte, kl)
		for i := range key {
			key[i] = byte(i*13 + kl)
		}
		mk := newMACKey(key)
		for ml := 0; ml <= 200; ml++ {
			want := ref(key, msg[:ml])
			if got := mk.sum(msg[:ml]); !bytes.Equal(got, want) {
				t.Fatalf("key %d bytes, message %d bytes: %x, want %x", kl, ml, got, want)
			}
			if !mk.equal(want, msg[:ml/2], msg[ml/2:ml]) {
				t.Fatalf("key %d bytes, message %d bytes in two pieces: MAC does not verify", kl, ml)
			}
		}
	}

	seed := []byte("test-seed")
	scheme, signers := deal(t, 3, 5)
	master := ref(seed, []byte("master/3/5"))
	d := digestOf("reference")
	if err := scheme.Verify(d, Signature{Data: ref(master, []byte("combined/"), d)}); err != nil {
		t.Fatalf("combined signature differs from HMAC(master, \"combined/\"‖digest): %v", err)
	}
	for _, sg := range signers {
		var id [8]byte
		binary.BigEndian.PutUint64(id[:], uint64(sg.ID()))
		sh, _ := sg.Sign(d)
		if want := ref(ref(master, id[:]), d); !bytes.Equal(sh.Data, want) {
			t.Fatalf("signer %d: share %x, want %x", sg.ID(), sh.Data, want)
		}
	}
}

// TestInsecureSchemeAllocs pins the steady-state allocations of a MAC:
// each key pools its HMACs, so only a share's 32 bytes are allocated.
// Race builds allocate more; the test skips itself there.
func TestInsecureSchemeAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("race builds drop pooled HMACs at random")
	}
	scheme, signers := deal(t, 3, 4)
	d := digestOf("allocs")
	sh, _ := signers[1].Sign(d)
	sig, _ := scheme.CombineVerified(d, []Share{{Signer: 1}, {Signer: 2}, {Signer: 3}})
	for _, c := range []struct {
		name string
		fn   func()
		want float64
	}{
		{"Sign", func() { _, _ = signers[1].Sign(d) }, 1},
		{"VerifyShare", func() { _ = scheme.VerifyShare(d, sh) }, 0},
		{"Verify", func() { _ = scheme.Verify(d, sig) }, 0},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}
