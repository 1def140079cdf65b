package threshbls

// Microbenchmarks for the threshold-BLS hot path (§III): share signing,
// per-share and batched verification, and the three combination modes.
// Run with:
//
//	go test ./internal/crypto/threshbls -bench . -benchtime 10x

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"sbft/internal/crypto/threshsig"
)

// benchInstance deals one (3, 4) instance shared across benchmarks.
func benchInstance(b *testing.B) (*Scheme, []threshsig.Signer) {
	b.Helper()
	s, sgs, err := Dealer{}.Deal(3, 4)
	if err != nil {
		b.Fatalf("Deal: %v", err)
	}
	return s.(*Scheme), sgs
}

func benchShares(b *testing.B, sgs []threshsig.Signer, digest []byte, n int) []threshsig.Share {
	b.Helper()
	shares := make([]threshsig.Share, n)
	for i := 0; i < n; i++ {
		sh, err := sgs[i].Sign(digest)
		if err != nil {
			b.Fatalf("Sign: %v", err)
		}
		shares[i] = sh
	}
	return shares
}

func BenchmarkSign(b *testing.B) {
	_, sgs := benchInstance(b)
	d := sha256.Sum256([]byte("bench sign"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sgs[0].Sign(d[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyShare(b *testing.B) {
	sch, sgs := benchInstance(b)
	d := sha256.Sum256([]byte("bench verify"))
	sh, _ := sgs[0].Sign(d[:])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sch.VerifyShare(d[:], sh); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchVerifyShares(b *testing.B) {
	sch, sgs := benchInstance(b)
	for _, k := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			d := sha256.Sum256([]byte("bench batch verify"))
			shares := benchShares(b, sgs, d[:], k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sch.BatchVerifyShares(d[:], shares); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCombine(b *testing.B) {
	sch, sgs := benchInstance(b)
	d := sha256.Sum256([]byte("bench combine"))
	shares := benchShares(b, sgs, d[:], 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.Combine(d[:], shares); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombineVerified(b *testing.B) {
	sch, sgs := benchInstance(b)
	d := sha256.Sum256([]byte("bench combine verified"))
	shares := benchShares(b, sgs, d[:], 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.CombineVerified(d[:], shares); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombineVerifiedGap combines signers {1, 2, 4}: the Lagrange
// coefficients of a set with a gap are not integers, so this pays the
// full-width multiplication by the cleared denominator's inverse that the
// consecutive set of BenchmarkCombineVerified does not.
func BenchmarkCombineVerifiedGap(b *testing.B) {
	sch, sgs := benchInstance(b)
	d := sha256.Sum256([]byte("bench combine verified"))
	shares := benchShares(b, sgs, d[:], 4)
	shares = append(shares[:2], shares[3])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.CombineVerified(d[:], shares); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	sch, sgs := benchInstance(b)
	d := sha256.Sum256([]byte("bench verify combined"))
	shares := benchShares(b, sgs, d[:], 3)
	sig, err := sch.Combine(d[:], shares)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sch.Verify(d[:], sig); err != nil {
			b.Fatal(err)
		}
	}
}
