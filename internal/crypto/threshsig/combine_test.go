package threshsig_test

import (
	"testing"

	"sbft/internal/crypto/threshsig"
	"sbft/internal/crypto/threshsig/sigtest"
)

func TestInsecureCombineRobust(t *testing.T) {
	scheme, signers, err := threshsig.InsecureDealer{Seed: []byte("test-seed")}.Deal(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	sigtest.CombineRobust(t, scheme, signers, 200)
}
