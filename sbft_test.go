package sbft_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sbft"
	"sbft/internal/crypto/threshbls"
	"sbft/internal/crypto/threshsig"
)

type sbftShare = threshsig.Share

func TestFacadeClusterEndToEnd(t *testing.T) {
	cl, err := sbft.NewCluster(sbft.ClusterOptions{
		Protocol: sbft.ProtoSBFT, F: 1, C: 0,
		App: sbft.AppKV, Clients: 2, Seed: 5,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	res := cl.RunClosedLoop(5, func(client, i int) []byte {
		return sbft.Put(fmt.Sprintf("k%d-%d", client, i), []byte("v"))
	}, time.Minute)
	if res.Completed != 10 {
		t.Fatalf("completed %d of 10", res.Completed)
	}
	d := cl.Apps[1].Digest()
	for id := 2; id <= cl.N; id++ {
		if !bytes.Equal(cl.Apps[id].Digest(), d) {
			t.Fatalf("replica %d digest differs", id)
		}
	}
}

func TestFacadeConfigAndOps(t *testing.T) {
	cfg := sbft.DefaultConfig(2, 1)
	if cfg.N() != 9 {
		t.Fatalf("N = %d, want 9", cfg.N())
	}
	for _, op := range [][]byte{sbft.Put("k", []byte("v")), sbft.Get("k"), sbft.Delete("k")} {
		if len(op) == 0 {
			t.Fatal("empty encoded op")
		}
	}
	if sbft.ClientBase <= cfg.N() {
		t.Fatal("client id space overlaps replicas")
	}
}

func TestFacadeDealSuiteWithRealBLS(t *testing.T) {
	cfg := sbft.DefaultConfig(1, 0)
	suite, keys, err := sbft.DealSuite(cfg, threshbls.Dealer{})
	if err != nil {
		t.Fatalf("DealSuite: %v", err)
	}
	if len(keys) != cfg.N() {
		t.Fatalf("keys = %d", len(keys))
	}
	// End-to-end sign/combine/verify through the facade types.
	d := []byte("facade digest 0123456789abcdef01")
	sh1, err := keys[0].Pi.Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	sh2, err := keys[1].Pi.Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := suite.Pi.Combine(d, []sbftShare{sh1, sh2})
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}
	if err := suite.Pi.Verify(d, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestFacadeWANProfiles(t *testing.T) {
	c := sbft.ContinentProfile(1)
	w := sbft.WorldProfile(1)
	if c.Regions >= w.Regions {
		t.Fatal("world profile should span more regions than continent")
	}
	netCfg := sbft.WorldProfile(2)
	cl, err := sbft.NewCluster(sbft.ClusterOptions{
		Protocol: sbft.ProtoSBFT, F: 1, C: 0,
		App: sbft.AppKV, Clients: 1, Seed: 2, NetCfg: &netCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := cl.RunClosedLoop(3, func(int, int) []byte { return sbft.Put("k", []byte("v")) }, time.Minute)
	if res.Completed != 3 {
		t.Fatalf("completed %d of 3 on world WAN", res.Completed)
	}
}
