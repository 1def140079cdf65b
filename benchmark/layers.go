package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"time"

	"sbft/internal/core"
	"sbft/internal/crypto/bn254"
	"sbft/internal/crypto/threshbls"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/kvstore"
	"sbft/internal/merkle"
	"sbft/internal/snapcodec"
	"sbft/internal/storage"
	"sbft/internal/transport"
)

// Standalone layer timings: one goroutine, fixed iteration counts, one
// layer at a time. They double as the machine reference: if bn254.pair_us
// differs by more than 5% between two sets of runs, the machine changed,
// not the code.

const layerKeys = 8192 // the workloads' state size: 8 slots of 1024 keys

// perCall times n calls of fn and returns the mean.
func perCall(n int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

func layerKey(i int) string { return fmt.Sprintf("c%d/%04d", i/1024, i%1024) }

// layerTimings measures every standalone layer metric. scratch is a
// directory the storage timings may write under.
func layerTimings(scratch string) (map[string]float64, error) {
	out := make(map[string]float64)
	rng := rand.New(rand.NewSource(1))
	value := func() []byte {
		v := make([]byte, 6)
		rng.Read(v)
		return v
	}
	digest := sha256.Sum256([]byte("sbft benchmark layer timings"))
	d := digest[:]

	// crypto: one pairing, then the threshold-BLS calls a slot makes.
	g1, g2 := bn254.G1Generator(), bn254.G2Generator()
	out["bn254.pair_us"] = us(perCall(40, func() { bn254.Pair(g1, g2) }))

	scheme, signers, err := threshbls.Dealer{}.Deal(3, 4)
	if err != nil {
		return nil, err
	}
	bls := scheme.(*threshbls.Scheme)
	shares := make([]threshsig.Share, len(signers))
	for i, s := range signers {
		if shares[i], err = s.Sign(d); err != nil {
			return nil, err
		}
	}
	sig, err := bls.CombineVerified(d, shares[:3])
	if err != nil {
		return nil, err
	}
	out["threshbls.sign_us"] = us(perCall(100, func() { _, err = signers[0].Sign(d) }))
	out["threshbls.verify_share_us"] = us(perCall(30, func() { err = bls.VerifyShare(d, shares[0]) }))
	if err != nil {
		return nil, err
	}
	out["threshbls.batch_verify4_us"] = us(perCall(30, func() { err = bls.BatchVerifyShares(d, shares) }))
	if err != nil {
		return nil, err
	}
	out["threshbls.combine_verified_us"] = us(perCall(100, func() { _, err = bls.CombineVerified(d, shares[:3]) }))
	out["threshbls.verify_us"] = us(perCall(30, func() { err = bls.Verify(d, sig) }))
	if err != nil {
		return nil, err
	}

	cfg := core.DefaultConfig(1, 0)
	suite, keys, err := core.InsecureSuite(cfg, "sbft-benchmark")
	if err != nil {
		return nil, err
	}
	hshare, err := keys[0].Pi.Sign(d)
	if err != nil {
		return nil, err
	}
	out["threshsig.insecure_verify_share_us"] = us(perCall(20000, func() { err = suite.Pi.VerifyShare(d, hshare) }))
	if err != nil {
		return nil, err
	}

	// merkle: the authenticated map at the workloads' state size.
	m := merkle.NewMap()
	for i := 0; i < layerKeys; i++ {
		m.Set(layerKey(i), value())
	}
	out["merkle.map_set_us"] = us(perCall(layerKeys, func() { m.Set(layerKey(rng.Intn(layerKeys)), value()) }))
	out["merkle.prove_key_us"] = us(perCall(2000, func() { _, err = m.ProveKey(layerKey(rng.Intn(layerKeys))) }))
	if err != nil {
		return nil, err
	}

	// kvstore: one block of 64 puts against a filled store.
	store := kvstore.New()
	var fill [][]byte
	for i := 0; i < layerKeys; i++ {
		fill = append(fill, kvstore.Put(layerKey(i), value()))
	}
	store.ExecuteBlock(1, fill)
	seq := uint64(1)
	block := make([][]byte, 64)
	out["kvstore.execute_block64_us"] = us(perCall(200, func() {
		for i := range block {
			block[i] = kvstore.Put(layerKey(rng.Intn(layerKeys)), value())
		}
		seq++
		store.ExecuteBlock(seq, block)
	}))

	// snapcodec and core certstate: a checkpoint capture with 1% of the
	// keys written since the last one, and a warm CaptureCache.
	tracker := snapcodec.NewTracker(0)
	for i := 0; i < layerKeys; i++ {
		tracker.Set(layerKey(i), value())
	}
	cache := new(core.CaptureCache)
	chunks, _ := tracker.EncodeChunks(seq, d)
	snap := core.NewCertifiedSnapshotChunked(seq, d, chunks, nil, cache)
	var encode, capture time.Duration
	const captures = 50
	for i := 0; i < captures; i++ {
		for j := 0; j < layerKeys/100; j++ {
			tracker.Set(layerKey(rng.Intn(layerKeys)), value())
		}
		seq++
		t0 := time.Now()
		chunks, _ = tracker.EncodeChunks(seq, d)
		t1 := time.Now()
		snap = core.NewCertifiedSnapshotChunked(seq, d, chunks, nil, cache)
		encode += t1.Sub(t0)
		capture += time.Since(t1)
	}
	out["snapcodec.encode_chunks_1pct_us"] = us(encode / captures)
	out["core.capture_chunked_us"] = us(capture / captures)

	// core read path: the client-side verification of one certified read.
	reply, key, err := certifiedRead(suite, keys, snap)
	if err != nil {
		return nil, err
	}
	out["core.verify_read_reply_us"] = us(perCall(2000, func() { _, _, err = core.VerifyReadReply(suite, key, 0, reply) }))
	if err != nil {
		return nil, err
	}

	if out["transport.oneway_us"], out["transport.rtt_us"], err = transportTimings(); err != nil {
		return nil, err
	}

	// storage: reported, never gated — fsync on a sandbox disk is not a
	// property of the program.
	dir, err := os.MkdirTemp(scratch, "storage-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	payload := make([]byte, 1024)
	for _, sync := range []bool{true, false} {
		name, n := "storage.append_nosync_us", 2000
		if sync {
			name, n = "storage.append_sync_us", 100
		}
		led, err := storage.Open(fmt.Sprintf("%s/sync-%v", dir, sync), storage.Options{Sync: sync})
		if err != nil {
			return nil, err
		}
		out[name] = us(perCall(n, func() {
			if e := led.Append(led.NextSeq(), payload); e != nil {
				err = e
			}
		}))
		if sync {
			blob := make([]byte, 1<<20)
			out["storage.save_snapshot_1mib_ms"] = ms(perCall(5, func() {
				if e := led.SaveSnapshot(1, blob); e != nil {
					err = e
				}
			}))
		}
		if e := led.Close(); err == nil {
			err = e
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// certifiedRead builds the reply a replica would send for a read of one key
// of snap, as Replica.flushReads does, with a real π certificate.
func certifiedRead(suite core.CryptoSuite, keys []core.ReplicaKeys, snap *core.CertifiedSnapshot) (core.ReadReplyMsg, string, error) {
	var shares []threshsig.Share
	msg := core.CheckpointSigDigest(snap.Seq, snap.Root())
	for _, k := range keys[:suite.Pi.Threshold()] {
		sh, err := k.Pi.Sign(msg)
		if err != nil {
			return core.ReadReplyMsg{}, "", err
		}
		shares = append(shares, sh)
	}
	pi, err := suite.Pi.Combine(msg, shares)
	if err != nil {
		return core.ReadReplyMsg{}, "", err
	}
	key := layerKey(0)
	leaf := 2 + snapcodec.BucketOf(key, int(snap.Header.AppChunks)-1)
	hp, err := snap.ProveHeader()
	if err != nil {
		return core.ReadReplyMsg{}, "", err
	}
	cp, err := snap.ProveChunk(leaf)
	if err != nil {
		return core.ReadReplyMsg{}, "", err
	}
	return core.ReadReplyMsg{
		Status: core.ReadOK, Seq: snap.Seq, Root: snap.Root(), Pi: pi,
		Header: snap.Header, HeaderProof: hp,
		ChunkIndex: leaf, Chunk: snap.Chunks[leaf-1], ChunkProof: cp,
	}, key, nil
}

// funcNode adapts a function to transport.Node.
type funcNode func(from int, msg any)

func (f funcNode) Deliver(from int, msg any) { f(from, msg) }

// transportTimings sends SignShareMsg between two shells on loopback:
// 10 000 pipelined one way (encode, socket, decode, event loop), then 2 000
// ping-pong round trips.
func transportTimings() (oneway, rtt float64, err error) {
	const pipelined, rounds = 10000, 2000
	peers := make(map[int]string)
	a, err := transport.NewShell(1, "127.0.0.1:0", peers)
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := transport.NewShell(2, "127.0.0.1:0", peers)
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	peers[1], peers[2] = a.Addr(), b.Addr()

	msg := core.SignShareMsg{Seq: 1, Replica: 1,
		SigmaSig: threshsig.Share{Signer: 1, Data: make([]byte, 33)},
		TauSig:   threshsig.Share{Signer: 1, Data: make([]byte, 33)}}
	received := 0
	done := make(chan struct{})
	echo := false
	b.Start(funcNode(func(from int, m any) {
		if echo {
			b.Send(from, m.(core.SignShareMsg))
			return
		}
		if received++; received == pipelined {
			close(done)
		}
	}))
	pongs := make(chan struct{}, 1) // one ping is in flight at a time
	a.Start(funcNode(func(int, any) { pongs <- struct{}{} }))
	a.AnnounceAll()
	b.AnnounceAll()

	timeout := time.After(30 * time.Second)
	start := time.Now()
	for i := 0; i < pipelined; i++ {
		a.Send(2, msg)
	}
	select {
	case <-done:
	case <-timeout:
		return 0, 0, fmt.Errorf("transport timing: %d pipelined messages not delivered in 30s", pipelined)
	}
	oneway = us(time.Since(start) / pipelined)

	b.Do(func() { echo = true })
	start = time.Now()
	for i := 0; i < rounds; i++ {
		a.Send(2, msg)
		select {
		case <-pongs:
		case <-timeout:
			return 0, 0, fmt.Errorf("transport timing: round trip %d got no reply", i)
		}
	}
	return oneway, us(time.Since(start) / rounds), nil
}
