package core

import (
	"bytes"
	"fmt"
	"testing"

	"sbft/internal/crypto/threshsig"
	"sbft/internal/merkle"
	"sbft/internal/snapcodec"
)

// readFixture is a π-certified bucketed snapshot with known contents,
// the ground truth every VerifyReadReply test and the fuzz target mutate
// away from.
type readFixture struct {
	suite   CryptoSuite
	cs      *CertifiedSnapshot
	kv      map[string][]byte
	buckets int
}

// certify combines a real π certificate over (seq, root) from the first
// QuorumExec signers.
func certify(tb testing.TB, suite CryptoSuite, keys []ReplicaKeys, seq uint64, root []byte) threshsig.Signature {
	tb.Helper()
	d := CheckpointSigDigest(seq, root)
	var shares []threshsig.Share
	for i := 0; i < suite.Pi.Threshold(); i++ {
		sh, err := keys[i].Pi.Sign(d)
		if err != nil {
			tb.Fatalf("π share: %v", err)
		}
		shares = append(shares, sh)
	}
	cert, err := suite.Pi.Combine(d, shares)
	if err != nil {
		tb.Fatalf("π combine: %v", err)
	}
	return cert
}

func newReadFixture(tb testing.TB) *readFixture {
	tb.Helper()
	cfg := DefaultConfig(1, 0)
	suite, keys, err := InsecureSuite(cfg, "read-verify")
	if err != nil {
		tb.Fatalf("InsecureSuite: %v", err)
	}
	const buckets = 8
	tr := snapcodec.NewTracker(buckets)
	kv := make(map[string][]byte)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key/%d", i)
		v := []byte(fmt.Sprintf("val-%d", i))
		tr.Set(k, v)
		kv[k] = v
	}
	chunks, _ := tr.EncodeChunks(42, []byte("app-digest"))
	cs := NewCertifiedSnapshotChunked(42, []byte("app-digest"), chunks, []byte("reply-table"), nil)
	cs.Pi = certify(tb, suite, keys, cs.Seq, cs.Root())
	return &readFixture{suite: suite, cs: cs, kv: kv, buckets: buckets}
}

// reply builds the honest ReadOK reply for key, exactly as flushReads
// would.
func (fx *readFixture) reply(tb testing.TB, key string) ReadReplyMsg {
	tb.Helper()
	leaf := 2 + snapcodec.BucketOf(key, fx.buckets)
	hp, err := fx.cs.ProveHeader()
	if err != nil {
		tb.Fatalf("ProveHeader: %v", err)
	}
	cp, err := fx.cs.ProveChunk(leaf)
	if err != nil {
		tb.Fatalf("ProveChunk(%d): %v", leaf, err)
	}
	return ReadReplyMsg{
		Client: ClientBase, Nonce: 1, Replica: 1,
		Status: ReadOK, Seq: fx.cs.Seq,
		Root: append([]byte(nil), fx.cs.Root()...),
		Pi:   fx.cs.Pi, Header: fx.cs.Header, HeaderProof: hp,
		ChunkIndex: leaf,
		Chunk:      append([]byte(nil), fx.cs.Chunks[leaf-1]...),
		ChunkProof: cp,
	}
}

// keyInBucket finds a fixture key routed to bucket b.
func (fx *readFixture) keyInBucket(tb testing.TB, b int) string {
	tb.Helper()
	for k := range fx.kv {
		if snapcodec.BucketOf(k, fx.buckets) == b {
			return k
		}
	}
	tb.Fatalf("no fixture key in bucket %d", b)
	return ""
}

func TestVerifyReadReply(t *testing.T) {
	fx := newReadFixture(t)
	firstKey := fx.keyInBucket(t, 0)           // leaf 2: the FIRST app data chunk
	lastKey := fx.keyInBucket(t, fx.buckets-1) // leaf 1+buckets: the LAST app chunk boundary
	midKey := "key/7"

	cases := []struct {
		name    string
		key     string
		minSeq  uint64
		mutate  func(*ReadReplyMsg)
		wantErr string // substring; "" means accept
		found   bool
	}{
		{name: "valid present key", key: midKey, found: true},
		{name: "valid at exact floor", key: midKey, minSeq: 42, found: true},
		{name: "certified absence", key: "never-written", found: false},
		{name: "first bucket boundary (leaf 2)", key: firstKey, found: true},
		{name: "last bucket boundary", key: lastKey, found: true},
		{
			name: "stale below freshness floor", key: midKey, minSeq: 43,
			wantErr: "below floor",
		},
		{
			name: "refusal status never verifies", key: midKey,
			mutate:  func(m *ReadReplyMsg) { m.Status = ReadBehind },
			wantErr: "status",
		},
		{
			name: "inflated sequence breaks the certificate", key: midKey,
			mutate:  func(m *ReadReplyMsg) { m.Seq += 3 },
			wantErr: "certificate",
		},
		{
			name: "truncated certificate", key: midKey,
			mutate:  func(m *ReadReplyMsg) { m.Pi.Data = m.Pi.Data[:len(m.Pi.Data)/2] },
			wantErr: "certificate",
		},
		{
			name: "tampered root", key: midKey,
			mutate:  func(m *ReadReplyMsg) { m.Root[0] ^= 0x01 },
			wantErr: "certificate",
		},
		{
			name: "tampered header", key: midKey,
			mutate:  func(m *ReadReplyMsg) { m.Header.AppChunks++ },
			wantErr: "header",
		},
		{
			name: "header-leaf attack: chunk index 0", key: midKey,
			mutate: func(m *ReadReplyMsg) {
				m.ChunkIndex = 0
				m.Chunk = headerLeaf(m.Header)
				m.ChunkProof = m.HeaderProof
			},
			wantErr: "routes to",
		},
		{
			name: "prelude attack: chunk index 1", key: midKey,
			mutate: func(m *ReadReplyMsg) {
				m.ChunkIndex = 1
			},
			wantErr: "routes to",
		},
		{
			name: "tampered chunk bytes", key: midKey,
			mutate:  func(m *ReadReplyMsg) { m.Chunk[len(m.Chunk)/2] ^= 0x80 },
			wantErr: "chunk",
		},
		{
			name: "corrupted proof step", key: midKey,
			mutate:  func(m *ReadReplyMsg) { m.ChunkProof.Steps[0].Hash[0] ^= 0x40 },
			wantErr: "chunk",
		},
		{
			name: "flipped proof orientation", key: midKey,
			mutate: func(m *ReadReplyMsg) {
				m.ChunkProof.Steps[0].Right = !m.ChunkProof.Steps[0].Right
			},
			wantErr: "chunk",
		},
		{
			name: "dropped proof step", key: midKey,
			mutate: func(m *ReadReplyMsg) {
				m.ChunkProof.Steps = m.ChunkProof.Steps[:len(m.ChunkProof.Steps)-1]
			},
			wantErr: "chunk",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := fx.reply(t, tc.key)
			if tc.mutate != nil {
				tc.mutate(&m)
			}
			val, found, err := VerifyReadReply(fx.suite, tc.key, tc.minSeq, m)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("accepted, want error containing %q", tc.wantErr)
				}
				if !bytes.Contains([]byte(err.Error()), []byte(tc.wantErr)) {
					t.Fatalf("error %q, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if found != tc.found {
				t.Fatalf("found=%v, want %v", found, tc.found)
			}
			if tc.found && !bytes.Equal(val, fx.kv[tc.key]) {
				t.Fatalf("value %q, want %q", val, fx.kv[tc.key])
			}
		})
	}
}

// TestVerifyReadReplyWrongBucket pins the key→bucket routing check: a
// perfectly valid (certified, proven) chunk for a DIFFERENT bucket must
// be rejected — otherwise a replica could answer any read with whichever
// committed chunk omits the key and fake an absence.
func TestVerifyReadReplyWrongBucket(t *testing.T) {
	fx := newReadFixture(t)
	key := fx.keyInBucket(t, 3)
	m := fx.reply(t, fx.keyInBucket(t, 5)) // honest reply for another bucket
	m2 := m
	if _, _, err := VerifyReadReply(fx.suite, key, 0, m2); err == nil {
		t.Fatal("accepted a valid chunk for the wrong bucket")
	}
}

// TestVerifyReadReplyRelabeledProof pins index binding inside the proof
// itself: taking another leaf's proof and relabeling its Index to the
// routed leaf must fail even though every step hash is genuine.
func TestVerifyReadReplyRelabeledProof(t *testing.T) {
	fx := newReadFixture(t)
	key := fx.keyInBucket(t, 3)
	m := fx.reply(t, key)
	other, err := fx.cs.ProveChunk(2 + 5)
	if err != nil {
		t.Fatal(err)
	}
	other.Index = m.ChunkIndex // relabel
	m.ChunkProof = other
	if _, _, err := VerifyReadReply(fx.suite, key, 0, m); err == nil {
		t.Fatal("accepted a relabeled proof")
	}
}

// TestVerifyReadReplyNonBucketed pins the AppChunks ≥ 2 requirement: a
// genuinely certified snapshot whose app state is one chunk (no bucket
// prelude and buckets) cannot serve key reads, however valid its
// certificate.
func TestVerifyReadReplyNonBucketed(t *testing.T) {
	cfg := DefaultConfig(1, 0)
	suite, keys, err := InsecureSuite(cfg, "read-verify")
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCertifiedSnapshotChunked(9, []byte("d"), [][]byte{[]byte("one-app-chunk")}, []byte("table"), nil)
	cs.Pi = certify(t, suite, keys, cs.Seq, cs.Root())
	hp, err := cs.ProveHeader()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := cs.ProveChunk(1)
	if err != nil {
		t.Fatal(err)
	}
	m := ReadReplyMsg{
		Status: ReadOK, Seq: cs.Seq, Root: cs.Root(), Pi: cs.Pi,
		Header: cs.Header, HeaderProof: hp, ChunkIndex: 1, Chunk: cs.Chunks[0], ChunkProof: cp,
	}
	if _, _, err := VerifyReadReply(suite, "any", 0, m); err == nil {
		t.Fatal("accepted a read against a non-bucketed snapshot")
	}
}

// cloneReply deep-copies a reply so fuzz mutations never alias the
// pristine fixture.
func cloneReply(m ReadReplyMsg) ReadReplyMsg {
	out := m
	out.Root = append([]byte(nil), m.Root...)
	out.Pi.Data = append([]byte(nil), m.Pi.Data...)
	out.Header.AppDigest = append([]byte(nil), m.Header.AppDigest...)
	out.HeaderProof.Steps = append([]merkle.ProofStep(nil), m.HeaderProof.Steps...)
	out.Chunk = append([]byte(nil), m.Chunk...)
	out.ChunkProof.Steps = append([]merkle.ProofStep(nil), m.ChunkProof.Steps...)
	return out
}

// FuzzReadProofVerify drives VerifyReadReply with directive-encoded
// mutations of a genuine certified reply. The invariant is exact: any
// accepted reply must be semantically identical to the honest one —
// same certified (seq, root), same value, same presence verdict. A
// mutation that changes any of those AND is accepted is a forged proof
// the client failed to catch.
func FuzzReadProofVerify(f *testing.F) {
	fx := newReadFixture(f)
	const key = "key/7"
	want := fx.kv[key]
	base := fx.reply(f, key)
	baseRoot := append([]byte(nil), base.Root...)

	f.Add([]byte{})
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{1, 0, 1, 4, 2, 9})
	f.Add([]byte{3, 1, 0, 5, 0, 7})
	f.Add([]byte{9, 0, 0, 2, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := cloneReply(base)
		for i := 0; i+2 < len(data); i += 3 {
			a, b := int(data[i+1]), data[i+2]
			switch data[i] % 10 {
			case 0:
				if len(m.Chunk) > 0 {
					m.Chunk[a%len(m.Chunk)] ^= b
				}
			case 1:
				if n := len(m.ChunkProof.Steps); n > 0 {
					m.ChunkProof.Steps[a%n].Hash[int(b)%merkle.DigestSize] ^= 1
				}
			case 2:
				if n := len(m.ChunkProof.Steps); n > 0 {
					s := &m.ChunkProof.Steps[a%n]
					s.Right = !s.Right
				}
			case 3:
				m.ChunkIndex += a - int(b)
			case 4:
				m.Seq += uint64(a)
			case 5:
				if len(m.Root) > 0 {
					m.Root[a%len(m.Root)] ^= b
				}
			case 6:
				if len(m.Pi.Data) > 0 {
					m.Pi.Data[a%len(m.Pi.Data)] ^= b
				}
			case 7:
				switch b % 4 {
				case 0:
					m.Header.AppChunks += uint32(a)
				case 1:
					m.Header.AppLen += uint64(a)
				case 2:
					m.Header.TableLen += uint64(a)
				default:
					if len(m.Header.AppDigest) > 0 {
						m.Header.AppDigest[a%len(m.Header.AppDigest)] ^= b
					}
				}
			case 8:
				if n := len(m.Chunk); n > 0 {
					m.Chunk = m.Chunk[:a%n]
				}
			case 9:
				if n := len(m.ChunkProof.Steps); n > 0 {
					j := a % n
					m.ChunkProof.Steps = append(m.ChunkProof.Steps[:j], m.ChunkProof.Steps[j+1:]...)
				}
			}
		}
		val, found, err := VerifyReadReply(fx.suite, key, 0, m)
		if err != nil {
			return // rejected — the desired outcome for any effective forgery
		}
		if m.Seq != base.Seq || !bytes.Equal(m.Root, baseRoot) {
			t.Fatalf("accepted forged certificate: seq=%d root=%x", m.Seq, m.Root)
		}
		if !found || !bytes.Equal(val, want) {
			t.Fatalf("accepted forged value: found=%v val=%q want=%q", found, val, want)
		}
	})
}
