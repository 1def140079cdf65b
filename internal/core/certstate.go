package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"sbft/internal/crypto/threshsig"
	"sbft/internal/merkle"
	"sbft/internal/snapcodec"
)

// This file defines the certified execution state: the canonical,
// Merkle-committed encoding of everything a recovering replica needs to
// resume deterministic execution — the application snapshot AND the
// last-reply/client-timestamp table of the exactly-once execution filter.
// The Merkle root over this encoding is the digest replicas threshold-sign
// at checkpoints (π, f+1), so a single honest snapshot server suffices for
// state transfer (§V-F, §VIII) and — unlike the earlier design, where the
// reply table rode alongside the snapshot uncertified — a Byzantine
// snapshot server cannot perturb dedup state: every transferred chunk is
// verified leaf-by-leaf against the threshold-signed root, and a server
// whose chunk fails verification is blamed and excluded.
//
// Layout of the commitment tree (internal/merkle, domain-separated leaves):
//
//	leaf 0               header: app digest, app/table byte lengths, chunk size, app chunk count
//	leaf 1 .. n_a        the app chunks, as Application.SnapshotChunks returned them
//	leaf n_a+1 .. n_a+n_t   canonical reply-table bytes, split into ChunkSize pieces
//
// Determinism contract: Application.SnapshotChunks must produce identical
// chunks on replicas with identical state (the kvstore and evm apps encode
// key-sorted buckets), and the reply table is serialized sorted by client
// id — so every honest replica computes the same root at the same
// checkpoint sequence and the π quorum forms.

// SnapshotChunkSize is the number of reply-table bytes committed per
// Merkle leaf (and transferred per SnapshotChunkMsg); app chunks keep the
// lengths the application gave them.
const SnapshotChunkSize = 8 * 1024

// maxSnapshotLen bounds a header's claimed byte lengths; a sanity guard
// against allocation bombs from malformed (never certified) metadata.
const maxSnapshotLen = 1 << 31

// SnapshotHeader is leaf 0 of the commitment tree: the shape of the
// certified state. AppDigest is the application's own state root at the
// checkpoint sequence (digest(D), §IV), retained for defense in depth —
// after chunk-verified restoration the application digest must match it.
type SnapshotHeader struct {
	AppDigest []byte
	AppLen    uint64
	TableLen  uint64
	ChunkSize uint32
	// AppChunks is the number of app chunks. Their lengths are the
	// application's (one chunk per bucket for the kvstore and evm apps),
	// so only AppLen bounds each; the table chunks use the fixed
	// ChunkSize split.
	AppChunks uint32
}

// AppendSnapshotHeader appends the header's binary form for a socket frame
// or a stored snapshot (headerLeaf is the form that is HASHED, fixed-width
// and frozen; this one is only carried).
func AppendSnapshotHeader(b []byte, h SnapshotHeader) []byte {
	b = snapcodec.AppendBytes(b, h.AppDigest)
	b = snapcodec.AppendUint(b, h.AppLen)
	b = snapcodec.AppendUint(b, h.TableLen)
	b = snapcodec.AppendUint(b, uint64(h.ChunkSize))
	return snapcodec.AppendUint(b, uint64(h.AppChunks))
}

// ReadSnapshotHeader reads what AppendSnapshotHeader wrote.
func ReadSnapshotHeader(r *snapcodec.Reader) SnapshotHeader {
	return SnapshotHeader{
		AppDigest: r.Bytes(), AppLen: r.Uint(), TableLen: r.Uint(),
		ChunkSize: r.Uint32(), AppChunks: r.Uint32(),
	}
}

// maxAppChunks bounds a header's declared app chunk count; a sanity guard
// against allocation bombs from malformed (never certified) metadata.
const maxAppChunks = 1 << 20

// tableChunks is the number of reply-table chunks: ceil(TableLen / ChunkSize).
func (h SnapshotHeader) tableChunks() int {
	if h.TableLen == 0 {
		return 0
	}
	return int((h.TableLen + uint64(h.ChunkSize) - 1) / uint64(h.ChunkSize))
}

// NumChunks reports the number of data chunks (Merkle leaves past the
// header) the certified snapshot carries.
func (h SnapshotHeader) NumChunks() int { return int(h.AppChunks) + h.tableChunks() }

// chunkLen reports the exact byte length of 1-based chunk index i, or -1
// for an app chunk (whose exact content only the leaf hash authenticates).
func (h SnapshotHeader) chunkLen(i int) int {
	i -= int(h.AppChunks)
	if i <= 0 {
		return -1
	}
	if rem := h.TableLen % uint64(h.ChunkSize); i == h.tableChunks() && rem != 0 {
		return int(rem)
	}
	return int(h.ChunkSize)
}

// valid performs cheap structural sanity checks (the certified root is
// what actually authenticates a header; this only guards allocations). A
// header with app bytes but no app chunks is the retired fixed-split
// layout, and is refused.
func (h SnapshotHeader) valid() bool {
	return h.ChunkSize > 0 && h.ChunkSize <= 1<<20 &&
		h.AppLen <= maxSnapshotLen && h.TableLen <= maxSnapshotLen &&
		h.AppChunks <= maxAppChunks && (h.AppChunks > 0 || h.AppLen == 0) &&
		len(h.AppDigest) <= 64
}

// headerLeaf is the canonical leaf-0 encoding.
func headerLeaf(h SnapshotHeader) []byte {
	buf := make([]byte, 0, 40+len(h.AppDigest))
	buf = append(buf, []byte("sbft:snap-hdr")...)
	buf = binary.BigEndian.AppendUint64(buf, h.AppLen)
	buf = binary.BigEndian.AppendUint64(buf, h.TableLen)
	buf = binary.BigEndian.AppendUint32(buf, h.ChunkSize)
	buf = binary.BigEndian.AppendUint32(buf, h.AppChunks)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(h.AppDigest)))
	buf = append(buf, h.AppDigest...)
	return buf
}

// chunkLeafHash is the commitment-tree leaf of a data chunk:
// merkle.LeafHash("sbft:snap-chunk" ‖ index ‖ data), streamed so the
// chunk is hashed where it lies. Binding the 1-based leaf index means a
// correct proof for chunk i can never authenticate its bytes at position j.
func chunkLeafHash(index int, data []byte) merkle.Digest {
	pre := append(make([]byte, 0, 24), "\x00sbft:snap-chunk"...)
	h := sha256.New()
	h.Write(binary.BigEndian.AppendUint64(pre, uint64(index)))
	h.Write(data)
	var d merkle.Digest
	h.Sum(d[:0])
	return d
}

// splitChunks cuts data into ChunkSize pieces (no copy; callers treat the
// result as read-only).
func splitChunks(data []byte, size uint32) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n := int(size)
		if n > len(data) {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// CertifiedSnapshot is one checkpoint's certified execution state: the
// chunked snapshot, its commitment tree, and (once stable) the π
// certificate over the root.
type CertifiedSnapshot struct {
	Seq    uint64
	Header SnapshotHeader
	Chunks [][]byte
	// Pi is the threshold certificate over CheckpointSigDigest(Seq, Root());
	// zero until the checkpoint stabilizes.
	Pi threshsig.Signature

	root []byte
	tree *merkle.Tree
}

// CaptureCache carries the app-chunk leaf hashes of one replica's latest
// capture across checkpoints. Clean chunks are recognized by slice
// identity (the incremental capture contract: an unchanged chunk is
// returned as the identical byte slice), so their leaf hashes are reused
// and the per-checkpoint hashing cost follows the write rate, not the
// state size.
type CaptureCache struct {
	chunks [][]byte
	leaves []merkle.Digest
	dirty  int
}

// DirtyChunks reports how many app chunks were re-hashed at the most
// recent capture through this cache.
func (c *CaptureCache) DirtyChunks() int { return c.dirty }

// sameSlice reports whether two slices are the identical memory region.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// hash returns the leaf hashes of a capture's app chunks, re-hashing only
// the chunks whose slices changed since the previous capture, and keeps
// this capture for the next. A nil cache returns nil: build hashes every
// chunk.
func (c *CaptureCache) hash(chunks [][]byte) []merkle.Digest {
	if c == nil {
		return nil
	}
	leaves := make([]merkle.Digest, len(chunks))
	c.dirty = 0
	for i, chunk := range chunks {
		if i < len(c.chunks) && sameSlice(c.chunks[i], chunk) {
			leaves[i] = c.leaves[i]
		} else {
			leaves[i] = chunkLeafHash(i+1, chunk)
			c.dirty++
		}
	}
	c.chunks, c.leaves = append([][]byte(nil), chunks...), leaves
	return leaves
}

// NewCertifiedSnapshotChunked commits an application's snapshot chunks
// plus the canonical reply-table bytes for a checkpoint sequence. With a
// cache from the previous capture, only chunks whose slices changed are
// re-hashed.
func NewCertifiedSnapshotChunked(seq uint64, appDigest []byte, appChunks [][]byte, tableBytes []byte, cache *CaptureCache) *CertifiedSnapshot {
	var appLen uint64
	for _, c := range appChunks {
		appLen += uint64(len(c))
	}
	cs := &CertifiedSnapshot{
		Seq: seq,
		Header: SnapshotHeader{
			AppDigest: append([]byte(nil), appDigest...),
			AppLen:    appLen,
			TableLen:  uint64(len(tableBytes)),
			ChunkSize: SnapshotChunkSize,
			AppChunks: uint32(len(appChunks)),
		},
	}
	cs.Chunks = slices.Concat(appChunks, splitChunks(tableBytes, SnapshotChunkSize))
	cs.build(cache.hash(appChunks))
	return cs
}

// build computes the commitment tree from Header and Chunks. The leaves of
// the first len(known) chunks are taken from known; the rest are hashed.
func (cs *CertifiedSnapshot) build(known []merkle.Digest) {
	leaves := make([]merkle.Digest, 1+len(cs.Chunks))
	leaves[0] = merkle.LeafHash(headerLeaf(cs.Header))
	for i := copy(leaves[1:], known); i < len(cs.Chunks); i++ {
		leaves[i+1] = chunkLeafHash(i+1, cs.Chunks[i])
	}
	cs.tree = merkle.NewTreeFromHashes(leaves)
	root := cs.tree.Root()
	cs.root = root[:]
}

// Root returns the Merkle root — the digest threshold-signed at this
// checkpoint.
func (cs *CertifiedSnapshot) Root() []byte { return cs.root }

// ProveHeader returns the membership proof of leaf 0.
func (cs *CertifiedSnapshot) ProveHeader() (merkle.Proof, error) { return cs.tree.Prove(0) }

// ProveChunk returns the membership proof of 1-based chunk index i.
func (cs *CertifiedSnapshot) ProveChunk(i int) (merkle.Proof, error) { return cs.tree.Prove(i) }

// Leaves returns the commitment tree's leaf hashes: the header's at 0,
// then chunk i's at i. Read-only. A snapshot meta carries them, so a
// fetcher verifies the whole list against the root once and then takes
// every chunk it already holds under an equal leaf.
func (cs *CertifiedSnapshot) Leaves() []merkle.Digest { return cs.tree.Leaves() }

// verifySnapshotLeaves checks a snapshot meta: its leaf list has one leaf
// per chunk of the header plus the header's own at 0, hashes to the root,
// and π certifies that root at Seq. After this a chunk is authentic when
// its leaf hash equals the list's entry at its index.
func verifySnapshotLeaves(pi threshsig.Scheme, m SnapshotMetaMsg) error {
	if !m.Header.valid() {
		return fmt.Errorf("core: malformed snapshot header")
	}
	if len(m.Leaves) != 1+m.Header.NumChunks() {
		return fmt.Errorf("core: %d snapshot leaves for %d chunks", len(m.Leaves), m.Header.NumChunks())
	}
	if m.Leaves[0] != merkle.LeafHash(headerLeaf(m.Header)) {
		return fmt.Errorf("core: snapshot leaf 0 is not the header's")
	}
	if root := merkle.NewTreeFromHashes(m.Leaves).Root(); !bytes.Equal(root[:], m.Root) {
		return fmt.Errorf("core: snapshot leaves do not hash to the root")
	}
	return pi.Verify(CheckpointSigDigest(m.Seq, m.Root), m.Pi)
}

// chunkFits checks that data has a length chunk i can have: a table
// chunk's exactly, an app chunk's (whose exact content only its leaf
// authenticates) at most the app total, which bounds the allocation.
func (h SnapshotHeader) chunkFits(i int, data []byte) error {
	if want := h.chunkLen(i); want < 0 {
		if uint64(len(data)) > h.AppLen {
			return fmt.Errorf("core: snapshot chunk %d has %d bytes, app total %d", i, len(data), h.AppLen)
		}
	} else if len(data) != want {
		return fmt.Errorf("core: snapshot chunk %d has %d bytes, want %d", i, len(data), want)
	}
	return nil
}

// VerifySnapshotHeader checks a header against a certified root.
func VerifySnapshotHeader(root []byte, h SnapshotHeader, p merkle.Proof) error {
	if !h.valid() {
		return fmt.Errorf("core: malformed snapshot header")
	}
	if p.Index != 0 {
		return fmt.Errorf("core: snapshot header proof at index %d", p.Index)
	}
	var rd merkle.Digest
	if len(root) != merkle.DigestSize {
		return fmt.Errorf("core: snapshot root length %d", len(root))
	}
	copy(rd[:], root)
	// Index-binding verification: the proof must have the exact shape of
	// leaf 0 in the 1+NumChunks()-leaf commitment tree, so a proof for a
	// different leaf cannot be replayed as the header's.
	return merkle.VerifyLeafAt(rd, headerLeaf(h), p, 1+h.NumChunks())
}

// VerifySnapshotChunk checks a data chunk at 1-based index i against a
// certified root and its header.
func VerifySnapshotChunk(root []byte, h SnapshotHeader, i int, data []byte, p merkle.Proof) error {
	if i < 1 || i > h.NumChunks() {
		return fmt.Errorf("core: snapshot chunk index %d of %d", i, h.NumChunks())
	}
	if err := h.chunkFits(i, data); err != nil {
		return err
	}
	if p.Index != i {
		return fmt.Errorf("core: snapshot chunk proof at index %d, want %d", p.Index, i)
	}
	var rd merkle.Digest
	if len(root) != merkle.DigestSize {
		return fmt.Errorf("core: snapshot root length %d", len(root))
	}
	copy(rd[:], root)
	// Index-binding verification (see VerifySnapshotHeader).
	if err := merkle.CheckProofShape(p, 1+h.NumChunks()); err != nil {
		return err
	}
	return merkle.VerifyLeafHash(rd, chunkLeafHash(i, data), p)
}

// AssembleSnapshot reassembles (app snapshot bytes, reply-table bytes)
// from a complete, individually verified chunk list.
func AssembleSnapshot(h SnapshotHeader, chunks [][]byte) (app, table []byte, err error) {
	if len(chunks) != h.NumChunks() {
		return nil, nil, fmt.Errorf("core: %d chunks, want %d", len(chunks), h.NumChunks())
	}
	var all []byte
	for _, c := range chunks {
		all = append(all, c...)
	}
	if uint64(len(all)) != h.AppLen+h.TableLen {
		return nil, nil, fmt.Errorf("core: assembled %d bytes, want %d", len(all), h.AppLen+h.TableLen)
	}
	return all[:h.AppLen], all[h.AppLen:], nil
}

// ---------------------------------------------------------------------------
// Canonical reply-table encoding.

// encodeReplyTable serializes the last-reply table sorted by client id:
// the canonical byte form committed inside the checkpoint digest.
func encodeReplyTable(cache map[int]replyCacheEntry) []byte {
	clients := make([]int, 0, len(cache))
	for c := range cache {
		clients = append(clients, c)
	}
	sort.Ints(clients)
	buf := make([]byte, 0, 8+48*len(clients))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(clients)))
	for _, c := range clients {
		e := cache[c]
		buf = binary.BigEndian.AppendUint64(buf, uint64(c))
		buf = binary.BigEndian.AppendUint64(buf, e.timestamp)
		buf = binary.BigEndian.AppendUint64(buf, e.seq)
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.l))
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(e.val)))
		buf = append(buf, e.val...)
	}
	return buf
}

// decodeReplyTable parses the canonical reply-table encoding.
func decodeReplyTable(data []byte) (map[int]replyCacheEntry, error) {
	r := snapcodec.NewReader(data)
	n := r.Count64(40) // an entry is five 8-byte fields and its value
	out := make(map[int]replyCacheEntry, n)
	for i := 0; i < n; i++ {
		client := int(r.U64())
		out[client] = replyCacheEntry{timestamp: r.U64(), seq: r.U64(), l: int(r.U64()), val: bytes.Clone(r.Bytes64())}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: reply table: %w", err)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Durable form (storage.Ledger snapshot files).

// Encode serializes the snapshot for the SnapshotStore — version, sequence,
// header, a count and each chunk, then the π certificate, so a restarted
// replica can serve state transfer before reaching its next checkpoint.
func (cs *CertifiedSnapshot) Encode() []byte {
	size := 64 + len(cs.Header.AppDigest) + len(cs.Pi.Data)
	for _, c := range cs.Chunks {
		size += 10 + len(c)
	}
	b := snapcodec.AppendUint(append(make([]byte, 0, size), recordVersion), cs.Seq)
	b = AppendSnapshotHeader(b, cs.Header)
	b = snapcodec.AppendByteSlices(b, cs.Chunks)
	return snapcodec.AppendBytes(b, cs.Pi.Data)
}

// DecodeCertifiedSnapshot parses a stored snapshot and rebuilds its
// commitment tree; the chunks alias data. Callers must still verify the π
// certificate over (Seq, Root()) before serving or trusting it.
func DecodeCertifiedSnapshot(data []byte) (*CertifiedSnapshot, error) {
	r, err := openRecord("stored snapshot", data)
	if err != nil {
		return nil, err
	}
	cs := &CertifiedSnapshot{Seq: r.Uint(), Header: ReadSnapshotHeader(&r), Chunks: r.ByteSlices(),
		Pi: threshsig.Signature{Data: r.Bytes()}}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: decoding stored snapshot: %w", err)
	}
	if !cs.Header.valid() || len(cs.Chunks) != cs.Header.NumChunks() {
		return nil, fmt.Errorf("core: stored snapshot shape mismatch")
	}
	var appSum uint64
	for i, c := range cs.Chunks {
		if want := cs.Header.chunkLen(i + 1); want < 0 {
			appSum += uint64(len(c))
		} else if len(c) != want {
			return nil, fmt.Errorf("core: stored snapshot chunk %d length mismatch", i+1)
		}
	}
	if appSum != cs.Header.AppLen {
		return nil, fmt.Errorf("core: stored snapshot app chunks sum %d, want %d", appSum, cs.Header.AppLen)
	}
	cs.build(nil)
	return cs, nil
}

// ---------------------------------------------------------------------------
// Signing digests.

// CheckpointSigDigest domain-separates π signatures over certified
// checkpoint roots. It is distinct from StateSigDigest (the per-sequence
// execution certificates of §V-D) so an execution certificate can never be
// replayed as a checkpoint certificate or vice versa.
func CheckpointSigDigest(seq uint64, root []byte) []byte {
	h := sha256.New()
	h.Write([]byte("sbft:ckpt"))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seq)
	h.Write(b[:])
	h.Write(root)
	return h.Sum(nil)
}

// ExecutionStateDigest is a cheap commitment to a replica's dedup state —
// H(app digest ‖ canonical reply table) — used by the chaos auditor to
// cross-check that replicas at the same frontier agree on the last-reply
// table. The app digest of kvstore and evm chains the executed blocks and
// does not cover their state, which the auditor compares separately (their
// StateRoot); the certified root covers both through the serialized
// snapshot, at the cost of serializing it.
func (r *Replica) ExecutionStateDigest() []byte {
	h := sha256.New()
	h.Write([]byte("sbft:execstate"))
	h.Write(r.app.Digest())
	h.Write(encodeReplyTable(r.replyCache))
	return h.Sum(nil)
}
