// Package wire is the module's one socket codec: a hand-written binary
// form for every message internal/transport carries — the 25 of
// internal/core and the 8 of internal/pbft — in place of encoding/gob.
//
// A connection is a sequence of frames:
//
//	frame := length u32 (big-endian, counts what follows) ‖ body
//	hello := Version u8 ‖ sender ‖ dial-back address     (first frame)
//	body  := tag u8 ‖ sender ‖ the message's fields in declaration order
//
// Fields are written with the snapcodec primitives: integers as minimal
// varints, byte strings as length ‖ bytes, flags as 0 or 1, digests as 32
// raw bytes, a slice as count ‖ elements; no field names and no type
// descriptors, so nothing is compiled or shipped per connection. Every
// message has exactly one encoding, and a zero-length slice decodes to
// nil — gob's convention, so the engines see what they always saw.
//
// Decode trusts nothing: a length or count larger than the bytes left in
// the frame is refused before anything is allocated from it, as are an
// unknown tag, a padded integer, a flag other than 0 or 1 and bytes left
// over behind the last field. Byte fields of a decoded message ALIAS the
// frame (capacity clipped), so a message costs its frame, its box and its
// own slices; the frame is allocated per message and never reused, so a
// retained message pins exactly the bytes that carried it.
//
// The simulator charges each delivery the length of the frame AppendFrame
// builds for it, so every golden fingerprint is a function of this format
// (DESIGN.md "One size per message").
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/merkle"
	"sbft/internal/pbft"
	sc "sbft/internal/snapcodec"
)

// Version is the first byte of a hello. A peer that speaks another
// version is refused at the handshake.
const Version = 3

// MaxFrame caps a frame body. The largest legitimate messages are a
// SnapshotChunkMsg (one bucket of application state: state size over the
// bucket count — 1 MiB for a 64 MiB store at snapcodec.DefaultBuckets)
// and a NewViewMsg (2f+2c+1 view changes × win slots × up to four request
// blocks; a few MiB at n=9, win=256 with full blocks). 64 MiB leaves both
// an order of magnitude and still bounds what one length prefix can make
// a receiver allocate.
const MaxFrame = 64 << 20

// Tags. Values are wire format: never renumber, only append.
const (
	tagRequest byte = iota + 1
	tagPrePrepare
	tagSignShare
	tagFullCommitProof
	tagPrepare
	tagCommit
	tagFullCommitProofSlow
	tagSignState
	tagFullExecuteProof
	tagExecuteAck
	tagReply
	tagBusy
	tagCheckpointShare
	tagCheckpointCert
	tagFetchCommit
	tagCommitInfo
	tagFetchState
	tagSnapshotMeta
	tagFetchSnapshotChunk
	tagSnapshotChunk
	tagRead
	tagReadReply
	tagViewChange
	tagNewView
	tagFetchTau
)

// The frozen PBFT baseline's messages start at 64, leaving core room.
const (
	tagPBFTPrePrepare byte = iota + 64
	tagPBFTPrepare
	tagPBFTCommit
	tagPBFTCheckpoint
	tagPBFTFetchCommit
	tagPBFTCommitInfo
	tagPBFTViewChange
	tagPBFTNewView
)

// AppendFrame appends one frame carrying m from sender to b. It fails on a
// type without a tag (TestEveryMessageHasATag keeps that a bug, not an
// input) and on a body over MaxFrame, which the receiver would refuse.
func AppendFrame(b []byte, sender int, m core.Message) ([]byte, error) {
	start := len(b)
	b, err := appendBody(append(b, 0, 0, 0, 0), sender, m)
	if err != nil {
		return b[:start], err
	}
	if n := len(b) - start - 4; n > MaxFrame {
		return b[:start], fmt.Errorf("wire: %d-byte frame exceeds the %d-byte cap", n, MaxFrame)
	}
	return closeFrame(b, start), nil
}

// AppendHello appends the frame that opens a connection.
func AppendHello(b []byte, sender int, addr string) []byte {
	start := len(b)
	b = sc.AppendInt(append(b, 0, 0, 0, 0, Version), sender)
	b = append(sc.AppendUint(b, uint64(len(addr))), addr...)
	return closeFrame(b, start)
}

// closeFrame fills in the length of the frame that starts at b[start].
func closeFrame(b []byte, start int) []byte {
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// ReadFrame reads one frame from r and returns its body in a buffer of its
// own, allocated only once the length has passed the cap.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: %d-byte frame exceeds the %d-byte cap", n, MaxFrame)
	}
	r.Discard(4)
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// DecodeHello parses the body of a connection's first frame.
func DecodeHello(body []byte) (sender int, addr string, err error) {
	if len(body) == 0 || body[0] != Version {
		return 0, "", fmt.Errorf("wire: hello % x: this build speaks version %d", body[:min(len(body), 1)], Version)
	}
	r := sc.NewReader(body[1:])
	sender, addr = r.Int(), string(r.Bytes())
	if err := r.Done(); err != nil {
		return 0, "", fmt.Errorf("wire: hello: %w", err)
	}
	return sender, addr, nil
}

// Decode parses a frame body into its sender and message. Byte fields of
// the message alias body.
func Decode(body []byte) (sender int, m core.Message, err error) {
	r := sc.NewReader(body)
	tag := r.Byte()
	sender = r.Int()
	if m = readMessage(&r, tag); m == nil {
		return 0, nil, fmt.Errorf("wire: unknown message tag %d", tag)
	}
	if err := r.Done(); err != nil {
		return 0, nil, fmt.Errorf("wire: tag %d: %w", tag, err)
	}
	return sender, m, nil
}

// head starts a body: tag, then sender.
func head(b []byte, tag byte, sender int) []byte { return sc.AppendInt(append(b, tag), sender) }

func appendBody(b []byte, sender int, m core.Message) ([]byte, error) {
	switch m := m.(type) {
	case core.RequestMsg:
		b = core.AppendRequest(head(b, tagRequest, sender), m.Req)
	case core.PrePrepareMsg:
		b = sc.AppendUint(head(b, tagPrePrepare, sender), m.Seq)
		b = sc.AppendUint(b, m.View)
		b = core.AppendRequests(b, m.Reqs)
	case core.SignShareMsg:
		b = sc.AppendUint(head(b, tagSignShare, sender), m.Seq)
		b = sc.AppendUint(b, m.View)
		b = sc.AppendInt(b, m.Replica)
		b = appendShare(b, m.SigmaSig)
		b = appendShare(b, m.TauSig)
	case core.FetchTauMsg:
		b = sc.AppendUint(head(b, tagFetchTau, sender), m.Seq)
		b = sc.AppendUint(b, m.View)
	case core.FullCommitProofMsg:
		b = sc.AppendUint(head(b, tagFullCommitProof, sender), m.Seq)
		b = sc.AppendUint(b, m.View)
		b = sc.AppendBytes(b, m.Sigma.Data)
	case core.PrepareMsg:
		b = sc.AppendUint(head(b, tagPrepare, sender), m.Seq)
		b = sc.AppendUint(b, m.View)
		b = sc.AppendBytes(b, m.Tau.Data)
	case core.CommitMsg:
		b = sc.AppendUint(head(b, tagCommit, sender), m.Seq)
		b = sc.AppendUint(b, m.View)
		b = sc.AppendInt(b, m.Replica)
		b = appendShare(b, m.TauTau)
	case core.FullCommitProofSlowMsg:
		b = sc.AppendUint(head(b, tagFullCommitProofSlow, sender), m.Seq)
		b = sc.AppendUint(b, m.View)
		b = sc.AppendBytes(b, m.Tau.Data)
		b = sc.AppendBytes(b, m.TauTau.Data)
	case core.SignStateMsg:
		b = sc.AppendUint(head(b, tagSignState, sender), m.Seq)
		b = sc.AppendInt(b, m.Replica)
		b = sc.AppendBytes(b, m.Digest)
		b = appendShare(b, m.PiSig)
	case core.FullExecuteProofMsg:
		b = sc.AppendUint(head(b, tagFullExecuteProof, sender), m.Seq)
		b = sc.AppendBytes(b, m.Digest)
		b = sc.AppendBytes(b, m.Pi.Data)
	case core.ExecuteAckMsg:
		b = sc.AppendUint(head(b, tagExecuteAck, sender), m.Seq)
		b = sc.AppendInt(b, m.L)
		b = sc.AppendBytes(b, m.Val)
		b = sc.AppendInt(b, m.Client)
		b = sc.AppendUint(b, m.Timestamp)
		b = sc.AppendUint(b, m.View)
		b = sc.AppendBytes(b, m.Digest)
		b = sc.AppendBytes(b, m.Pi.Data)
		b = sc.AppendBytes(b, m.Proof)
	case core.ReplyMsg:
		b = sc.AppendUint(head(b, tagReply, sender), m.Seq)
		b = sc.AppendInt(b, m.L)
		b = sc.AppendInt(b, m.Replica)
		b = sc.AppendInt(b, m.Client)
		b = sc.AppendUint(b, m.Timestamp)
		b = sc.AppendUint(b, m.View)
		b = sc.AppendBytes(b, m.Val)
	case core.BusyMsg:
		b = sc.AppendInt(head(b, tagBusy, sender), m.Client)
		b = sc.AppendUint(b, m.Timestamp)
		b = sc.AppendUint(b, uint64(m.RetryAfter))
	case core.CheckpointShareMsg:
		b = sc.AppendUint(head(b, tagCheckpointShare, sender), m.Seq)
		b = sc.AppendInt(b, m.Replica)
		b = sc.AppendBytes(b, m.Digest)
		b = appendShare(b, m.PiSig)
	case core.CheckpointCertMsg:
		b = sc.AppendUint(head(b, tagCheckpointCert, sender), m.Seq)
		b = sc.AppendBytes(b, m.Digest)
		b = sc.AppendBytes(b, m.Pi.Data)
	case core.FetchCommitMsg:
		b = sc.AppendInt(head(b, tagFetchCommit, sender), m.Replica)
		b = sc.AppendUint(b, m.Seq)
	case core.CommitInfoMsg:
		b = sc.AppendUint(head(b, tagCommitInfo, sender), m.Seq)
		b = sc.AppendUint(b, m.View)
		b = core.AppendRequests(b, m.Reqs)
		b = sc.AppendBool(b, m.HasFast)
		b = sc.AppendBytes(b, m.Sigma.Data)
		b = sc.AppendBytes(b, m.Tau.Data)
		b = sc.AppendBytes(b, m.TauTau.Data)
	case core.FetchStateMsg:
		b = sc.AppendInt(head(b, tagFetchState, sender), m.Replica)
		b = sc.AppendUint(b, m.Seq)
	case core.SnapshotMetaMsg:
		b = sc.AppendUint(head(b, tagSnapshotMeta, sender), m.Seq)
		b = sc.AppendBytes(b, m.Root)
		b = sc.AppendBytes(b, m.Pi.Data)
		b = core.AppendSnapshotHeader(b, m.Header)
		b = sc.AppendUint(b, uint64(len(m.Leaves)))
		for _, d := range m.Leaves {
			b = append(b, d[:]...)
		}
	case core.FetchSnapshotChunkMsg:
		b = sc.AppendInt(head(b, tagFetchSnapshotChunk, sender), m.Replica)
		b = sc.AppendUint(b, m.Seq)
		b = sc.AppendInt(b, m.Index)
	case core.SnapshotChunkMsg:
		b = sc.AppendUint(head(b, tagSnapshotChunk, sender), m.Seq)
		b = sc.AppendInt(b, m.Index)
		b = sc.AppendBytes(b, m.Data)
	case core.ReadMsg:
		b = sc.AppendInt(head(b, tagRead, sender), m.Client)
		b = sc.AppendUint(b, m.Nonce)
		b = sc.AppendBytes(b, m.Op)
		b = sc.AppendUint(b, m.MinSeq)
	case core.ReadReplyMsg:
		b = sc.AppendInt(head(b, tagReadReply, sender), m.Client)
		b = sc.AppendUint(b, m.Nonce)
		b = sc.AppendInt(b, m.Replica)
		b = append(b, m.Status)
		b = sc.AppendUint(b, m.Seq)
		b = sc.AppendBytes(b, m.Root)
		b = sc.AppendBytes(b, m.Pi.Data)
		b = core.AppendSnapshotHeader(b, m.Header)
		b = merkle.AppendProof(b, m.HeaderProof)
		b = sc.AppendInt(b, m.ChunkIndex)
		b = sc.AppendBytes(b, m.Chunk)
		b = merkle.AppendProof(b, m.ChunkProof)
	case core.ViewChangeMsg:
		b = appendViewChange(head(b, tagViewChange, sender), m)
	case core.NewViewMsg:
		b = sc.AppendUint(head(b, tagNewView, sender), m.View)
		b = sc.AppendUint(b, uint64(len(m.ViewChanges)))
		for _, vc := range m.ViewChanges {
			b = appendViewChange(b, vc)
		}

	case pbft.PrePrepareMsg:
		b = appendPBFTPrePrepare(head(b, tagPBFTPrePrepare, sender), m)
	case pbft.PrepareMsg:
		b = sc.AppendUint(head(b, tagPBFTPrepare, sender), m.Seq)
		b = sc.AppendUint(b, m.View)
		b = sc.AppendInt(append(b, m.Hash[:]...), m.Replica)
	case pbft.CommitMsg:
		b = sc.AppendUint(head(b, tagPBFTCommit, sender), m.Seq)
		b = sc.AppendUint(b, m.View)
		b = sc.AppendInt(append(b, m.Hash[:]...), m.Replica)
	case pbft.CheckpointMsg:
		b = sc.AppendUint(head(b, tagPBFTCheckpoint, sender), m.Seq)
		b = sc.AppendBytes(b, m.Digest)
		b = sc.AppendInt(b, m.Replica)
	case pbft.FetchCommitMsg:
		b = sc.AppendInt(head(b, tagPBFTFetchCommit, sender), m.Replica)
		b = sc.AppendUint(b, m.Seq)
	case pbft.CommitInfoMsg:
		b = sc.AppendUint(head(b, tagPBFTCommitInfo, sender), m.Seq)
		b = sc.AppendInt(b, m.Replica)
		b = core.AppendRequests(b, m.Reqs)
	case pbft.ViewChangeMsg:
		b = appendPBFTViewChange(head(b, tagPBFTViewChange, sender), m)
	case pbft.NewViewMsg:
		b = sc.AppendUint(head(b, tagPBFTNewView, sender), m.View)
		b = sc.AppendUint(b, uint64(len(m.ViewChanges)))
		for _, vc := range m.ViewChanges {
			b = appendPBFTViewChange(b, vc)
		}
		b = sc.AppendUint(b, uint64(len(m.PrePrepares)))
		for _, pp := range m.PrePrepares {
			b = appendPBFTPrePrepare(b, pp)
		}
	default:
		return b, fmt.Errorf("wire: no tag for %T", m)
	}
	return b, nil
}

// readMessage reads the fields behind tag, or returns nil for a tag it
// does not know. Failures stay in r.
func readMessage(r *sc.Reader, tag byte) core.Message {
	switch tag {
	case tagRequest:
		return core.RequestMsg{Req: core.ReadRequest(r)}
	case tagPrePrepare:
		return core.PrePrepareMsg{Seq: r.Uint(), View: r.Uint(), Reqs: core.ReadRequests(r)}
	case tagSignShare:
		return core.SignShareMsg{Seq: r.Uint(), View: r.Uint(), Replica: r.Int(),
			SigmaSig: readShare(r), TauSig: readShare(r)}
	case tagFetchTau:
		return core.FetchTauMsg{Seq: r.Uint(), View: r.Uint()}
	case tagFullCommitProof:
		return core.FullCommitProofMsg{Seq: r.Uint(), View: r.Uint(), Sigma: readSig(r)}
	case tagPrepare:
		return core.PrepareMsg{Seq: r.Uint(), View: r.Uint(), Tau: readSig(r)}
	case tagCommit:
		return core.CommitMsg{Seq: r.Uint(), View: r.Uint(), Replica: r.Int(), TauTau: readShare(r)}
	case tagFullCommitProofSlow:
		return core.FullCommitProofSlowMsg{Seq: r.Uint(), View: r.Uint(), Tau: readSig(r), TauTau: readSig(r)}
	case tagSignState:
		return core.SignStateMsg{Seq: r.Uint(), Replica: r.Int(), Digest: r.Bytes(), PiSig: readShare(r)}
	case tagFullExecuteProof:
		return core.FullExecuteProofMsg{Seq: r.Uint(), Digest: r.Bytes(), Pi: readSig(r)}
	case tagExecuteAck:
		return core.ExecuteAckMsg{Seq: r.Uint(), L: r.Int(), Val: r.Bytes(), Client: r.Int(),
			Timestamp: r.Uint(), View: r.Uint(), Digest: r.Bytes(), Pi: readSig(r), Proof: r.Bytes()}
	case tagReply:
		return core.ReplyMsg{Seq: r.Uint(), L: r.Int(), Replica: r.Int(), Client: r.Int(),
			Timestamp: r.Uint(), View: r.Uint(), Val: r.Bytes()}
	case tagBusy:
		return core.BusyMsg{Client: r.Int(), Timestamp: r.Uint(), RetryAfter: time.Duration(r.Uint())}
	case tagCheckpointShare:
		return core.CheckpointShareMsg{Seq: r.Uint(), Replica: r.Int(), Digest: r.Bytes(), PiSig: readShare(r)}
	case tagCheckpointCert:
		return core.CheckpointCertMsg{Seq: r.Uint(), Digest: r.Bytes(), Pi: readSig(r)}
	case tagFetchCommit:
		return core.FetchCommitMsg{Replica: r.Int(), Seq: r.Uint()}
	case tagCommitInfo:
		return core.CommitInfoMsg{Seq: r.Uint(), View: r.Uint(), Reqs: core.ReadRequests(r),
			HasFast: r.Bool(), Sigma: readSig(r), Tau: readSig(r), TauTau: readSig(r)}
	case tagFetchState:
		return core.FetchStateMsg{Replica: r.Int(), Seq: r.Uint()}
	case tagSnapshotMeta:
		m := core.SnapshotMetaMsg{Seq: r.Uint(), Root: r.Bytes(), Pi: readSig(r), Header: core.ReadSnapshotHeader(r)}
		if n := r.Count(merkle.DigestSize); n > 0 {
			m.Leaves = make([]merkle.Digest, n)
			for i := range m.Leaves {
				copy(m.Leaves[i][:], r.Fixed(merkle.DigestSize))
			}
		}
		return m
	case tagFetchSnapshotChunk:
		return core.FetchSnapshotChunkMsg{Replica: r.Int(), Seq: r.Uint(), Index: r.Int()}
	case tagSnapshotChunk:
		return core.SnapshotChunkMsg{Seq: r.Uint(), Index: r.Int(), Data: r.Bytes()}
	case tagRead:
		return core.ReadMsg{Client: r.Int(), Nonce: r.Uint(), Op: r.Bytes(), MinSeq: r.Uint()}
	case tagReadReply:
		return core.ReadReplyMsg{Client: r.Int(), Nonce: r.Uint(), Replica: r.Int(), Status: r.Byte(),
			Seq: r.Uint(), Root: r.Bytes(), Pi: readSig(r),
			Header: core.ReadSnapshotHeader(r), HeaderProof: merkle.ReadProof(r),
			ChunkIndex: r.Int(), Chunk: r.Bytes(), ChunkProof: merkle.ReadProof(r)}
	case tagViewChange:
		return readViewChange(r)
	case tagNewView:
		m := core.NewViewMsg{View: r.Uint()}
		if n := r.Count(minViewChange); n > 0 {
			m.ViewChanges = make([]core.ViewChangeMsg, n)
			for i := range m.ViewChanges {
				m.ViewChanges[i] = readViewChange(r)
			}
		}
		return m

	case tagPBFTPrePrepare:
		return readPBFTPrePrepare(r)
	case tagPBFTPrepare:
		m := pbft.PrepareMsg{Seq: r.Uint(), View: r.Uint()}
		copy(m.Hash[:], r.Fixed(len(m.Hash)))
		m.Replica = r.Int()
		return m
	case tagPBFTCommit:
		m := pbft.CommitMsg{Seq: r.Uint(), View: r.Uint()}
		copy(m.Hash[:], r.Fixed(len(m.Hash)))
		m.Replica = r.Int()
		return m
	case tagPBFTCheckpoint:
		return pbft.CheckpointMsg{Seq: r.Uint(), Digest: r.Bytes(), Replica: r.Int()}
	case tagPBFTFetchCommit:
		return pbft.FetchCommitMsg{Replica: r.Int(), Seq: r.Uint()}
	case tagPBFTCommitInfo:
		return pbft.CommitInfoMsg{Seq: r.Uint(), Replica: r.Int(), Reqs: core.ReadRequests(r)}
	case tagPBFTViewChange:
		return readPBFTViewChange(r)
	case tagPBFTNewView:
		m := pbft.NewViewMsg{View: r.Uint()}
		if n := r.Count(minPBFTViewChange); n > 0 {
			m.ViewChanges = make([]pbft.ViewChangeMsg, n)
			for i := range m.ViewChanges {
				m.ViewChanges[i] = readPBFTViewChange(r)
			}
		}
		if n := r.Count(minPBFTPrePrepare); n > 0 {
			m.PrePrepares = make([]pbft.PrePrepareMsg, n)
			for i := range m.PrePrepares {
				m.PrePrepares[i] = readPBFTPrePrepare(r)
			}
		}
		return m
	}
	return nil
}

// The fewest bytes one element of a repeated structure can take (every
// field one byte, a digest 32): what Reader.Count divides the remaining
// input by before a slice is allocated.
const (
	minSlot           = 19
	minViewChange     = 6
	minPBFTPrepared   = 3 + len(core.Digest{})
	minPBFTViewChange = 4
	minPBFTPrePrepare = 3
)

func appendShare(b []byte, s threshsig.Share) []byte {
	return sc.AppendBytes(sc.AppendInt(b, s.Signer), s.Data)
}

func readShare(r *sc.Reader) threshsig.Share {
	return threshsig.Share{Signer: r.Int(), Data: r.Bytes()}
}

func readSig(r *sc.Reader) threshsig.Signature { return threshsig.Signature{Data: r.Bytes()} }

func appendViewChange(b []byte, m core.ViewChangeMsg) []byte {
	b = sc.AppendUint(b, m.NewView)
	b = sc.AppendInt(b, m.Replica)
	b = sc.AppendUint(b, m.LastStable)
	b = sc.AppendBytes(b, m.StableDigest)
	b = sc.AppendBytes(b, m.StablePi.Data)
	b = sc.AppendUint(b, uint64(len(m.Slots)))
	for i := range m.Slots {
		s := &m.Slots[i]
		b = sc.AppendUint(b, s.Seq)

		b = sc.AppendBool(b, s.HasCommitProofSlow)
		b = sc.AppendBytes(b, s.TauTau.Data)
		b = sc.AppendBytes(b, s.Tau.Data)
		b = sc.AppendUint(b, s.SlowView)
		b = core.AppendRequests(b, s.SlowReqs)

		b = sc.AppendBool(b, s.HasPrepare)
		b = sc.AppendBytes(b, s.PrepareTau.Data)
		b = sc.AppendUint(b, s.PrepareView)
		b = core.AppendRequests(b, s.PrepareReqs)

		b = sc.AppendBool(b, s.HasCommitProof)
		b = sc.AppendBytes(b, s.Sigma.Data)
		b = sc.AppendUint(b, s.FastView)
		b = core.AppendRequests(b, s.FastReqs)

		b = sc.AppendBool(b, s.HasPrePrepare)
		b = appendShare(b, s.SigmaShare)
		b = sc.AppendUint(b, s.PrePrepareView)
		b = core.AppendRequests(b, s.PrePrepareReqs)
	}
	return b
}

func readViewChange(r *sc.Reader) core.ViewChangeMsg {
	m := core.ViewChangeMsg{NewView: r.Uint(), Replica: r.Int(), LastStable: r.Uint(),
		StableDigest: r.Bytes(), StablePi: readSig(r)}
	if n := r.Count(minSlot); n > 0 {
		m.Slots = make([]core.SlotInfo, n)
		for i := range m.Slots {
			m.Slots[i] = core.SlotInfo{Seq: r.Uint(),
				HasCommitProofSlow: r.Bool(), TauTau: readSig(r), Tau: readSig(r),
				SlowView: r.Uint(), SlowReqs: core.ReadRequests(r),
				HasPrepare: r.Bool(), PrepareTau: readSig(r),
				PrepareView: r.Uint(), PrepareReqs: core.ReadRequests(r),
				HasCommitProof: r.Bool(), Sigma: readSig(r),
				FastView: r.Uint(), FastReqs: core.ReadRequests(r),
				HasPrePrepare: r.Bool(), SigmaShare: readShare(r),
				PrePrepareView: r.Uint(), PrePrepareReqs: core.ReadRequests(r)}
		}
	}
	return m
}

func appendPBFTPrePrepare(b []byte, m pbft.PrePrepareMsg) []byte {
	b = sc.AppendUint(b, m.Seq)
	b = sc.AppendUint(b, m.View)
	return core.AppendRequests(b, m.Reqs)
}

func readPBFTPrePrepare(r *sc.Reader) pbft.PrePrepareMsg {
	return pbft.PrePrepareMsg{Seq: r.Uint(), View: r.Uint(), Reqs: core.ReadRequests(r)}
}

func appendPBFTViewChange(b []byte, m pbft.ViewChangeMsg) []byte {
	b = sc.AppendUint(b, m.NewView)
	b = sc.AppendUint(b, m.LastStable)
	b = sc.AppendUint(b, uint64(len(m.Prepared)))
	for _, p := range m.Prepared {
		b = sc.AppendUint(b, p.Seq)
		b = sc.AppendUint(b, p.View)
		b = core.AppendRequests(append(b, p.Hash[:]...), p.Reqs)
	}
	return sc.AppendInt(b, m.Replica)
}

func readPBFTViewChange(r *sc.Reader) pbft.ViewChangeMsg {
	m := pbft.ViewChangeMsg{NewView: r.Uint(), LastStable: r.Uint()}
	if n := r.Count(minPBFTPrepared); n > 0 {
		m.Prepared = make([]pbft.PreparedProof, n)
		for i := range m.Prepared {
			p := &m.Prepared[i]
			p.Seq, p.View = r.Uint(), r.Uint()
			copy(p.Hash[:], r.Fixed(len(p.Hash)))
			p.Reqs = core.ReadRequests(r)
		}
	}
	m.Replica = r.Int()
	return m
}
