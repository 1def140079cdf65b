package core

import (
	"encoding/binary"
	"testing"

	"sbft/internal/crypto/threshsig"
)

// FuzzDeliver feeds a replica arbitrary mutated protocol messages — the
// Byzantine-input surface (§II: up to f replicas may behave arbitrarily).
// The replica must never panic, never execute without a valid commit
// certificate, and never regress its execution frontier.
//
// The fuzz input is a script: each chunk selects a message type, header
// fields (seq, view, sender) and raw bytes used for signatures, digests
// and operation payloads. Because signature material is attacker-chosen
// garbage, any execution progress must come only from the valid messages
// the harness itself interleaves.
func FuzzDeliver(f *testing.F) {
	// Seed corpus: empty, tiny, and a few structured scripts.
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00})
	f.Add([]byte{0x05, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a})
	f.Add(bytesOfAll())

	cfg := DefaultConfig(1, 0)
	cfg.BatchTimeout = 0
	cfg.CollectorStagger = 0
	suite, keys, err := InsecureSuite(cfg, "fuzz-deliver")
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		app := &fakeApp{}
		env := &fakeEnv{}
		r, err := NewReplica(2, cfg, suite, keys[1], app, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		// One honestly committed block, so the fuzzer attacks a replica
		// with real state (reply cache, executed frontier, slots).
		reqs := []Request{{Client: ClientBase, Timestamp: 1, Op: []byte("honest")}}
		r.Deliver(1, PrePrepareMsg{Seq: 1, View: 0, Reqs: reqs})
		h := BlockHash(1, 0, reqs)
		var shares []threshsig.Share
		for i := 1; i <= cfg.QuorumFast(); i++ {
			sh, _ := keys[i-1].Sigma.Sign(h[:])
			shares = append(shares, sh)
		}
		sigma, _ := suite.Sigma.Combine(h[:], shares)
		r.Deliver(3, FullCommitProofMsg{Seq: 1, View: 0, Sigma: sigma})
		if r.LastExecuted() != 1 {
			t.Fatal("honest setup failed")
		}
		baseBlocks := app.blocks

		prevLE := r.LastExecuted()
		// Cap the script so pathological multi-megabyte inputs keep each
		// exec (and input minimization) fast; 256 messages is plenty to
		// compose attack sequences.
		for steps := 0; len(data) > 0 && steps < 256; steps++ {
			var from int
			var msg any
			msg, from, data = nextFuzzMessage(data)
			if msg == nil {
				break
			}
			r.Deliver(from, msg)
			// Fire any timers the delivery armed (Byzantine input must not
			// corrupt state through timer paths either).
			env.advance(0)

			if le := r.LastExecuted(); le < prevLE {
				t.Fatalf("execution frontier regressed: %d → %d", prevLE, le)
			} else {
				prevLE = le
			}
		}
		// Garbage certificates must not commit anything new: the app saw
		// exactly the honest block (null blocks execute zero ops, so ops
		// count is the committed-work invariant).
		if app.ops != 1 {
			t.Fatalf("fuzzed input executed %d ops, want 1", app.ops)
		}
		if app.blocks > baseBlocks && r.LastExecuted() == 1 {
			t.Fatal("app executed blocks beyond the frontier")
		}
	})
}

// nextFuzzMessage decodes one message from the script. Layout per chunk:
// type(1) seq(1) view(1) sender(1) len(1) payload(len).
func nextFuzzMessage(data []byte) (msg any, from int, rest []byte) {
	if len(data) < 5 {
		return nil, 0, nil
	}
	typ, seqB, viewB, senderB, plen := data[0], data[1], data[2], data[3], int(data[4])
	data = data[5:]
	if plen > len(data) {
		plen = len(data)
	}
	payload := data[:plen]
	rest = data[plen:]

	seq := uint64(seqB)
	view := uint64(viewB % 4)
	from = int(senderB%6) + 1 // replicas 1..4 plus out-of-range senders
	if senderB%7 == 0 {
		from = ClientBase + int(senderB)
	}
	sig := threshsig.Signature{Data: payload}
	share := threshsig.Share{Signer: from, Data: payload}
	op := payload
	reqs := []Request{{Client: ClientBase + int(seqB%3), Timestamp: uint64(viewB), Op: op}}

	switch typ % 19 {
	case 0:
		msg = RequestMsg{Req: Request{Client: from, Timestamp: seq, Op: op}}
	case 1:
		msg = PrePrepareMsg{Seq: seq, View: view, Reqs: reqs}
	case 2:
		msg = SignShareMsg{Seq: seq, View: view, Replica: from, SigmaSig: share, TauSig: share}
		if seqB%3 == 1 {
			msg = SignShareMsg{Seq: seq, View: view, Replica: from, SigmaSig: share}
		}
	case 3:
		msg = FullCommitProofMsg{Seq: seq, View: view, Sigma: sig}
	case 4:
		msg = PrepareMsg{Seq: seq, View: view, Tau: sig}
	case 5:
		msg = CommitMsg{Seq: seq, View: view, Replica: from, TauTau: share}
	case 6:
		msg = FullCommitProofSlowMsg{Seq: seq, View: view, Tau: sig, TauTau: sig}
	case 7:
		msg = SignStateMsg{Seq: seq, Replica: from, Digest: payload, PiSig: share}
	case 8:
		msg = FullExecuteProofMsg{Seq: seq, Digest: payload, Pi: sig}
	case 9:
		msg = CheckpointShareMsg{Seq: seq, Replica: from, Digest: payload, PiSig: share}
	case 10:
		msg = CheckpointCertMsg{Seq: seq, Digest: payload, Pi: sig}
	case 11:
		msg = FetchCommitMsg{Replica: from, Seq: seq}
		if seqB%2 == 1 {
			msg = FetchSharesMsg{Seq: seq, View: view}
		}
	case 12:
		msg = CommitInfoMsg{Seq: seq, View: view, Reqs: reqs, HasFast: seqB%2 == 0, Sigma: sig, Tau: sig, TauTau: sig}
	case 13:
		msg = FetchStateMsg{Replica: from, Seq: seq}
	case 14:
		// Exercise the chunked state-transfer receivers with junk metadata
		// and chunks (none of it certified, so all must be rejected).
		switch seqB % 3 {
		case 0:
			msg = SnapshotMetaMsg{Seq: seq, Root: payload, Pi: sig,
				Header: SnapshotHeader{AppDigest: payload, AppLen: uint64(len(payload)), ChunkSize: 4}}
		case 1:
			msg = FetchSnapshotChunkMsg{Replica: from, Seq: seq, Index: int(viewB)}
		default:
			msg = SnapshotChunkMsg{Seq: seq, Index: int(viewB), Data: payload}
		}
	case 15:
		msg = ViewChangeMsg{
			NewView: view, Replica: from, LastStable: seq,
			StableDigest: payload, StablePi: sig,
			Slots: []SlotInfo{{
				Seq: seq, HasCommitProofSlow: true, TauTau: sig, Tau: sig, SlowReqs: reqs,
				HasPrepare: true, PrepareTau: sig, PrepareReqs: reqs,
				HasCommitProof: true, Sigma: sig, FastReqs: reqs,
				HasPrePrepare: true, SigmaShare: share, PrePrepareReqs: reqs,
			}},
		}
	case 16:
		msg = NewViewMsg{View: view, ViewChanges: []ViewChangeMsg{{NewView: view, Replica: from, Slots: nil}}}
	case 17:
		msg = ReplyMsg{Seq: seq, L: int(viewB), Replica: from, Client: from, Timestamp: seq, Val: payload}
	default:
		// Unknown dynamic type: Deliver must ignore it.
		msg = struct{ X uint64 }{binary.BigEndian.Uint64(append(payload, make([]byte, 8)...)[:8])}
	}
	return msg, from, rest
}

// bytesOfAll builds a corpus entry exercising every message type once.
func bytesOfAll() []byte {
	var out []byte
	for typ := byte(0); typ < 19; typ++ {
		out = append(out, typ, typ+1, typ%3, typ%8, 4, 0xde, 0xad, 0xbe, 0xef)
	}
	return out
}
