package core

import (
	"fmt"

	"sbft/internal/crypto/threshsig"
	"sbft/internal/snapcodec"
)

// ExecuteCert is a π-certified execute certificate for ONE request: the
// standalone, verifiable artifact behind the client's single-message
// acceptance rule (§V-A), detached from the client that earned it. It
// binds an operation, its result value and its position (seq, l) to a
// state digest carried by an f+1 π threshold signature plus the
// application's Merkle execution proof. Anyone holding the deployment's
// π public key can verify it — which is what makes an UNTRUSTED
// cross-shard coordinator possible (ROADMAP item 5): a shard's commit
// rule checks the other shards' certificates instead of trusting the
// party relaying them.
type ExecuteCert struct {
	Seq    uint64
	L      int
	Op     []byte
	Val    []byte
	Digest []byte
	Pi     threshsig.Signature
	Proof  []byte
}

// Encode serializes the certificate for embedding in application
// operations (cross-shard commit/abort evidence travels inside ordered
// ops, so replicas of the receiving shard verify it deterministically):
// version, then the fields in declaration order.
func (c *ExecuteCert) Encode() []byte {
	b := snapcodec.AppendUint([]byte{recordVersion}, c.Seq)
	b = snapcodec.AppendInt(b, c.L)
	b = snapcodec.AppendBytes(b, c.Op)
	b = snapcodec.AppendBytes(b, c.Val)
	b = snapcodec.AppendBytes(b, c.Digest)
	b = snapcodec.AppendBytes(b, c.Pi.Data)
	return snapcodec.AppendBytes(b, c.Proof)
}

// DecodeExecuteCert parses an encoded certificate; its byte fields alias
// data.
func DecodeExecuteCert(data []byte) (*ExecuteCert, error) {
	r, err := openRecord("execute cert", data)
	if err != nil {
		return nil, err
	}
	c := &ExecuteCert{Seq: r.Uint(), L: r.Int(), Op: r.Bytes(), Val: r.Bytes(), Digest: r.Bytes(),
		Pi: threshsig.Signature{Data: r.Bytes()}, Proof: r.Bytes()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: decoding execute cert: %w", err)
	}
	return c, nil
}

// VerifyExecuteCert checks a certificate against a deployment's π scheme
// and application proof verifier: first the f+1 threshold signature over
// the certified state digest, then the application proof binding
// (op, val, seq, l) to that digest — exactly the client's §V-A
// acceptance checks, applied by a third party.
func VerifyExecuteCert(pi threshsig.Scheme, verify ProofVerifier, c *ExecuteCert) error {
	if c == nil {
		return fmt.Errorf("core: nil execute cert")
	}
	if err := pi.Verify(stateSigDigest(c.Seq, c.Digest), c.Pi); err != nil {
		return fmt.Errorf("core: execute cert π signature: %w", err)
	}
	if verify != nil {
		if err := verify(c.Digest, c.Op, c.Val, c.Seq, c.L, c.Proof); err != nil {
			return fmt.Errorf("core: execute cert proof: %w", err)
		}
	}
	return nil
}
