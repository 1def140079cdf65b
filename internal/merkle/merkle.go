// Package merkle implements the Merkle tree interface the SBFT paper uses
// for data authentication (§IV, [58]): a digest over the service state and
// membership proofs that let a client accept a result from a single replica
// once the state digest carries an f+1 threshold signature.
//
// Two structures are provided:
//
//   - Tree: a static binary Merkle tree over an ordered list of leaves,
//     used to prove that an operation was executed at position l of the
//     decision block with sequence number s (proof(o, l, s, D, val)).
//   - Map: an incrementally-updatable sorted-key Merkle map used as the
//     authenticator of the key-value store state (digest(D) and get-proofs).
//     Writes only mark the nodes they touch; Digest and ProveKey hash what
//     is marked, once per node, so a block of writes costs one pass over
//     the union of their root paths. Reading a hash therefore writes to
//     the map: it has a single owner and no concurrent readers.
//
// Domain separation: leaf hashes are H(0x00 ‖ data) and interior hashes are
// H(0x01 ‖ left ‖ right) so a leaf can never be confused with an interior
// node (second-preimage hardening); Map payloads and nodes use 0x02 and
// 0x03. The hashing primitives do not allocate.
package merkle

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"sbft/internal/snapcodec"
)

// DigestSize is the size of all node hashes in bytes.
const DigestSize = sha256.Size

// Digest is a Merkle node or root hash.
type Digest [DigestSize]byte

// String renders a short hex prefix for logs.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:6]) }

var (
	// ErrProofInvalid reports a proof that fails verification.
	ErrProofInvalid = errors.New("merkle: invalid proof")
	// ErrIndexRange reports an out-of-range leaf index.
	ErrIndexRange = errors.New("merkle: leaf index out of range")
)

// LeafHash hashes leaf data with the leaf domain separator.
func LeafHash(data []byte) Digest {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(data)
	var d Digest
	h.Sum(d[:0])
	return d
}

// InteriorHash hashes two children with the interior domain separator.
func InteriorHash(left, right Digest) Digest {
	var buf [1 + 2*DigestSize]byte
	buf[0] = 0x01
	copy(buf[1:], left[:])
	copy(buf[1+DigestSize:], right[:])
	return sha256.Sum256(buf[:])
}

// Tree is a static binary Merkle tree over an ordered leaf list. Odd nodes
// at each level are promoted unchanged (Bitcoin-style duplication is
// deliberately avoided to prevent the CVE-2012-2459 ambiguity).
type Tree struct {
	levels [][]Digest // levels[0] = leaf hashes, last level = [root]
}

// NewTree builds a tree over the given leaves. An empty leaf list produces
// a tree whose root is the hash of the empty leaf set.
func NewTree(leaves [][]byte) *Tree {
	hashes := make([]Digest, len(leaves))
	for i, l := range leaves {
		hashes[i] = LeafHash(l)
	}
	return NewTreeFromHashes(hashes)
}

// NewTreeFromHashes builds a tree over pre-hashed leaves.
func NewTreeFromHashes(hashes []Digest) *Tree {
	t := &Tree{}
	level := make([]Digest, len(hashes))
	copy(level, hashes)
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([]Digest, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, InteriorHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i]) // promote odd node
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// Len reports the number of leaves.
func (t *Tree) Len() int { return len(t.levels[0]) }

// Leaves returns the stored leaf hashes, in leaf order. The slice is the
// tree's own: callers must not modify it. State transfer ships a
// snapshot's leaf list with its root, so a fetcher checks the list once
// and then matches chunks it already holds leaf by leaf.
func (t *Tree) Leaves() []Digest { return t.levels[0] }

// Root returns the root digest. The root of an empty tree is LeafHash(nil)
// of the empty list sentinel.
func (t *Tree) Root() Digest {
	if len(t.levels[0]) == 0 {
		return emptyRoot
	}
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// ProofStep is one sibling on the leaf-to-root path.
type ProofStep struct {
	Hash  Digest
	Right bool // sibling is the right child
}

// Proof is a membership proof for one leaf.
type Proof struct {
	Index int
	Steps []ProofStep
}

// Prove returns the membership proof for leaf index i.
func (t *Tree) Prove(i int) (Proof, error) {
	if i < 0 || i >= t.Len() {
		return Proof{}, fmt.Errorf("%w: %d of %d", ErrIndexRange, i, t.Len())
	}
	p := Proof{Index: i}
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		if idx%2 == 0 {
			if idx+1 < len(level) {
				p.Steps = append(p.Steps, ProofStep{Hash: level[idx+1], Right: true})
			}
			// Odd promoted node: no sibling at this level.
		} else {
			p.Steps = append(p.Steps, ProofStep{Hash: level[idx-1], Right: false})
		}
		idx /= 2
	}
	return p, nil
}

// VerifyLeaf checks that data is the leaf at p.Index under root.
func VerifyLeaf(root Digest, data []byte, p Proof) error {
	return VerifyLeafHash(root, LeafHash(data), p)
}

// VerifyLeafHash checks a pre-hashed leaf against root.
func VerifyLeafHash(root Digest, leaf Digest, p Proof) error {
	cur := leaf
	for _, s := range p.Steps {
		if s.Right {
			cur = InteriorHash(cur, s.Hash)
		} else {
			cur = InteriorHash(s.Hash, cur)
		}
	}
	if cur != root {
		return ErrProofInvalid
	}
	return nil
}

// CheckProofShape verifies that a proof's step count and step
// orientations are exactly what leaf p.Index of a leafCount-leaf tree
// requires. VerifyLeafHash alone folds whatever steps the prover supplied
// — sound for binding data to the root, but a malicious prover could
// shift a valid proof to a different claimed Index without failing it.
// Verifiers that act on the index (the certified read path routes a key
// to its bucket leaf by index) must pin the shape first.
func CheckProofShape(p Proof, leafCount int) error {
	if p.Index < 0 || p.Index >= leafCount {
		return fmt.Errorf("%w: %d of %d", ErrIndexRange, p.Index, leafCount)
	}
	idx, n, used := p.Index, leafCount, 0
	for n > 1 {
		if idx%2 == 1 {
			if used >= len(p.Steps) || p.Steps[used].Right {
				return fmt.Errorf("%w: proof shape mismatch at step %d", ErrProofInvalid, used)
			}
			used++
		} else if idx+1 < n {
			if used >= len(p.Steps) || !p.Steps[used].Right {
				return fmt.Errorf("%w: proof shape mismatch at step %d", ErrProofInvalid, used)
			}
			used++
		}
		// else: odd promoted node, no step at this level.
		idx /= 2
		n = (n + 1) / 2
	}
	if used != len(p.Steps) {
		return fmt.Errorf("%w: %d trailing proof steps", ErrProofInvalid, len(p.Steps)-used)
	}
	return nil
}

// VerifyLeafAt checks both that the proof has the exact shape of leaf
// p.Index in a leafCount-leaf tree and that data folds to root through
// it: index-binding membership verification.
func VerifyLeafAt(root Digest, data []byte, p Proof, leafCount int) error {
	if err := CheckProofShape(p, leafCount); err != nil {
		return err
	}
	return VerifyLeafHash(root, LeafHash(data), p)
}

// proofStepSize is one encoded ProofStep: the sibling hash and its side.
const proofStepSize = DigestSize + 1

// AppendProof appends the binary form of p: index, step count, then each
// step as hash ‖ side. It is the one encoding of a membership proof —
// inside the socket frames that carry one and inside the execute-ack
// proof.
func AppendProof(b []byte, p Proof) []byte {
	b = snapcodec.AppendInt(b, p.Index)
	b = snapcodec.AppendUint(b, uint64(len(p.Steps)))
	for _, s := range p.Steps {
		b = snapcodec.AppendBool(append(b, s.Hash[:]...), s.Right)
	}
	return b
}

// ReadProof reads what AppendProof wrote; a proof without steps has nil
// Steps.
func ReadProof(r *snapcodec.Reader) Proof {
	p := Proof{Index: r.Int()}
	if n := r.Count(proofStepSize); n > 0 {
		p.Steps = make([]ProofStep, n)
		for i := range p.Steps {
			copy(p.Steps[i].Hash[:], r.Fixed(DigestSize))
			p.Steps[i].Right = r.Bool()
		}
	}
	return p
}
