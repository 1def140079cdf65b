package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Map is an authenticated key-value map: internally a treap (tree + heap)
// whose node priorities derive from the key hash, giving every replica the
// identical canonical shape regardless of insertion order. Node hashes
// commit to (key, value, left subtree, right subtree) and Digest is the
// root hash.
//
// Hashing is mark-then-settle. Set and Delete only restructure the treap
// and mark the nodes on the path they walked dirty; Digest and ProveKey
// first settle the tree, re-hashing every dirty node once, children before
// parents, and a node's payload only if it was written. A block of k
// writes therefore hashes the levels its writes share once, not k times,
// and the digest is still a pure function of the contents — the property
// that keeps per-block state digests cheap for SBFT's execution phase
// (§IV, §V-D).
//
// Because Digest and ProveKey write to the tree, a Map has no concurrent
// readers either: one goroutine owns it (the replica event loop).
type Map struct {
	root  *mapNode
	count int
}

// mapNode is 128 bytes, exactly an allocator size class: a dirty flag
// beside the two digests would push it into the 144-byte one.
type mapNode struct {
	key   string
	val   []byte
	prio  uint64
	left  *mapNode
	right *mapNode
	// hash is the node hash, or the zero Digest while the node is dirty
	// (no SHA-256 output is all zero in practice). Every ancestor of a
	// dirty node is dirty: mutations mark the whole path they walk.
	hash Digest
	// kv caches kvDigest(key, val), or is the zero Digest while stale.
	// Only an overwrite of this node's value makes it stale: a rotation
	// moves the node, not its payload.
	kv Digest
}

// NewMap returns an empty authenticated map.
func NewMap() *Map { return &Map{} }

var emptyRoot = LeafHash([]byte("merkle:empty"))

// nodePrio derives the deterministic treap priority of a key.
func nodePrio(key string) uint64 {
	var buf [128]byte
	b := append(buf[:0], "merkle:prio:"...)
	h := sha256.Sum256(append(b, key...))
	return binary.BigEndian.Uint64(h[:8])
}

// kvDigest hashes a node's own (key, value) payload:
// H(0x02 ‖ len(key) ‖ key ‖ val). Payloads that outgrow the stack buffer
// (contract code) spill to the heap.
func kvDigest(key string, val []byte) Digest {
	var buf [192]byte
	b := append(buf[:0], 0x02)
	b = binary.BigEndian.AppendUint64(b, uint64(len(key)))
	b = append(b, key...)
	b = append(b, val...)
	return sha256.Sum256(b)
}

// nodeHash combines a node's payload digest with its children:
// H(0x03 ‖ kv ‖ left ‖ right).
func nodeHash(kv, left, right Digest) Digest {
	var buf [1 + 3*DigestSize]byte
	buf[0] = 0x03
	copy(buf[1:], kv[:])
	copy(buf[1+DigestSize:], left[:])
	copy(buf[1+2*DigestSize:], right[:])
	return sha256.Sum256(buf[:])
}

func (n *mapNode) markDirty()  { n.hash = Digest{} }
func (n *mapNode) dirty() bool { return n.hash == Digest{} }

// childHash reads the hash of a settled subtree.
func childHash(n *mapNode) Digest {
	if n == nil {
		return emptyRoot
	}
	return n.hash
}

// settle re-hashes the dirty nodes under n, children before parents, and
// returns n's hash. It never descends into a clean subtree, and hashes a
// payload only if it was written since the last settle.
func settle(n *mapNode) Digest {
	if n == nil {
		return emptyRoot
	}
	if n.dirty() {
		if n.kv == (Digest{}) {
			n.kv = kvDigest(n.key, n.val)
		}
		n.hash = nodeHash(n.kv, settle(n.left), settle(n.right))
	}
	return n.hash
}

// rotateRight lifts n.left; rotateLeft lifts n.right. Both nodes are on
// the path of the mutation that rotates them, so both end up dirty.
func rotateRight(n *mapNode) *mapNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.markDirty()
	l.markDirty()
	return l
}

func rotateLeft(n *mapNode) *mapNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.markDirty()
	r.markDirty()
	return r
}

// insert stores a copy of val under key, marks the path dirty and points
// *stored at the copy.
func insert(n *mapNode, key string, val []byte, stored *[]byte, created *bool) *mapNode {
	if n == nil {
		*created = true
		n = &mapNode{key: key, val: append([]byte(nil), val...), prio: nodePrio(key)}
		*stored = n.val
		return n
	}
	n.markDirty()
	switch {
	case key == n.key:
		// The one alias of n.val outside the map is the copy Set returned
		// for it, which its holder replaces with this write's: an
		// overwrite reuses the storage.
		n.val = append(n.val[:0], val...)
		n.kv = Digest{}
		*stored = n.val
	case key < n.key:
		n.left = insert(n.left, key, val, stored, created)
		if n.left.prio > n.prio {
			return rotateRight(n)
		}
	default:
		n.right = insert(n.right, key, val, stored, created)
		if n.right.prio > n.prio {
			return rotateLeft(n)
		}
	}
	return n
}

// remove drops key and marks the path to it dirty; a miss marks nothing.
func remove(n *mapNode, key string, removed *bool) *mapNode {
	if n == nil {
		return nil
	}
	switch {
	case key < n.key:
		n.left = remove(n.left, key, removed)
	case key > n.key:
		n.right = remove(n.right, key, removed)
	default:
		*removed = true
		// Rotate the node down until it is a leaf, then drop it.
		switch {
		case n.left == nil && n.right == nil:
			return nil
		case n.left == nil:
			return remove(rotateLeft(n), key, removed)
		case n.right == nil:
			return remove(rotateRight(n), key, removed)
		case n.left.prio > n.right.prio:
			return remove(rotateRight(n), key, removed)
		default:
			return remove(rotateLeft(n), key, removed)
		}
	}
	if *removed {
		n.markDirty()
	}
	return n
}

// Set stores a copy of value under key and returns that copy, so a
// caller that mirrors the map keeps no second one. The copy is read-only;
// the key's next Set overwrites it in place.
func (m *Map) Set(key string, value []byte) []byte {
	var stored []byte
	var created bool
	m.root = insert(m.root, key, value, &stored, &created)
	if created {
		m.count++
	}
	return stored
}

// Delete removes key if present.
func (m *Map) Delete(key string) {
	var removed bool
	m.root = remove(m.root, key, &removed)
	if removed {
		m.count--
	}
}

// Get returns a copy of the value and whether it exists.
func (m *Map) Get(key string) ([]byte, bool) {
	n := m.root
	for n != nil {
		switch {
		case key == n.key:
			return append([]byte(nil), n.val...), true
		case key < n.key:
			n = n.left
		default:
			n = n.right
		}
	}
	return nil, false
}

// Len reports the number of live keys.
func (m *Map) Len() int { return m.count }

// Digest returns the authenticated root over the current contents,
// hashing whatever the mutations since the last call left dirty.
func (m *Map) Digest() Digest { return settle(m.root) }

// Keys returns the sorted key list.
func (m *Map) Keys() []string {
	out := make([]string, 0, m.count)
	var walk func(n *mapNode)
	walk = func(n *mapNode) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, n.key)
		walk(n.right)
	}
	walk(m.root)
	return out
}

// Snapshot returns a deep copy of the map contents.
func (m *Map) Snapshot() map[string][]byte {
	out := make(map[string][]byte, m.count)
	var walk func(n *mapNode)
	walk = func(n *mapNode) {
		if n == nil {
			return
		}
		walk(n.left)
		out[n.key] = append([]byte(nil), n.val...)
		walk(n.right)
	}
	walk(m.root)
	return out
}

// Restore replaces the contents from a snapshot.
func (m *Map) Restore(snap map[string][]byte) {
	m.root = nil
	m.count = 0
	// Insert in sorted order for reproducible construction cost; the
	// treap shape is canonical regardless.
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m.Set(k, snap[k])
	}
}

// KeyProofStep is one ancestor on the path from a proven node to the root.
type KeyProofStep struct {
	// KV is the ancestor's own payload digest.
	KV Digest
	// Other is the hash of the ancestor's other child subtree.
	Other Digest
	// ProvenIsLeft reports whether the proven subtree hangs on the
	// ancestor's left.
	ProvenIsLeft bool
}

// KeyProof proves that a key holds a value under a Map digest. The target
// node's child hashes are disclosed so the verifier can reconstruct its
// node hash.
type KeyProof struct {
	Key       string
	Value     []byte
	LeftHash  Digest
	RightHash Digest
	Steps     []KeyProofStep
}

// ProveKey returns a membership proof for key against the Digest of the
// current contents; like Digest it settles the tree first.
func (m *Map) ProveKey(key string) (KeyProof, error) {
	settle(m.root)
	depth := 0
	n := m.root
	for n != nil && n.key != key {
		depth++
		if key < n.key {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		return KeyProof{}, fmt.Errorf("merkle: key %q not present", key)
	}
	// Verification walks node→root, so the root is the last step.
	steps := make([]KeyProofStep, depth)
	a := m.root
	for i := depth - 1; i >= 0; i-- {
		st := KeyProofStep{KV: a.kv, ProvenIsLeft: key < a.key}
		if st.ProvenIsLeft {
			st.Other, a = childHash(a.right), a.left
		} else {
			st.Other, a = childHash(a.left), a.right
		}
		steps[i] = st
	}
	return KeyProof{
		Key:       key,
		Value:     append([]byte(nil), n.val...),
		LeftHash:  childHash(n.left),
		RightHash: childHash(n.right),
		Steps:     steps,
	}, nil
}

// VerifyKey checks a KeyProof against a Map digest.
func VerifyKey(root Digest, kp KeyProof) error {
	h := nodeHash(kvDigest(kp.Key, kp.Value), kp.LeftHash, kp.RightHash)
	for _, st := range kp.Steps {
		if st.ProvenIsLeft {
			h = nodeHash(st.KV, h, st.Other)
		} else {
			h = nodeHash(st.KV, st.Other, h)
		}
	}
	if h != root {
		return ErrProofInvalid
	}
	return nil
}
