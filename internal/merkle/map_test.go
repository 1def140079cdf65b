package merkle

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// checkTreap validates the structural invariants of the authenticated
// treap: key order (BST), priority order (heap), every ancestor of a dirty
// node dirty, and — once settled — hash consistency.
func checkTreap(t *testing.T, m *Map) {
	t.Helper()
	dirty := func(n *mapNode) bool { return n != nil && n.dirty() }
	var walk func(n *mapNode, min, max string) int
	walk = func(n *mapNode, min, max string) int {
		if n == nil {
			return 0
		}
		if min != "" && n.key <= min {
			t.Fatalf("BST violation: %q ≤ min %q", n.key, min)
		}
		if max != "" && n.key >= max {
			t.Fatalf("BST violation: %q ≥ max %q", n.key, max)
		}
		if n.left != nil && n.left.prio > n.prio {
			t.Fatalf("heap violation at %q", n.key)
		}
		if n.right != nil && n.right.prio > n.prio {
			t.Fatalf("heap violation at %q", n.key)
		}
		if !dirty(n) && (dirty(n.left) || dirty(n.right)) {
			t.Fatalf("clean node %q has a dirty child", n.key)
		}
		return 1 + walk(n.left, min, n.key) + walk(n.right, n.key, max)
	}
	if got := walk(m.root, "", ""); got != m.count {
		t.Fatalf("count = %d, nodes = %d", m.count, got)
	}
	m.Digest()
	var hashes func(n *mapNode)
	hashes = func(n *mapNode) {
		if n == nil {
			return
		}
		if n.hash != nodeHash(kvDigest(n.key, n.val), childHash(n.left), childHash(n.right)) {
			t.Fatalf("stale hash at %q after settling", n.key)
		}
		hashes(n.left)
		hashes(n.right)
	}
	hashes(m.root)
}

// refRoot is the eager reference: the root digest as a function of the
// contents alone. The canonical treap's root is the highest-priority key,
// its subtrees the keys either side; every hash is recomputed from
// (key, val, left, right). keys must be sorted.
func refRoot(keys []string, vals map[string][]byte) Digest {
	if len(keys) == 0 {
		return emptyRoot
	}
	top := 0
	for i, k := range keys {
		if nodePrio(k) > nodePrio(keys[top]) {
			top = i
		}
	}
	k := keys[top]
	return nodeHash(kvDigest(k, vals[k]), refRoot(keys[:top], vals), refRoot(keys[top+1:], vals))
}

func refDigest(vals map[string][]byte) Digest {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return refRoot(keys, vals)
}

// TestLazyMapMatchesEagerReference drives random interleavings of creates,
// overwrites, deletes (interior nodes rotate down), Digest, ProveKey and
// Restore; wherever a hash is read it must equal the eager reference's,
// however many mutations were left unsettled before it.
func TestLazyMapMatchesEagerReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMap()
		ref := map[string][]byte{}
		for i := 0; i < 600; i++ {
			k := fmt.Sprintf("k%02d", rng.Intn(48))
			switch op := rng.Intn(20); {
			case op < 9:
				v := make([]byte, rng.Intn(40))
				rng.Read(v)
				m.Set(k, v)
				ref[k] = v
			case op < 14:
				m.Delete(k)
				delete(ref, k)
			case op < 16:
				if got, want := m.Digest(), refDigest(ref); got != want {
					t.Fatalf("seed %d op %d: Digest %v, reference %v", seed, i, got, want)
				}
			case op < 19:
				kp, err := m.ProveKey(k)
				if _, live := ref[k]; live != (err == nil) {
					t.Fatalf("seed %d op %d: ProveKey(%q) err = %v, live = %v", seed, i, k, err, live)
				}
				if err == nil {
					if !bytes.Equal(kp.Value, ref[k]) {
						t.Fatalf("seed %d op %d: proof carries a stale value", seed, i)
					}
					if err := VerifyKey(refDigest(ref), kp); err != nil {
						t.Fatalf("seed %d op %d: proof against the reference root: %v", seed, i, err)
					}
				}
			default:
				m.Restore(m.Snapshot())
			}
			if i%50 == 49 {
				checkTreap(t, m)
			}
		}
		if got, want := m.Digest(), refDigest(ref); got != want {
			t.Fatalf("seed %d: final Digest %v, reference %v", seed, got, want)
		}
	}
}

// TestProveKeyOnUnsettledMap: a proof taken right after a burst of writes,
// with no Digest in between, verifies against the Digest that follows.
func TestProveKeyOnUnsettledMap(t *testing.T) {
	m := NewMap()
	for i := 0; i < 300; i++ {
		m.Set(fmt.Sprintf("key-%03d", i), []byte{byte(i)})
	}
	m.Digest()
	for i := 0; i < 300; i += 3 {
		m.Set(fmt.Sprintf("key-%03d", i), []byte("rewritten"))
	}
	m.Delete("key-007")
	m.Set("key-300", []byte("new"))
	for _, k := range []string{"key-000", "key-008", "key-300"} {
		kp, err := m.ProveKey(k)
		if err != nil {
			t.Fatalf("ProveKey(%s): %v", k, err)
		}
		if err := VerifyKey(m.Digest(), kp); err != nil {
			t.Fatalf("VerifyKey(%s): %v", k, err)
		}
	}
}

// TestMapNodeSize: marking a node dirty and its payload digest stale with
// zero digests, not flags, keeps it exactly in the 128-byte allocator size
// class.
func TestMapNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(mapNode{}); got != 128 {
		t.Fatalf("mapNode is %d bytes, want 128", got)
	}
}

// TestPayloadDigestCacheSound: a node's cached payload digest is never
// wrong. Before a settle it is either stale (zero) or kvDigest(key, val);
// after one it is kvDigest(key, val) at every node, across creates,
// overwrites with the same value, the same length, a shorter, a longer
// and an empty value, deletes that rotate interior nodes down, and
// Restore. Set's returned copy holds the value written, whatever the
// caller does to its own slice afterwards.
func TestPayloadDigestCacheSound(t *testing.T) {
	check := func(t *testing.T, m *Map, settled bool, where string) {
		t.Helper()
		var walk func(n *mapNode)
		walk = func(n *mapNode) {
			if n == nil {
				return
			}
			want := kvDigest(n.key, n.val)
			if n.kv != want && (settled || n.kv != (Digest{})) {
				t.Fatalf("%s: node %q caches %v, kvDigest is %v (settled %v)", where, n.key, n.kv, want, settled)
			}
			walk(n.left)
			walk(n.right)
		}
		walk(m.root)
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMap()
		ref := map[string][]byte{}
		for i := 0; i < 800; i++ {
			k := fmt.Sprintf("k%02d", rng.Intn(40))
			old, live := ref[k]
			var v []byte
			switch op := rng.Intn(10); {
			case op == 0:
				m.Delete(k)
				delete(ref, k)
			case op == 1:
				m.Restore(m.Snapshot())
			case !live || op == 2:
				v = make([]byte, rng.Intn(24))
				rng.Read(v)
			case op == 3:
				v = bytes.Clone(old) // the same value
			case op == 4:
				v = append([]byte{^byte(len(old))}, old...)[:len(old)] // the same length
			case op == 5:
				v = bytes.Clone(old[:len(old)/2]) // shorter
			case op == 6:
				v = append(bytes.Clone(old), byte(i), byte(i>>8)) // longer
			default:
				v = []byte{} // empty
			}
			if v != nil {
				want := bytes.Clone(v)
				stored := m.Set(k, v)
				ref[k] = want
				for j := range v {
					v[j] ^= 0xFF // the caller reuses its buffer
				}
				if !bytes.Equal(stored, want) {
					t.Fatalf("seed %d op %d: Set returned %x, wrote %x", seed, i, stored, want)
				}
			}
			where := fmt.Sprintf("seed %d op %d", seed, i)
			check(t, m, false, where)
			if rng.Intn(4) == 0 {
				if got, want := m.Digest(), refDigest(ref); got != want {
					t.Fatalf("%s: Digest %v, reference %v", where, got, want)
				}
				check(t, m, true, where)
			}
		}
	}
}

// TestHashingDoesNotAllocate pins the allocation-free primitives and the
// write path: an overwrite reuses the node's value storage.
func TestHashingDoesNotAllocate(t *testing.T) {
	var d Digest
	leaf := make([]byte, 300)
	m := NewMap()
	for i := 0; i < 100; i++ {
		m.Set(fmt.Sprintf("key-%03d", i), []byte("value0"))
	}
	for name, tc := range map[string]struct {
		max float64
		fn  func()
	}{
		"nodeHash":      {0, func() { d = nodeHash(d, d, d) }},
		"InteriorHash":  {0, func() { d = InteriorHash(d, d) }},
		"LeafHash":      {0, func() { d = LeafHash(leaf) }},
		"kvDigest":      {0, func() { d = kvDigest("key-050", leaf[:32]) }},
		"overwrite Set": {1, func() { m.Set("key-050", leaf[:6]) }},
		"Set+Digest":    {1, func() { m.Set("key-051", leaf[:6]); d = m.Digest() }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got > tc.max {
			t.Errorf("%s: %v allocs per call, want ≤ %v", name, got, tc.max)
		}
	}
}

func TestTreapInvariantsUnderChurn(t *testing.T) {
	m := NewMap()
	rng := rand.New(rand.NewSource(42))
	live := map[string]bool{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(300))
		switch rng.Intn(3) {
		case 0, 1:
			m.Set(k, []byte{byte(i)})
			live[k] = true
		case 2:
			m.Delete(k)
			delete(live, k)
		}
	}
	checkTreap(t, m)
	if m.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(live))
	}
	for k := range live {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("live key %q missing", k)
		}
	}
}

func TestTreapCanonicalShape(t *testing.T) {
	// Insertion order must not affect the digest (replicas build state in
	// whatever order their blocks arrive content-wise).
	keys := []string{"m", "a", "z", "q", "b", "x", "c"}
	forward, backward := NewMap(), NewMap()
	for _, k := range keys {
		forward.Set(k, []byte(k))
	}
	for i := len(keys) - 1; i >= 0; i-- {
		backward.Set(keys[i], []byte(keys[i]))
	}
	if forward.Digest() != backward.Digest() {
		t.Fatal("insertion order changed the root digest")
	}
	// Deleting and re-inserting restores the exact digest.
	d := forward.Digest()
	forward.Delete("q")
	forward.Set("q", []byte("q"))
	if forward.Digest() != d {
		t.Fatal("delete+reinsert changed the digest")
	}
}

func TestQuickTreapMatchesReferenceMap(t *testing.T) {
	type op struct {
		Del bool
		Key uint8
		Val uint8
	}
	f := func(ops []op) bool {
		m := NewMap()
		ref := map[string][]byte{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%32)
			if o.Del {
				m.Delete(k)
				delete(ref, k)
			} else {
				m.Set(k, []byte{o.Val})
				ref[k] = []byte{o.Val}
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := m.Get(k)
			if !ok || string(got) != string(v) {
				return false
			}
		}
		// Rebuilding from the reference yields the same digest.
		m2 := NewMap()
		for k, v := range ref {
			m2.Set(k, v)
		}
		return m.Digest() == m2.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTreapProofsAlwaysVerify(t *testing.T) {
	f := func(keys []string, pick uint8) bool {
		m := NewMap()
		for i, k := range keys {
			m.Set(k, []byte{byte(i)})
		}
		if m.Len() == 0 {
			return true
		}
		all := m.Keys()
		k := all[int(pick)%len(all)]
		kp, err := m.ProveKey(k)
		if err != nil {
			return false
		}
		if VerifyKey(m.Digest(), kp) != nil {
			return false
		}
		// A tampered value must not verify.
		kp.Value = append(kp.Value, 0xFF)
		return VerifyKey(m.Digest(), kp) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTreapDeepProofPath(t *testing.T) {
	m := NewMap()
	for i := 0; i < 1000; i++ {
		m.Set(fmt.Sprintf("key-%04d", i), []byte("v"))
	}
	root := m.Digest()
	for _, k := range []string{"key-0000", "key-0500", "key-0999"} {
		kp, err := m.ProveKey(k)
		if err != nil {
			t.Fatalf("ProveKey(%s): %v", k, err)
		}
		if err := VerifyKey(root, kp); err != nil {
			t.Fatalf("VerifyKey(%s): %v", k, err)
		}
		// Proof must bind the position: swapping a step's direction breaks it.
		if len(kp.Steps) > 0 {
			kp.Steps[0].ProvenIsLeft = !kp.Steps[0].ProvenIsLeft
			if err := VerifyKey(root, kp); err == nil {
				t.Fatal("direction-flipped proof verified")
			}
		}
	}
}
