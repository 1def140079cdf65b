package core

import (
	"bytes"
	"testing"
)

// snapChain on its own: no Replica, no Env (nothing here is served).

func newTestChain(t *testing.T, retain int) (*snapChain, *Metrics) {
	t.Helper()
	metrics := &Metrics{}
	c := newSnapChain(retain, nil, metrics)
	return &c, metrics
}

// plainSnapshot is an uncertified snapshot at seq whose second app chunk
// is filled with fill: generations built from it differ in that chunk.
func plainSnapshot(seq uint64, fill byte) *CertifiedSnapshot {
	app := bytes.Repeat([]byte{0xA1}, 3*SnapshotChunkSize)
	for i := SnapshotChunkSize; i < 2*SnapshotChunkSize; i++ {
		app[i] = fill
	}
	return certifiedSplit(seq, []byte{0}, app, encodeReplyTable(nil))
}

func TestSnapChainRetainsAndTrims(t *testing.T) {
	c, _ := newTestChain(t, 2)
	for i := uint64(1); i <= 4; i++ {
		c.adopt(plainSnapshot(4*i, byte(i)))
		if got, want := len(c.snapGens), int(min(i, 2)); got != want {
			t.Fatalf("after %d adoptions the chain holds %d generations, want %d", i, got, want)
		}
	}
	if got := c.seqs(); len(got) != 2 || got[0] != 12 || got[1] != 16 {
		t.Fatalf("chain %v, want [12 16]", got)
	}
	if c.seq() != 16 || c.genAt(12) == nil || c.genAt(8) != nil {
		t.Fatalf("seq %d, 12 retained %v, 8 retained %v", c.seq(), c.genAt(12) != nil, c.genAt(8) != nil)
	}
	c.adopt(plainSnapshot(12, 9)) // older than the newest: not a generation
	if got := c.seqs(); len(got) != 2 || got[1] != 16 {
		t.Fatalf("an older snapshot was adopted: %v", got)
	}
}

func TestSnapChainLatePersistOfEvictedGenerationNotDurable(t *testing.T) {
	c, metrics := newTestChain(t, 1)
	sink := &recordingSink{}
	c.sink = sink
	c.adopt(plainSnapshot(4, 1))
	c.adopt(plainSnapshot(8, 2)) // evicts 4 while its persist is in flight
	if len(sink.done) != 2 {
		t.Fatalf("sink was handed %v, want [4 8]", sink.seqs)
	}
	sink.done[0](nil)
	if c.durableSnap != 0 || metrics.SnapshotPersists != 0 {
		t.Fatalf("durable point %d (%d persists) armed by a generation no longer retained", c.durableSnap, metrics.SnapshotPersists)
	}
	sink.done[1](nil)
	if c.durableSnap != 8 || metrics.SnapshotPersists != 1 {
		t.Fatalf("durable point %d (%d persists), want 8 (1)", c.durableSnap, metrics.SnapshotPersists)
	}
}
