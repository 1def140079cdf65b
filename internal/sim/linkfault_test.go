package sim

import (
	"testing"
	"time"
)

// timeHandler records the arrival time of every delivery.
type timeHandler struct {
	sched *Scheduler
	got   *[]time.Duration
}

func (h timeHandler) Deliver(from NodeID, msg any) {
	*h.got = append(*h.got, h.sched.Now())
}

func newTestNet(t *testing.T, seed int64) (*Scheduler, *Network) {
	t.Helper()
	sched := NewScheduler(seed)
	net, err := NewNetwork(sched, UniformProfile(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return sched, net
}

func TestLinkFaultDropAll(t *testing.T) {
	sched, net := newTestNet(t, 1)
	var got []time.Duration
	net.Register(1, 0, timeHandler{sched, &got})
	net.Register(2, 0, timeHandler{sched, &got})
	net.SetLinkFault(1, 2, LinkFault{Drop: 1})
	for i := 0; i < 10; i++ {
		net.Send(1, 2, text("m"))
	}
	net.Send(2, 1, text("back")) // reverse direction unaffected
	sched.Run(0, 0)
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want only the reverse-direction one", len(got))
	}
	if net.MsgsDropped != 10 {
		t.Fatalf("MsgsDropped = %d, want 10", net.MsgsDropped)
	}
}

func TestLinkFaultDuplicate(t *testing.T) {
	sched, net := newTestNet(t, 2)
	var got []time.Duration
	net.Register(1, 0, timeHandler{sched, &got})
	net.Register(2, 0, timeHandler{sched, &got})
	net.SetLinkFault(1, 2, LinkFault{Duplicate: 1, ReorderJitter: time.Millisecond})
	for i := 0; i < 5; i++ {
		net.Send(1, 2, text("m"))
	}
	sched.Run(0, 0)
	if len(got) != 10 {
		t.Fatalf("delivered %d messages, want 10 (every one duplicated)", len(got))
	}
	if net.MsgsDuped != 5 {
		t.Fatalf("MsgsDuped = %d, want 5", net.MsgsDuped)
	}
}

func TestLinkFaultWildcard(t *testing.T) {
	sched, net := newTestNet(t, 3)
	var got []time.Duration
	for id := NodeID(1); id <= 3; id++ {
		net.Register(id, 0, timeHandler{sched, &got})
	}
	// Isolate node 1's outbound entirely via the wildcard.
	net.SetLinkFault(1, AnyNode, LinkFault{Drop: 1})
	net.Send(1, 2, text("a"))
	net.Send(1, 3, text("b"))
	net.Send(2, 1, text("c"))
	sched.Run(0, 0)
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1 (only 2→1)", len(got))
	}
	// A specific rule overrides the wildcard.
	net.SetLinkFault(1, 2, LinkFault{ExtraDelay: time.Microsecond})
	got = got[:0]
	net.Send(1, 2, text("d"))
	sched.Run(0, 0)
	if len(got) != 1 {
		t.Fatalf("specific rule did not override wildcard drop")
	}
	// Clearing restores normal delivery.
	net.ClearLinkFaults()
	got = got[:0]
	net.Send(1, 3, text("e"))
	sched.Run(0, 0)
	if len(got) != 1 {
		t.Fatalf("link fault survived ClearLinkFaults")
	}
	// The all-links wildcard (AnyNode → AnyNode) applies to every link.
	net.SetLinkFault(AnyNode, AnyNode, LinkFault{Duplicate: 1})
	got = got[:0]
	net.Send(2, 3, text("f"))
	net.Send(3, 1, text("g"))
	sched.Run(0, 0)
	if len(got) != 4 {
		t.Fatalf("all-links duplicate delivered %d, want 4", len(got))
	}
}
