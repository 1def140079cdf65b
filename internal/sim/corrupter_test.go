package sim

import (
	"testing"
	"time"
)

// TestCorrupterSuppresses models a silent-but-alive node: every outbound
// send is swallowed, while inbound delivery still works.
func TestCorrupterSuppresses(t *testing.T) {
	net, recs := newUniformNet(t, time.Millisecond, 3)
	net.SetCorrupter(0, CorruptFunc(func(NodeID, any) []Injection { return nil }))

	net.Send(0, 1, text("gone"))
	net.Send(2, 0, text("heard"))
	net.Scheduler().Run(0, 0)

	if len(recs[1].got) != 0 {
		t.Fatalf("suppressed send delivered: %v", recs[1].got)
	}
	if len(recs[0].got) != 1 || textOf(recs[0].got[0].msg) != "heard" {
		t.Fatalf("inbound delivery to corrupted node broken: %v", recs[0].got)
	}
	if net.MsgsCorrupted != 1 {
		t.Fatalf("MsgsCorrupted = %d, want 1", net.MsgsCorrupted)
	}
}

// TestCorrupterEquivocates rewrites the payload per recipient: node 1
// sees the original, node 2 a conflicting variant.
func TestCorrupterEquivocates(t *testing.T) {
	net, recs := newUniformNet(t, time.Millisecond, 3)
	net.SetCorrupter(0, CorruptFunc(func(to NodeID, msg any) []Injection {
		if to == 2 {
			return []Injection{{To: to, Msg: text("evil")}}
		}
		return PassThrough(to, msg)
	}))

	net.Send(0, 1, text("honest"))
	net.Send(0, 2, text("honest"))
	net.Scheduler().Run(0, 0)

	if len(recs[1].got) != 1 || textOf(recs[1].got[0].msg) != "honest" {
		t.Fatalf("node 1 got %v, want honest", recs[1].got)
	}
	if len(recs[2].got) != 1 || textOf(recs[2].got[0].msg) != "evil" {
		t.Fatalf("node 2 got %v, want evil", recs[2].got)
	}
}

// TestCorrupterReplaysAndRedirects one send into several deliveries,
// including a delayed replay and a redirect to a third node.
func TestCorrupterReplaysAndRedirects(t *testing.T) {
	net, recs := newUniformNet(t, time.Millisecond, 3)
	net.SetCorrupter(0, CorruptFunc(func(to NodeID, msg any) []Injection {
		return []Injection{
			{To: to, Msg: msg},
			{To: to, Msg: msg, Delay: 5 * time.Millisecond},
			{To: 2, Msg: text("leak")},
		}
	}))

	net.Send(0, 1, text("m"))
	net.Scheduler().Run(0, 0)

	if len(recs[1].got) != 2 {
		t.Fatalf("node 1 got %d deliveries, want original + replay", len(recs[1].got))
	}
	if len(recs[2].got) != 1 || textOf(recs[2].got[0].msg) != "leak" {
		t.Fatalf("redirect missing: %v", recs[2].got)
	}
}

// TestCorrupterClearedRestoresHonestTraffic and respects crash state: a
// crashed corrupted node sends nothing at all.
func TestCorrupterClearedRestoresHonestTraffic(t *testing.T) {
	net, recs := newUniformNet(t, time.Millisecond, 2)
	net.SetCorrupter(0, CorruptFunc(func(NodeID, any) []Injection { return nil }))
	if !net.Corrupted(0) {
		t.Fatal("Corrupted(0) = false after install")
	}

	net.Crash(0)
	net.Send(0, 1, text("while-crashed"))
	net.Recover(0)
	net.SetCorrupter(0, nil)
	if net.Corrupted(0) {
		t.Fatal("Corrupted(0) = true after clear")
	}
	net.Send(0, 1, text("honest-again"))
	net.Scheduler().Run(0, 0)

	if len(recs[1].got) != 1 || textOf(recs[1].got[0].msg) != "honest-again" {
		t.Fatalf("got %v, want exactly honest-again", recs[1].got)
	}
}
