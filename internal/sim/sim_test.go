package sim

import (
	"strings"
	"testing"
	"time"

	"sbft/internal/core"
	"sbft/internal/wire"
)

type recorder struct {
	got []delivery
}

type delivery struct {
	from NodeID
	msg  any
	at   time.Duration
}

func (r *recorder) Deliver(from NodeID, msg any) {
	r.got = append(r.got, delivery{from: from, msg: msg})
}

// handlerFunc adapts a function to Handler.
type handlerFunc func(from NodeID, msg any)

func (f handlerFunc) Deliver(from NodeID, msg any) { f(from, msg) }

// text is a real message carrying s: the network only carries what the
// wire codec can frame.
func text(s string) core.Message { return core.RequestMsg{Req: core.Request{Op: []byte(s)}} }

// textOf reads back what text carried, after the frame's round trip.
func textOf(m any) string { return string(m.(core.RequestMsg).Req.Op) }

func newUniformNet(t *testing.T, delay time.Duration, nodes int) (*Network, []*recorder) {
	t.Helper()
	sched := NewScheduler(1)
	net, err := NewNetwork(sched, UniformProfile(delay))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	recs := make([]*recorder, nodes)
	for i := range recs {
		recs[i] = &recorder{}
		if err := net.Register(NodeID(i), 0, recs[i]); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	return net, recs
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run(0, 0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run(0, 0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", order)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	cancel := s.Schedule(time.Millisecond, func() { fired = true })
	cancel()
	s.Run(0, 0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancel after fire is a no-op.
	c2 := s.Schedule(time.Millisecond, func() {})
	s.Run(0, 0)
	c2()
}

func TestSchedulerTimeHorizon(t *testing.T) {
	s := NewScheduler(1)
	ran := 0
	s.Schedule(10*time.Millisecond, func() { ran++ })
	s.Schedule(100*time.Millisecond, func() { ran++ })
	n := s.Run(50*time.Millisecond, 0)
	if n != 1 || ran != 1 {
		t.Fatalf("ran %d events before horizon, want 1", ran)
	}
	if s.Now() != 50*time.Millisecond {
		t.Fatalf("Now = %v, want horizon 50ms", s.Now())
	}
	// Remaining event still runs afterwards.
	s.Run(0, 0)
	if ran != 2 {
		t.Fatal("event beyond horizon lost")
	}
}

func TestSchedulerMaxEvents(t *testing.T) {
	s := NewScheduler(1)
	var self func()
	n := 0
	self = func() {
		n++
		s.Schedule(time.Millisecond, self)
	}
	s.Schedule(0, self)
	s.Run(0, 100)
	if n != 100 {
		t.Fatalf("ran %d events, want capped 100", n)
	}
}

func TestNetworkDelivery(t *testing.T) {
	net, recs := newUniformNet(t, 10*time.Millisecond, 2)
	net.Send(0, 1, text("hello"))
	net.Scheduler().Run(0, 0)
	if len(recs[1].got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(recs[1].got))
	}
	if textOf(recs[1].got[0].msg) != "hello" || recs[1].got[0].from != 0 {
		t.Fatalf("delivery = %+v", recs[1].got[0])
	}
	if net.Scheduler().Now() != 10*time.Millisecond {
		t.Fatalf("delivery time = %v, want 10ms", net.Scheduler().Now())
	}
}

func TestNetworkCrash(t *testing.T) {
	net, recs := newUniformNet(t, time.Millisecond, 3)
	net.Crash(1)
	net.Send(0, 1, text("to-crashed"))
	net.Send(1, 2, text("from-crashed"))
	net.Scheduler().Run(0, 0)
	if len(recs[1].got) != 0 || len(recs[2].got) != 0 {
		t.Fatal("crashed node participated in delivery")
	}
	if net.MsgsDropped != 2 {
		t.Fatalf("MsgsDropped = %d, want 2", net.MsgsDropped)
	}
	net.Recover(1)
	net.Send(0, 1, text("after-recover"))
	net.Scheduler().Run(0, 0)
	if len(recs[1].got) != 1 {
		t.Fatal("recovered node did not receive")
	}
}

func TestNetworkCrashMidFlight(t *testing.T) {
	net, recs := newUniformNet(t, 10*time.Millisecond, 2)
	net.Send(0, 1, text("in-flight"))
	// Crash the receiver before delivery time.
	net.Scheduler().Schedule(5*time.Millisecond, func() { net.Crash(1) })
	net.Scheduler().Run(0, 0)
	if len(recs[1].got) != 0 {
		t.Fatal("message delivered to node crashed mid-flight")
	}
}

func TestNetworkStraggler(t *testing.T) {
	net, recs := newUniformNet(t, 10*time.Millisecond, 2)
	net.SetStraggler(1, 50*time.Millisecond)
	net.Send(0, 1, text("slow"))
	net.Scheduler().Run(0, 0)
	if got := recs[1].got; len(got) != 1 {
		t.Fatal("straggler lost message")
	}
	if net.Scheduler().Now() != 60*time.Millisecond {
		t.Fatalf("straggler delivery at %v, want 60ms", net.Scheduler().Now())
	}
	net.SetStraggler(1, 0) // clear
	net.Send(0, 1, text("fast"))
	start := net.Scheduler().Now()
	net.Scheduler().Run(0, 0)
	if net.Scheduler().Now()-start != 10*time.Millisecond {
		t.Fatal("straggler penalty not cleared")
	}
}

func TestNetworkPartition(t *testing.T) {
	net, recs := newUniformNet(t, time.Millisecond, 3)
	net.SetPartition(0, 1)
	net.SetPartition(1, 2)
	// 0 and 1 are in different groups: blocked. 2 is group 0: talks to all.
	net.Send(0, 1, text("blocked"))
	net.Send(0, 2, text("ok"))
	net.Send(2, 1, text("ok"))
	net.Scheduler().Run(0, 0)
	if len(recs[1].got) != 1 {
		t.Fatalf("node1 deliveries = %d, want 1 (from node2 only)", len(recs[1].got))
	}
	if len(recs[2].got) != 1 {
		t.Fatalf("node2 deliveries = %d, want 1", len(recs[2].got))
	}
	net.SetPartition(0, 0)
	net.Send(0, 1, text("healed"))
	net.Scheduler().Run(0, 0)
	if len(recs[1].got) != 2 {
		t.Fatal("healed partition still blocks")
	}
}

func TestNetworkBandwidth(t *testing.T) {
	msg := text(strings.Repeat("x", 500))
	frame, err := wire.AppendFrame(nil, 0, msg)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(1)
	cfg := UniformProfile(0)
	cfg.BandwidthBps = float64(2 * len(frame)) // the frame takes 500ms
	net, err := NewNetwork(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &recorder{}
	net.Register(0, 0, &recorder{})
	net.Register(1, 0, r)
	net.Send(0, 1, msg)
	sched.Run(0, 0)
	if sched.Now() != 500*time.Millisecond {
		t.Fatalf("serialization delay: delivered at %v, want 500ms", sched.Now())
	}
	if net.BytesSent != uint64(len(frame)) {
		t.Fatalf("BytesSent = %d, want the frame's %d", net.BytesSent, len(frame))
	}
}

// TestReceiversDoNotShareMessages: each delivery, a duplicate's too, is
// decoded from a frame of its own, so a receiver that writes into a
// message's bytes changes neither another delivery's copy nor the
// sender's value.
func TestReceiversDoNotShareMessages(t *testing.T) {
	net, recs := newUniformNet(t, time.Millisecond, 3)
	var seen []byte // receiver 1's digest byte before it flips it
	flip := handlerFunc(func(_ NodeID, msg any) {
		d := msg.(core.CheckpointShareMsg).Digest
		seen = append(seen, d[0])
		d[0] ^= 0xff
	})
	if err := net.Reattach(1, flip); err != nil {
		t.Fatal(err)
	}
	net.SetLinkFault(0, 1, LinkFault{Duplicate: 1})
	sent := core.CheckpointShareMsg{Seq: 4, Replica: 0, Digest: []byte{1, 2, 3}}
	net.Send(0, 1, sent)
	net.Send(0, 2, sent)
	net.Scheduler().Run(0, 0)
	if string(seen) != "\x01\x01" {
		t.Fatalf("receiver 1 saw digest bytes %v in its delivery and duplicate, want [1 1]", seen)
	}
	if len(recs[2].got) != 1 {
		t.Fatalf("receiver 2 got %d deliveries, want 1", len(recs[2].got))
	}
	if got := recs[2].got[0].msg.(core.CheckpointShareMsg).Digest[0]; got != 1 {
		t.Fatalf("receiver 2 sees digest byte %d after receiver 1 flipped its own, want 1", got)
	}
	if sent.Digest[0] != 1 {
		t.Fatalf("the sender's digest byte is %d after a receiver flipped its own, want 1", sent.Digest[0])
	}
}

func TestNetworkDrops(t *testing.T) {
	sched := NewScheduler(42)
	net, err := NewNetwork(sched, UniformProfile(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	net.SetLinkFault(AnyNode, AnyNode, LinkFault{Drop: 0.5})
	r := &recorder{}
	net.Register(0, 0, &recorder{})
	net.Register(1, 0, r)
	const total = 1000
	for i := 0; i < total; i++ {
		net.Send(0, 1, text("m"))
	}
	sched.Run(0, 0)
	got := len(r.got)
	if got < 350 || got > 650 {
		t.Fatalf("with 50%% drop, delivered %d of %d", got, total)
	}
	if net.MsgsDropped+net.MsgsSent != total {
		t.Fatalf("drop accounting: %d + %d != %d", net.MsgsDropped, net.MsgsSent, total)
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() (uint64, time.Duration) {
		sched := NewScheduler(7)
		cfg := ContinentProfile(7)
		net, err := NewNetwork(sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.SetLinkFault(AnyNode, AnyNode, LinkFault{Drop: 0.1})
		r := &recorder{}
		for i := 0; i < 10; i++ {
			h := Handler(&recorder{})
			if i == 9 {
				h = r
			}
			net.Register(NodeID(i), i%ContinentRegions, h)
		}
		for i := 0; i < 200; i++ {
			net.Send(NodeID(i%9), 9, text(strings.Repeat("x", i)))
		}
		sched.Run(0, 0)
		return uint64(len(r.got)), sched.Now()
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Fatalf("simulation not deterministic: (%d,%v) vs (%d,%v)", n1, t1, n2, t2)
	}
}

func TestRegisterValidation(t *testing.T) {
	sched := NewScheduler(1)
	net, _ := NewNetwork(sched, UniformProfile(0))
	if err := net.Register(0, 5, &recorder{}); err == nil {
		t.Fatal("out-of-range region accepted")
	}
	if err := net.Register(0, 0, &recorder{}); err != nil {
		t.Fatal(err)
	}
	if err := net.Register(0, 0, &recorder{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	sched := NewScheduler(1)
	if _, err := NewNetwork(sched, Config{Regions: 0}); err == nil {
		t.Fatal("zero regions accepted")
	}
	if _, err := NewNetwork(sched, Config{Regions: 2, BaseLatency: [][]time.Duration{{0}}}); err == nil {
		t.Fatal("wrong matrix shape accepted")
	}
	if _, err := NewNetwork(sched, Config{Regions: 1, BaseLatency: [][]time.Duration{{0, 0}}}); err == nil {
		t.Fatal("wrong row length accepted")
	}
}

func TestProfiles(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		regions int
	}{
		{"continent", ContinentProfile(3), ContinentRegions},
		{"world", WorldProfile(3), WorldRegions},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.Regions != tc.regions {
				t.Fatalf("Regions = %d", tc.cfg.Regions)
			}
			for i := 0; i < tc.regions; i++ {
				for j := 0; j < tc.regions; j++ {
					d := tc.cfg.BaseLatency[i][j]
					if d <= 0 {
						t.Fatalf("latency[%d][%d] = %v", i, j, d)
					}
					if d != tc.cfg.BaseLatency[j][i] {
						t.Fatalf("latency asymmetric at (%d,%d)", i, j)
					}
				}
			}
			// Determinism.
			var again Config
			if tc.name == "continent" {
				again = ContinentProfile(3)
			} else {
				again = WorldProfile(3)
			}
			for i := range tc.cfg.BaseLatency {
				for j := range tc.cfg.BaseLatency[i] {
					if tc.cfg.BaseLatency[i][j] != again.BaseLatency[i][j] {
						t.Fatal("profile not deterministic")
					}
				}
			}
		})
	}
}

func TestWorldSlowerThanContinent(t *testing.T) {
	c, w := ContinentProfile(1), WorldProfile(1)
	avg := func(cfg Config) time.Duration {
		var sum time.Duration
		var n int
		for i := range cfg.BaseLatency {
			for j := range cfg.BaseLatency[i] {
				if i != j {
					sum += cfg.BaseLatency[i][j]
					n++
				}
			}
		}
		return sum / time.Duration(n)
	}
	if avg(w) <= avg(c) {
		t.Fatalf("world avg %v not slower than continent avg %v", avg(w), avg(c))
	}
}
