package harness

import (
	"strings"
	"testing"

	"sbft/internal/cluster"
)

func TestOpenLoopGenSweep(t *testing.T) {
	congested := 0
	var rejects uint64
	for seed := int64(1); seed <= 6; seed++ {
		s := OpenLoopGen(seed)
		if s.OpenLoop == nil {
			t.Fatalf("seed %d: not an open-loop scenario", seed)
		}
		if strings.Contains(s.Name, "congested") {
			congested++
			check := s.Check
			s.Check = func(cl *cluster.Cluster) string {
				rejects += cl.Metrics().AdmissionRejects
				if check != nil {
					return check(cl)
				}
				return ""
			}
		}
		rep, err := Run(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failed() {
			t.Errorf("seed %d: %s", seed, rep.Summary())
		}
		if rep.Completed == 0 {
			t.Errorf("seed %d: no ops completed", seed)
		}
	}
	if congested == 0 {
		t.Error("no congested (tight MaxPending) seeds in the sweep")
	}
	// The congested seeds exist to drive BusyMsg backoff beside a fault; a
	// change that lets the primary hold more can leave them unable to.
	if rejects == 0 {
		t.Error("no admission reject on any congested seed: the generator no longer saturates the gate")
	}
}

func TestOpenLoopGenDeterministic(t *testing.T) {
	a, err := Run(OpenLoopGen(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(OpenLoopGen(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.Result != b.Result {
		t.Fatalf("open-loop scenario not reproducible:\n a=%+v\n b=%+v", a.Result, b.Result)
	}
}
