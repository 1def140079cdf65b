package harness

import (
	"fmt"
	"time"

	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/kvstore"
	"sbft/internal/load"
)

// Scenario describes one harness run.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Opts configures the simulated deployment. The harness overlays
	// WrapApp to install its execution recorders (composing with any
	// caller-supplied wrapper).
	Opts cluster.Options
	// Schedule is the timed fault script applied during the run.
	Schedule cluster.Schedule
	// Arm, when set, runs against the freshly built cluster before the
	// schedule applies — the hook for adversarial wiring a flat Schedule
	// cannot express (e.g. colluding corrupters for the over-budget
	// auditor canary).
	Arm func(cl *cluster.Cluster)
	// OpsPerClient sizes the closed-loop workload.
	OpsPerClient int
	// Workload, when set, replaces both built-in drivers with a custom
	// one (e.g. the mixed certified-read/write generator in readgen.go).
	// It drives the cluster itself and returns the workload summary plus
	// the completed/expected operation counts for the liveness ledger;
	// OpenLoop and OpsPerClient are ignored.
	Workload func(cl *cluster.Cluster) (cluster.WorkloadResult, uint64, uint64)
	// OpenLoop, when set, replaces the closed-loop workload with an
	// open-loop Poisson arrival process (see internal/load): requests
	// keep arriving at OpenLoop.Rate regardless of completions, so the
	// run exercises saturation, admission-control rejects and client
	// backoff under the fault schedule. Gen still supplies operations;
	// OpsPerClient is ignored.
	OpenLoop *load.Config
	// Gen produces the i-th operation of a client. Nil uses a unique-key
	// KV workload (required by the auditor's re-execution check: operation
	// payloads must be unique).
	Gen cluster.OpGen
	// Horizon bounds the workload phase in virtual time.
	Horizon time.Duration
	// Settle runs the simulation beyond the workload so retransmissions,
	// state transfers and checkpoints quiesce before the audit.
	Settle time.Duration
	// ExpectAllCommitted asserts liveness: every client operation must
	// complete within Horizon. Set it only for schedules that heal all
	// faults (safety is audited regardless).
	ExpectAllCommitted bool
	// Check, when set, runs against the settled cluster before the audit
	// and returns a failure description ("" = pass) — the hook for
	// scenario-specific assertions a generic audit cannot express (e.g.
	// "the recovering replica caught up and blamed only faulty servers").
	Check func(cl *cluster.Cluster) string
}

// UniqueKVGen is the default workload: globally unique keys so the
// auditor can detect re-execution.
func UniqueKVGen(client, i int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d/k%d", client, i), []byte(fmt.Sprintf("v%d", i)))
}

// Report is the outcome of one scenario.
type Report struct {
	Scenario string
	Seed     int64
	// Completed / Expected count client operations.
	Completed uint64
	Expected  uint64
	// LivenessFailure is set when ExpectAllCommitted was requested and
	// operations were left incomplete.
	LivenessFailure string
	// CheckFailure is set when the scenario's Check hook failed.
	CheckFailure string
	// Audit is the cross-replica safety audit.
	Audit *Audit
	// Result is the workload summary.
	Result cluster.WorkloadResult
	// Faults echoes the applied schedule for reproduction.
	Faults cluster.Schedule
	// StoreErrors and CaptureFailures are the settled cluster's counters of
	// the same names (core.Metrics): failures a replica swallows and
	// carries on from, which no audit sees.
	StoreErrors, CaptureFailures uint64
}

// Failed reports whether the scenario violated safety, (when asserted)
// liveness, or its scenario-specific Check.
func (r *Report) Failed() bool {
	return r.LivenessFailure != "" || r.CheckFailure != "" || (r.Audit != nil && !r.Audit.OK())
}

// Summary renders a one-line outcome.
func (r *Report) Summary() string {
	status := "ok"
	if r.Failed() {
		status = "FAIL"
	}
	s := fmt.Sprintf("%s seed=%d %s: %d/%d ops, %d replicas, %d seqs audited",
		r.Scenario, r.Seed, status, r.Completed, r.Expected,
		r.Audit.ReplicasAudited, r.Audit.SeqsAudited)
	if r.Audit.ByzantineExcluded > 0 {
		s += fmt.Sprintf(" (%d byzantine excluded)", r.Audit.ByzantineExcluded)
	}
	if r.LivenessFailure != "" {
		s += "; " + r.LivenessFailure
	}
	if r.CheckFailure != "" {
		s += "; " + r.CheckFailure
	}
	for _, d := range r.Audit.Divergences {
		s += "; " + d
	}
	if r.StoreErrors > 0 || r.CaptureFailures > 0 {
		s += fmt.Sprintf("; StoreErrors=%d CaptureFailures=%d", r.StoreErrors, r.CaptureFailures)
	}
	return s
}

// Run executes one scenario end to end: build the cluster with recording
// applications, apply the fault schedule, drive the workload, settle, and
// audit.
func Run(s Scenario) (*Report, error) {
	recorders := make(map[int]*Recorder)
	opts := s.Opts
	userWrap := opts.WrapApp
	opts.WrapApp = func(id int, app core.Application) core.Application {
		if userWrap != nil {
			app = userWrap(id, app)
		}
		rec := NewRecorder(app)
		recorders[id] = rec
		return rec
	}
	cl, err := cluster.New(opts)
	if err != nil {
		return nil, fmt.Errorf("harness: building cluster: %w", err)
	}
	defer cl.Close()

	var acks []Ack
	cl.OnResult = func(clientID int, res core.Result) {
		acks = append(acks, Ack{
			Client:    clientID,
			Timestamp: res.Timestamp,
			Seq:       res.Seq,
			Op:        res.Op,
			Val:       res.Val,
		})
	}

	if s.Arm != nil {
		s.Arm(cl)
	}
	cl.Apply(s.Schedule)

	gen := s.Gen
	if gen == nil {
		gen = UniqueKVGen
	}
	horizon := s.Horizon
	if horizon <= 0 {
		horizon = 10 * time.Minute
	}
	var res cluster.WorkloadResult
	var completed, expected uint64
	if s.Workload != nil {
		res, completed, expected = s.Workload(cl)
	} else if s.OpenLoop != nil {
		olCfg := *s.OpenLoop
		if olCfg.Gen == nil {
			olCfg.Gen = gen
		}
		ol := load.Run(cl, olCfg)
		res = ol.Workload(olCfg.Window)
		// Open loop: liveness covers what was actually admitted into a
		// client slot, not the unbounded arrival process. Completions are
		// counted from the ack log AFTER the settle phase, so in-flight
		// operations finishing late still satisfy the ledger.
		expected = ol.Submitted
	} else {
		res = cl.RunClosedLoop(s.OpsPerClient, gen, horizon)
		completed, expected = res.Completed, uint64(opts.Clients*s.OpsPerClient)
	}
	if s.Settle > 0 {
		cl.Run(s.Settle)
	}
	if s.Workload == nil && s.OpenLoop != nil {
		completed = uint64(len(acks))
	}

	report := &Report{
		Scenario:  s.Name,
		Seed:      opts.Seed,
		Completed: completed,
		Expected:  expected,
		Audit:     AuditCluster(cl, recorders, acks),
		Result:    res,
		Faults:    s.Schedule,
	}
	m := cl.Metrics()
	report.StoreErrors, report.CaptureFailures = m.StoreErrors, m.CaptureFailures
	if s.ExpectAllCommitted && report.Completed < report.Expected {
		report.LivenessFailure = fmt.Sprintf("liveness: %d of %d ops completed (live replicas: %d)",
			report.Completed, report.Expected, liveReplicaCount(cl))
	}
	if s.Check != nil {
		report.CheckFailure = s.Check(cl)
	}
	return report, nil
}
