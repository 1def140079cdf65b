package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
)

// short sizes a run for tests: 256 keys per client and a 2 s window.
func short(traced bool) runConfig {
	return runConfig{seed: 3, keys: 256, setups: 1, settle: 300 * time.Millisecond, measure: 2 * time.Second, traced: traced}
}

// TestWorkloadsSmoke runs every workload traced for 2 s: no failed op, equal
// replica digests (run checks both), and every declared metric name present
// with a finite value. It doubles as the decorator-forwarding test: a
// wrapper that hides an optional interface makes the traced run silently
// measure the legacy whole-snapshot or per-share path.
func TestWorkloadsSmoke(t *testing.T) {
	layers, err := layerTimings(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := run(w, short(true))
			if !r.correct {
				t.Fatalf("run not correct: %v", r.err)
			}
			if r.failed != 0 || r.ops == 0 {
				t.Fatalf("failed=%d ops=%d", r.failed, r.ops)
			}
			if err := printMetrics(io.Discard, endToEnd, endToEndMetrics(r)); err != nil {
				t.Error(err)
			}
			values := perLayerMetrics(r, 1)
			for name, v := range layers {
				values[name] = v
			}
			if err := printMetrics(io.Discard, perLayer, values); err != nil {
				t.Error(err)
			}
			if err := writeTrace(t.TempDir()+"/trace.json", w.name, r.tracers); err != nil {
				t.Error(err)
			}
			for _, name := range []string{"core.deliver", "transport.send", "apps.execute", "apps.prove", "crypto.sign", "crypto.verify_sig"} {
				if r.replicaStats[name].count == 0 {
					t.Errorf("no %s span recorded", name)
				}
			}
			switch w.name {
			case "hmac4_readmix":
				// core.KeyReader and core.ChunkedSnapshotter reach the app
				// through tracedApp.
				served, dirty := replicaCounters(r)
				if served == 0 || dirty == 0 || len(r.readLat) == 0 {
					t.Errorf("ReadsServed=%d CheckpointDirtyChunks=%d reads=%d: the wrapped app lost the certified-read or chunked-capture path",
						served, dirty, len(r.readLat))
				}
				if r.replicaStats["apps.snapshot"].count == 0 || r.clientStats["client.read_reply"].count == 0 {
					t.Error("no apps.snapshot or client.read_reply span recorded")
				}
			case "bls4_write":
				// BatchVerifyShares reaches threshbls through the wrapped
				// scheme, and the pool's jobs are seen.
				if r.replicaStats["crypto.batch_verify"].count == 0 {
					t.Error("no crypto.batch_verify span: the wrapped scheme hides BatchVerifyShares")
				}
				if r.replicaStats["cryptopool.verify_job"].count == 0 || r.replicaStats["cryptopool.combine_job"].count == 0 {
					t.Error("no cryptopool job span recorded")
				}
			default:
				if n := r.replicaStats["cryptopool.submit"].count; n != 0 {
					t.Errorf("%d cryptopool spans on a workload that installs no crypto sink", n)
				}
			}
		})
	}
}

// TestWrappedSchemeBatchesOnlyWhenInnerDoes pins the other half of the
// forwarding rule: the HMAC scheme has no batch check, so its wrapper must
// not grow one.
func TestWrappedSchemeBatchesOnlyWhenInnerDoes(t *testing.T) {
	scheme, _, err := threshsig.InsecureDealer{Seed: []byte("t")}.Deal(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1, 0, time.Now(), false)
	if _, ok := traceScheme(scheme, core.SharePi, tr).(shareBatcher); ok {
		t.Error("wrapped InsecureScheme exposes BatchVerifyShares")
	}
}

// TestResultLine runs the command as the driver does and reads its last
// line.
func TestResultLine(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var out bytes.Buffer
		o := options{workload: "hmac4_write", seed: 5, seconds: 3, trace: trace, out: t.TempDir()}
		if err := mainErr(o, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted uint64
			Failed    uint64
			Metrics   map[string]metricValue
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("-trace %d: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Errorf("-trace %d: result %+v", trace, res)
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || (trace == 0 && m.Value <= 0) {
				t.Errorf("-trace %d: %s = %+v", trace, d.name, m)
			}
		}
	}
}

// TestTracerSelfTime checks the span arithmetic: a span's self time excludes
// its children, and a job's self time is its wait.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(1, 0, time.Now(), true)
	tr.begin("outer", "", 7)
	time.Sleep(5 * time.Millisecond)
	tr.begin("inner", "", 0)
	time.Sleep(20 * time.Millisecond)
	tr.end(1)
	job := tr.beginJob("job", []string{"k"}, 2)
	tr.end(1)
	tr.offLoop("work", "k", 2, func() { time.Sleep(20 * time.Millisecond) })
	time.Sleep(5 * time.Millisecond)
	tr.endJob(job)

	stats, spans := tr.aggregates(), tr.spans()
	outer, inner, j, work := stats["outer"], stats["inner"], stats["job"], stats["work"]
	if outer.self > outer.total-inner.total || outer.self < 5*time.Millisecond {
		t.Errorf("outer total %v self %v, inner total %v", outer.total, outer.self, inner.total)
	}
	if j.self > j.total-work.total || j.self < 5*time.Millisecond || j.units != 2 {
		t.Errorf("job total %v self %v units %d, work total %v", j.total, j.self, j.units, work.total)
	}
	byName := make(map[string]span)
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["inner"].Parent != byName["outer"].ID || byName["job"].Parent != byName["outer"].ID ||
		byName["work"].Parent != byName["job"].ID {
		t.Errorf("parents wrong: %+v", spans)
	}
	for _, sp := range spans {
		if sp.Seq != 7 {
			t.Errorf("span %s has seq %d, want the enclosing 7", sp.Name, sp.Seq)
		}
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the names the program
// prints the same.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s", i, spec.Workloads[i], w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, program prints %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := spec.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound != bounds[d.name] {
			t.Errorf("end_to_end %d: %+v vs %+v bound %v", i, m, d, bounds[d.name])
		}
	}
	for i, d := range perLayer {
		if m := spec.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, d)
		}
	}
}

// replicaCounters sums the replica-side counters the decorator-forwarding
// test looks at.
func replicaCounters(r runResult) (readsServed, dirtyChunks uint64) {
	for i := range r.after {
		readsServed += r.after[i].ReadsServed - r.before[i].ReadsServed
		dirtyChunks += r.after[i].CheckpointDirtyChunks - r.before[i].CheckpointDirtyChunks
	}
	return readsServed, dirtyChunks
}
