package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json lists
// the same names and units; a test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the deployment sees, measured with tracing off.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// bounds is, per end-to-end metric, the share of the parent's median by
// which it may worsen before a change counts as a regression.
var bounds = map[string]float64{
	"ops_per_s":     0.15,
	"cpu_ms_per_op": 0.15,
	"write_p50_ms":  0.15,
	"write_p90_ms":  0.15,
	"peak_rss_mb":   0.15,
	"setup_s":       0.25,
}

// perLayer is the traced run's numbers, then the standalone layer timings.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"crypto.sign_us_per_op", "us"},
	{"crypto.verify_share_us_per_op", "us"},
	{"crypto.batch_verify_us_per_op", "us"},
	{"crypto.combine_us_per_op", "us"},
	{"crypto.verify_sig_us_per_op", "us"},
	{"crypto.signs_per_op", "count"},
	{"crypto.share_verifies_per_op", "count"},
	{"crypto.sig_verifies_per_op", "count"},
	{"cryptopool.jobs_per_op", "count"},
	{"cryptopool.shares_per_job", "count"},
	{"cryptopool.wait_us_per_job", "us"},
	{"core.deliver_self_us_per_op", "us"},
	{"core.msgs_per_op", "count"},
	{"core.ops_per_block", "count"},
	{"core.fast_path_frac", "frac"},
	{"core.checkpoints", "count"},
	{"core.admission_rejects", "count"},
	{"core.retried_frac", "frac"},
	{"core.fast_ack_frac", "frac"},
	{"core.slow_ops", "count"},
	{"core.write_p99_ms", "ms"},
	{"core.client_verify_us_per_op", "us"},
	{"core.read_p50_ms", "ms"},
	{"core.read_p90_ms", "ms"},
	{"core.read_certified_frac", "frac"},
	{"core.read_failovers_per_read", "count"},
	{"core.reads_behind", "count"},
	{"core.read_batches", "count"},
	{"core.read_verify_us", "us"},
	{"transport.send_us_per_msg", "us"},
	{"transport.send_us_per_op", "us"},
	{"apps.execute_us_per_op", "us"},
	{"apps.prove_us_per_op", "us"},
	{"apps.digest_us_per_block", "us"},
	{"apps.snapshot_us_per_ckpt", "us"},
	{"trace.overhead_frac", "frac"},
	{"machine.probe_kernel_us", "us"},
	{"machine.speed", "frac"},
	{"bn254.pair_us", "us"},
	{"threshbls.sign_us", "us"},
	{"threshbls.verify_share_us", "us"},
	{"threshbls.batch_verify4_us", "us"},
	{"threshbls.combine_verified_us", "us"},
	{"threshbls.verify_us", "us"},
	{"threshsig.insecure_verify_share_us", "us"},
	{"merkle.map_set_us", "us"},
	{"merkle.prove_key_us", "us"},
	{"kvstore.execute_block64_us", "us"},
	{"snapcodec.encode_chunks_1pct_us", "us"},
	{"core.capture_chunked_us", "us"},
	{"core.verify_read_reply_us", "us"},
	{"transport.oneway_us", "us"},
	{"transport.rtt_us", "us"},
	{"storage.append_sync_us", "us"},
	{"storage.append_nosync_us", "us"},
	{"storage.save_snapshot_1mib_ms", "ms"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 where the metric does not apply (b is 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median is the middle of ds; 0 for a run that never finished a set-up.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 0.5)
}

// opsPerSecond is the run's throughput at the reference machine speed.
func (r runResult) opsPerSecond() float64 { return ratio(float64(r.ops), r.wall.Seconds()*r.speed) }

// endToEndMetrics derives the end-to-end metrics of an untraced run. The
// time-based ones are stated for the reference machine speed (probe.go).
// Set-up is scaled by the speed of the window that follows it: the box's
// speed drifts over minutes, and a set-up is too short to probe on its own.
func endToEndMetrics(r runResult) map[string]float64 {
	speed := r.speed
	return map[string]float64{
		"ops_per_s":     r.opsPerSecond(),
		"cpu_ms_per_op": ratio(ms(r.cpu), float64(r.ops)) * speed,
		"write_p50_ms":  ms(percentile(r.writeLat, 0.50)) * speed,
		"write_p90_ms":  ms(percentile(r.writeLat, 0.90)) * speed,
		"peak_rss_mb":   r.rssMB,
		"setup_s":       median(r.setups).Seconds() * speed,
	}
}

// perLayerMetrics derives the traced run's per-layer metrics. untracedOps
// is the ops_per_s of the untraced run it is compared with.
func perLayerMetrics(r runResult, untracedOps float64) map[string]float64 {
	ops := float64(r.ops)
	rs, cs := r.replicaStats, r.clientStats
	perOp := func(d time.Duration) float64 { return ratio(us(d), ops) }
	count := func(n uint64) float64 { return ratio(float64(n), ops) }

	var fast, slow, rejects, behind, batches uint64
	for i := range r.after {
		a, b := r.after[i], r.before[i]
		fast += a.FastCommits - b.FastCommits
		slow += a.SlowCommits - b.SlowCommits
		rejects += a.AdmissionRejects - b.AdmissionRejects
		behind += a.ReadsBehind - b.ReadsBehind
		batches += a.ReadBatches - b.ReadBatches
	}
	// Every replica commits every block; the primary's count is the blocks.
	var blocks, checkpoints uint64
	if len(r.after) > 0 {
		a, b := r.after[0], r.before[0]
		blocks = a.FastCommits + a.SlowCommits - b.FastCommits - b.SlowCommits
		checkpoints = a.Checkpoints - b.Checkpoints
	}
	writes, reads := float64(len(r.writeLat)), float64(len(r.readLat))
	jobs := rs["cryptopool.verify_job"].count + rs["cryptopool.combine_job"].count
	jobWait := rs["cryptopool.verify_job"].self + rs["cryptopool.combine_job"].self
	clientVerify := cs["client.verify_proof"].total + cs["crypto.verify_sig"].total

	return map[string]float64{
		"crypto.sign_us_per_op":         perOp(rs["crypto.sign"].total),
		"crypto.verify_share_us_per_op": perOp(rs["crypto.verify_share"].total),
		"crypto.batch_verify_us_per_op": perOp(rs["crypto.batch_verify"].total),
		"crypto.combine_us_per_op":      perOp(rs["crypto.combine"].total),
		"crypto.verify_sig_us_per_op":   perOp(rs["crypto.verify_sig"].total),
		"crypto.signs_per_op":           count(rs["crypto.sign"].count),
		"crypto.share_verifies_per_op":  count(rs["crypto.verify_share"].units + rs["crypto.batch_verify"].units),
		"crypto.sig_verifies_per_op":    count(rs["crypto.verify_sig"].count),

		"cryptopool.jobs_per_op":     count(jobs),
		"cryptopool.shares_per_job":  ratio(float64(rs["cryptopool.verify_job"].units), float64(rs["cryptopool.verify_job"].count)),
		"cryptopool.wait_us_per_job": ratio(us(jobWait), float64(jobs)),

		"core.deliver_self_us_per_op": perOp(rs["core.deliver"].self),
		"core.msgs_per_op":            count(rs["transport.send"].count),
		"core.ops_per_block":          ratio(float64(r.writeOps), float64(blocks)),
		"core.fast_path_frac":         ratio(float64(fast), float64(fast+slow)),
		"core.checkpoints":            float64(checkpoints),
		"core.admission_rejects":      float64(rejects),

		"core.retried_frac":            ratio(float64(r.retried), writes),
		"core.fast_ack_frac":           ratio(float64(r.fastAcks), writes),
		"core.slow_ops":                float64(r.slowOps),
		"core.write_p99_ms":            ms(percentile(r.writeLat, 0.99)),
		"core.client_verify_us_per_op": perOp(clientVerify),

		"core.read_p50_ms":             ms(percentile(r.readLat, 0.50)),
		"core.read_p90_ms":             ms(percentile(r.readLat, 0.90)),
		"core.read_certified_frac":     ratio(reads-float64(r.readOrdered), reads),
		"core.read_failovers_per_read": ratio(float64(r.readFailovers), reads),
		"core.reads_behind":            float64(behind),
		"core.read_batches":            float64(batches),
		"core.read_verify_us":          ratio(us(cs["client.read_reply"].self), float64(cs["client.read_reply"].count)),
		"transport.send_us_per_msg":    ratio(us(rs["transport.send"].total), float64(rs["transport.send"].count)),
		"transport.send_us_per_op":     perOp(rs["transport.send"].total),
		"apps.execute_us_per_op":       perOp(rs["apps.execute"].total),
		"apps.prove_us_per_op":         perOp(rs["apps.prove"].total),
		"apps.digest_us_per_block":     ratio(us(rs["apps.digest"].total), float64(len(r.after))*float64(blocks)),
		"apps.snapshot_us_per_ckpt":    ratio(us(rs["apps.snapshot"].total), float64(rs["apps.snapshot"].count)),
		"trace.overhead_frac":          1 - ratio(r.opsPerSecond(), untracedOps),
		"machine.probe_kernel_us":      us(r.kernel),
		"machine.speed":                r.speed,
	}
}

// printMetrics prints the metrics of defs by name with their units, and
// fails if values does not hold exactly the declared names with finite
// values.
func printMetrics(out io.Writer, defs []metricDef, values map[string]float64) error {
	if len(values) != len(defs) {
		return fmt.Errorf("have %d metrics, %d declared", len(values), len(defs))
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite", d.name)
		}
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", d.name, v, d.unit)
	}
	return nil
}

// printClientWarnings names the machine speed the run saw, then retries and
// slow ops on every workload: they are how finding 1 (README) shows from the
// client's side.
func printClientWarnings(out io.Writer, r runResult) {
	writes := float64(len(r.writeLat))
	fmt.Fprintf(out, "  machine.speed=%.4f (probe kernel %.1f us); unscaled: %.4f ops/s, %.4f cpu ms/op, write p50 %.4f ms, p90 %.4f ms, set-up %.4f s\n",
		r.speed, us(r.kernel), ratio(float64(r.ops), r.wall.Seconds()), ratio(ms(r.cpu), float64(r.ops)),
		ms(percentile(r.writeLat, 0.50)), ms(percentile(r.writeLat, 0.90)), median(r.setups).Seconds())
	fmt.Fprintf(out, "  core.retried_frac=%.4f core.slow_ops=%d (%d write requests, %d reads, %d operations)\n",
		ratio(float64(r.retried), writes), r.slowOps, len(r.writeLat), len(r.readLat), r.ops)
	if r.retried > 0 || r.slowOps > 0 {
		fmt.Fprintf(out, "  warning: %s: %d requests waited out the %v client retry timeout (README, known finding 1)\n",
			r.w.name, r.retried, retryTimeout)
	}
}
