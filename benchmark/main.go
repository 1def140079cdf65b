// Command benchmark is the repository's wall-clock end-to-end benchmark:
// n=4 SBFT replicas and 8 closed-loop clients inside this process, over
// loopback TCP, wired as cmd/sbft-node wires them. See README.md.
//
//	bash benchmark/run.sh                         # all workloads, measured + traced, layer timings
//	bash benchmark/run.sh -selfcheck              # the same twice, A/A compared against the bounds
//	bash benchmark/run.sh --workload bls4_write --seed 7 --seconds 24 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	keysPerClient = 1024
	// setupsPerRun set-ups are timed per measured run and setup_s is their
	// median: one set-up is 1-3 s of mostly start-up effects.
	setupsPerRun = 3
	settle       = 2 * time.Second
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	out       string
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for key order and value bytes")
	flag.IntVar(&o.seconds, "seconds", 35, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", -1, "0: measured run only; 1: traced run and layer timings only; -1: both")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for trace_<workload>.json and scratch files")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run everything twice and compare the end-to-end metrics against their bounds")
	flag.Parse()
	if err := mainErr(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(o options, out io.Writer) error {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d: the replicas would time-share cores the numbers assume they own",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if o.seconds < 1 || o.trace < -1 || o.trace > 1 || flag.NArg() > 0 {
		return fmt.Errorf("bad arguments (see -h)")
	}
	chosen := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		chosen = []workload{w}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(out, "# sbft benchmark: nproc=%d GOMAXPROCS=%d %s cpu=%q seed=%d measured=%ds traced=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), o.seed, o.seconds, tracedSeconds(o))

	first, err := runAll(o, chosen, out)
	if err != nil || !o.selfcheck {
		return err
	}
	fmt.Fprintf(out, "# selfcheck: second pass\n")
	second, err := runAll(o, chosen, out)
	if err != nil {
		return err
	}
	return compare(out, chosen, first, second)
}

// tracedSeconds is the traced window: 15 s beside the default 35 s measured
// phase. A traced run on its own splits -seconds between an untraced
// reference window and the traced one, leaving a fifth for set-up and the
// layer timings.
func tracedSeconds(o options) time.Duration {
	if o.trace == 1 {
		return time.Duration(max(1, o.seconds*2/5)) * time.Second
	}
	return time.Duration(max(1, o.seconds*3/7)) * time.Second
}

// pass is the end-to-end metrics of one pass over the workloads.
type pass map[string]map[string]float64

// runAll runs the chosen workloads once each (measured, traced or both)
// and, when tracing, the standalone layer timings. With one workload and
// one kind of run it ends with the result line the driver reads.
func runAll(o options, chosen []workload, out io.Writer) (pass, error) {
	var layers map[string]float64
	if o.trace != 0 {
		var err error
		if layers, err = layerTimings(o.out); err != nil {
			return nil, fmt.Errorf("layer timings: %w", err)
		}
	}
	line := len(chosen) == 1 && o.trace != -1 && !o.selfcheck
	e2e := make(pass)
	for _, w := range chosen {
		// The untraced run is the measured phase; with -trace 1 it is only
		// the reference trace.overhead_frac compares the traced run with.
		cfg := runConfig{seed: o.seed, keys: keysPerClient, settle: settle,
			setups: setupsPerRun, measure: time.Duration(o.seconds) * time.Second}
		if o.trace == 1 {
			cfg.setups, cfg.measure = 1, tracedSeconds(o)
		}
		untraced := run(w, cfg)
		if o.trace != 1 {
			e2e[w.name] = endToEndMetrics(untraced)
			if err := report(out, "measured", untraced, endToEnd, e2e[w.name], line); err != nil {
				return nil, err
			}
		} else if untraced.err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, untraced.err)
		}
		if o.trace == 0 {
			continue
		}
		cfg.setups, cfg.measure, cfg.traced = 1, tracedSeconds(o), true
		traced := run(w, cfg)
		values := perLayerMetrics(traced, untraced.opsPerSecond())
		for name, v := range layers {
			values[name] = v
		}
		path := filepath.Join(o.out, "trace_"+w.name+".json")
		if err := writeTrace(path, w.name, traced.tracers); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "workload %s: spans written to %s\n", w.name, path)
		if err := report(out, "traced", traced, perLayer, values, line); err != nil {
			return nil, err
		}
	}
	return e2e, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one run: every metric by name, the client-side warnings
// and, with line set, the one-line JSON result the driver reads. It returns
// the run's error: a run that failed before it measured prints nothing, a
// run whose outputs were wrong prints its result with correct=false.
func report(out io.Writer, kind string, r runResult, defs []metricDef, values map[string]float64, line bool) error {
	if r.wall == 0 {
		return fmt.Errorf("%s: %w", r.w.name, r.err)
	}
	fmt.Fprintf(out, "workload %s: %s %.1fs, set-ups %v\n", r.w.name, kind, r.wall.Seconds(), r.setups)
	if err := printMetrics(out, defs, values); err != nil {
		return err
	}
	printClientWarnings(out, r)
	if line {
		res := struct {
			Correct   bool                   `json:"correct"`
			Attempted uint64                 `json:"attempted"`
			Failed    uint64                 `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{r.correct, uint64(len(r.writeLat)+len(r.readLat)) + r.hung, r.failed, make(map[string]metricValue)}
		for _, d := range defs {
			res.Metrics[d.name] = metricValue{values[d.name], d.unit}
		}
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", data)
	}
	if r.err != nil {
		return fmt.Errorf("%s: %w", r.w.name, r.err)
	}
	return nil
}

// compare is the A/A test: the same code measured twice must agree within
// each metric's bound.
func compare(out io.Writer, chosen []workload, first, second pass) error {
	fmt.Fprintf(out, "# selfcheck: relative difference between the two passes, beside the bound\n")
	exceeded := 0
	for _, w := range chosen {
		for _, d := range endToEnd {
			a, b := first[w.name][d.name], second[w.name][d.name]
			diff := math.Abs(b-a) / a
			verdict := "ok"
			if diff > bounds[d.name] {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(out, "  %-14s %-14s %12.4f %12.4f  diff %6.2f%%  bound %4.0f%%  %s\n",
				w.name, d.name, a, b, 100*diff, 100*bounds[d.name], verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two runs of the same code by more than their bound", exceeded)
	}
	return nil
}

// cpuModel reads the processor's name for the environment header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, model, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(model)
		}
	}
	return "unknown"
}
