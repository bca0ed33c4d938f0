// Command perfbench is the repository's benchmark. One invocation runs
// one named workload against the allocation stack or the discrete-event
// simulator, checks the workload's outputs, and prints one JSON result
// line as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1
// they are the per-layer metrics of a separate traced run. README.md in
// this directory describes every workload and metric. run.py builds
// this binary from source and runs it.
//
// Usage:
//
//	perfbench -workload serve-exact -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	commit   string
	source   string
	// child selects a role run in a fresh process: "serve" (one
	// serve-exact measurement) or "des" (one first-in-process DES run),
	// started by the parent benchmark, or "pins", which prints
	// serve_pins.json.
	child    string
	noFaults bool
	small    bool
	profile  string
	outDir   string
}

// bench accumulates one run's outcome: operation counts, metrics, and
// the context line printed before the result.
type bench struct {
	opts      options
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
	context   map[string]any
}

func (b *bench) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.fail("metric %s is %v", name, v)
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one checked operation, failing it when ok is false.
func (b *bench) op(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

// fail records a failed operation without counting an attempt (the
// attempt was counted where the operation was issued).
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(*bench) error{
	"serve-exact": runServeExact,
	"des-shocks":  runDESShocks,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: serve-exact or des-shocks")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.commit, "commit", "unknown", "commit of the measured tree, recorded in the context line")
	flag.StringVar(&o.source, "source", "unknown", "digest of the measured sources, recorded in the context line")
	flag.StringVar(&o.child, "child", "", "internal: child role (serve, des or pins)")
	flag.BoolVar(&o.noFaults, "no-faults", false, "internal: des child without the fault injector")
	flag.BoolVar(&o.small, "small", false, "internal: des child on the layer sweep's 200-node fleet")
	flag.StringVar(&o.profile, "cpuprofile", "", "internal: CPU profile path for a des child")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench/out", "directory for traces and profiles")
	flag.Parse()
	o.trace = *traceFlag == 1

	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds (workloads: %v)\n", o.workload, names)
		os.Exit(2)
	}
	if o.child != "" {
		if err := runChild(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	b := &bench{opts: o, metrics: map[string]metric{}, context: map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     o.commit,
		"source":     o.source,
	}}
	if err := run(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(1)
	}
	finishMetrics(b)
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
	b.context["failures"] = b.failures
	emit(map[string]any{"context": b.context})
	emit(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
}

// runChild runs one single-sample role and prints its sample as JSON.
func runChild(o options) error {
	var sample any
	var err error
	switch o.child {
	case "serve":
		sample, err = childServe(o)
	case "des":
		sample, err = childDES(o)
	case "pins":
		sample, err = childPins()
	default:
		err = fmt.Errorf("unknown child role %q", o.child)
	}
	if err != nil {
		return err
	}
	if o.child == "pins" {
		// Indented, so that regenerated pins diff line by line.
		out, err := json.MarshalIndent(sample, "", " ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	emit(sample)
	return nil
}

func emit(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding output:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
