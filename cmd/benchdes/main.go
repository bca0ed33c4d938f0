// Command benchdes benchmarks the discrete-event traffic simulator and
// writes BENCH_des.json: a seeded 10k-node, million-job run through the
// fast engine, with event/job throughput, the trace hash, and a replay
// check. The scheduler's profiles are prewarmed first, then one cold run
// (the first des.Run of the process) and a few warm runs are timed
// separately; every warm run must reproduce the cold run's hash bit for
// bit, or no report is written.
//
// Usage:
//
//	benchdes                    # write BENCH_des.json in the cwd
//	benchdes -o -               # print the report to stdout
//	benchdes -nodes 1000 -rate 4 -horizon 3600   # smaller sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// Report is the BENCH_des.json schema.
type Report struct {
	Schema string `json:"schema"`

	Platform    string  `json:"platform"`
	Workload    string  `json:"workload"`
	Nodes       int     `json:"nodes"`
	BudgetWatts float64 `json:"budget_watts"`
	ArrivalSpec string  `json:"arrival_spec"`
	FaultSpec   string  `json:"fault_spec,omitempty"`
	Seed        uint64  `json:"seed"`
	HorizonSec  float64 `json:"horizon_sec"`
	Mode        string  `json:"mode"`

	JobsArrived   int     `json:"jobs_arrived"`
	JobsCompleted int     `json:"jobs_completed"`
	EngineEvents  int     `json:"engine_events"`
	MakespanSec   float64 `json:"makespan_sec"`
	EnergyJoules  float64 `json:"energy_joules"`
	AvgWaitSec    float64 `json:"avg_wait_sec"`
	AvgTurnSec    float64 `json:"avg_turnaround_sec"`
	Shocks        int     `json:"shocks"`
	Readmissions  int     `json:"readmissions"`

	// The host the numbers were measured on.
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`

	// PrewarmMS is the scheduler profile prewarm; ColdWallMS the first
	// des.Run of the process; WarmWallMS the median of the warmRuns runs
	// after it. Throughputs are per phase: cold start never mixes into
	// the warm numbers.
	PrewarmMS        float64 `json:"prewarm_ms"`
	ColdWallMS       float64 `json:"cold_wall_ms"`
	WarmWallMS       float64 `json:"warm_wall_ms"`
	ColdEventsPerSec float64 `json:"cold_events_per_sec"`
	WarmEventsPerSec float64 `json:"warm_events_per_sec"`
	WarmJobsPerSec   float64 `json:"warm_jobs_per_sec"`
	TraceHash        string  `json:"trace_hash"`
}

// warmRuns is the number of timed runs after the cold one.
const warmRuns = 3

func main() {
	out := flag.String("o", "BENCH_des.json", "output path (\"-\" for stdout)")
	nNodes := flag.Int("nodes", 10000, "cluster node count")
	budget := flag.Float64("budget", 208, "per-node power bound in watts")
	platName := flag.String("platform", "ivybridge", "platform name")
	wlName := flag.String("workload", "stream", "workload name")
	arrival := flag.String("arrival-spec", "rate=35,burst=2,diurnal=0.3,period=3600,units=2e12,spread=0.5",
		"arrival spec (tuned to generate >1M jobs over the default horizon)")
	faultSpec := flag.String("fault-spec", "shock.mtbs=3600,shock.frac=0.15,shock.len=120",
		"fault spec for budget shocks during the run (empty = fault-free)")
	seed := flag.Uint64("seed", 1, "arrival and fault seed")
	horizon := flag.Float64("horizon", 15000, "arrival window in simulated seconds")
	flag.Parse()

	if err := run(*out, *nNodes, *budget, *platName, *wlName, *arrival, *faultSpec, *seed, *horizon); err != nil {
		fmt.Fprintln(os.Stderr, "benchdes:", err)
		os.Exit(1)
	}
}

func run(out string, nNodes int, budget float64, platName, wlName, arrival, faultSpec string, seed uint64, horizon float64) error {
	p, err := hw.PlatformByName(platName)
	if err != nil {
		return err
	}
	w, err := workload.ByName(wlName)
	if err != nil {
		return err
	}
	arr, err := des.ParseArrivalSpec(arrival)
	if err != nil {
		return err
	}
	nodes := make([]cluster.Node, nNodes)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("node%05d", i), Platform: p}
	}
	sched, err := cluster.NewScheduler(units.Power(budget*float64(nNodes)), nodes)
	if err != nil {
		return err
	}
	cfg := des.Config{
		Sched: sched, Workload: w,
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
		Arrivals: arr, Seed: seed, Horizon: horizon,
		Mode: des.ModeFast,
	}
	if faultSpec != "" {
		sp, err := faults.ParseSpec(faultSpec)
		if err != nil {
			return err
		}
		if !sp.Zero() {
			cfg.Injector = faults.NewInjector(sp, seed)
		}
	}

	start := time.Now()
	if err := sched.Prewarm([]workload.Workload{w}); err != nil {
		return err
	}
	prewarm := time.Since(start)

	start = time.Now()
	res, err := des.Run(cfg)
	if err != nil {
		return err
	}
	cold := time.Since(start)

	warmWalls := make([]time.Duration, warmRuns)
	for i := range warmWalls {
		start = time.Now()
		again, err := des.Run(cfg)
		if err != nil {
			return fmt.Errorf("warm run %d: %w", i+1, err)
		}
		warmWalls[i] = time.Since(start)
		if again.TraceHash != res.TraceHash || again.Makespan != res.Makespan {
			return fmt.Errorf("warm run %d diverged: trace %016x vs %016x", i+1, again.TraceHash, res.TraceHash)
		}
	}
	sort.Slice(warmWalls, func(i, j int) bool { return warmWalls[i] < warmWalls[j] })
	warmWall := warmWalls[len(warmWalls)/2] // the median
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

	rep := Report{
		Schema:      "pbc-des-bench/2",
		Platform:    p.Name,
		Workload:    w.Name,
		Nodes:       nNodes,
		BudgetWatts: budget,
		ArrivalSpec: arr.String(),
		FaultSpec:   faultSpec,
		Seed:        seed,
		HorizonSec:  horizon,
		Mode:        res.Mode.String(),

		JobsArrived:   res.Arrived,
		JobsCompleted: res.Completed,
		EngineEvents:  res.EngineEvents,
		MakespanSec:   res.Makespan,
		EnergyJoules:  res.Energy.Joules(),
		AvgWaitSec:    res.AvgWait,
		AvgTurnSec:    res.AvgTurnaround,
		Shocks:        res.Faults.Shocks,
		Readmissions:  res.Faults.Readmissions,

		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),

		PrewarmMS:        ms(prewarm),
		ColdWallMS:       ms(cold),
		WarmWallMS:       ms(warmWall),
		ColdEventsPerSec: float64(res.EngineEvents) / cold.Seconds(),
		WarmEventsPerSec: float64(res.EngineEvents) / warmWall.Seconds(),
		WarmJobsPerSec:   float64(res.Completed) / warmWall.Seconds(),
		TraceHash:        fmt.Sprintf("%016x", res.TraceHash),
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchdes: %d jobs, %d events; prewarm %v, cold %v (%.3gM events/s), warm %v (%.3gM events/s), replay OK -> %s\n",
		rep.JobsCompleted, rep.EngineEvents, prewarm.Round(time.Millisecond),
		cold.Round(time.Millisecond), rep.ColdEventsPerSec/1e6,
		warmWall.Round(time.Millisecond), rep.WarmEventsPerSec/1e6, out)
	return nil
}
