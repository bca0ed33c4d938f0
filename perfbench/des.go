package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/evalpool"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// The des-shocks configuration is BENCH_des.json's: 10k ivybridge
// nodes at 208 W each running stream, its arrival process and its
// budget-shock schedule, in fast mode.
const (
	desNodes    = 10000
	desBudgetW  = 208
	desArrivals = "rate=35,burst=2,diurnal=0.3,period=3600,units=2e12,spread=0.5"
	desFaults   = "shock.mtbs=3600,shock.frac=0.15,shock.len=120"
	desHorizon  = 15000
	// desSeeds is how many DES seeds have pinned outputs; -seed n runs
	// DES seed 1 + n mod desSeeds.
	desSeeds = 16
)

// desPin is the pinned output of one DES seed: a speed-only change must
// reproduce it exactly.
type desPin struct {
	TraceHash string  `json:"trace_hash"`
	Makespan  float64 `json:"makespan_sec"`
	Energy    float64 `json:"energy_joules"`
	Completed int     `json:"jobs_completed"`
}

//go:embed des_pins.json
var desPinsJSON []byte

// desSample is one fresh-process DES run, as a des child reports it.
type desSample struct {
	Seed      uint64  `json:"seed"`
	Faults    bool    `json:"faults"`
	SetupS    float64 `json:"setup_s"`
	PrewarmS  float64 `json:"prewarm_s"`
	RunS      float64 `json:"run_s"`
	Events    int     `json:"events"`
	Arrived   int     `json:"jobs_arrived"`
	AllocB    float64 `json:"alloc_bytes"`
	GCCount   float64 `json:"gc_count"`
	GCPauseMS float64 `json:"gc_pause_ms"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Shocks    int     `json:"shocks"`
	// Evals, Hits, Misses, Evictions and SimRuns are the evalpool
	// counters over the whole child, set-up included.
	Evals, Hits, Misses, Evictions, SimRuns uint64
	desPin
}

func desSeed(seed uint64) uint64 { return 1 + seed%desSeeds }

// The traced runs' layer sweep uses a 200-node fleet at a lower
// arrival rate and a shorter horizon, with shocks every ten minutes.
const (
	smallNodes    = 200
	smallArrivals = "rate=1,units=2e12,spread=0.5"
	smallFaults   = "shock.mtbs=600,shock.frac=0.15,shock.len=120"
	smallHorizon  = 3600
)

// desConfig builds the des-shocks cluster and run configuration, or
// the sweep's small one. The scheduler's profiles are prewarmed, so the
// run itself does not profile.
func desConfig(seed uint64, withFaults, small bool) (des.Config, time.Duration, error) {
	nNodes, arrivals, faultSpec, horizon := desNodes, desArrivals, desFaults, float64(desHorizon)
	if small {
		nNodes, arrivals, faultSpec, horizon = smallNodes, smallArrivals, smallFaults, smallHorizon
	}
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		return des.Config{}, 0, err
	}
	w, err := workload.ByName("stream")
	if err != nil {
		return des.Config{}, 0, err
	}
	arr, err := des.ParseArrivalSpec(arrivals)
	if err != nil {
		return des.Config{}, 0, err
	}
	nodes := make([]cluster.Node, nNodes)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("node%05d", i), Platform: p}
	}
	sched, err := cluster.NewScheduler(units.Power(desBudgetW*nNodes), nodes)
	if err != nil {
		return des.Config{}, 0, err
	}
	start := time.Now()
	if err := sched.Prewarm([]workload.Workload{w}); err != nil {
		return des.Config{}, 0, err
	}
	prewarm := time.Since(start)
	cfg := des.Config{
		Sched: sched, Workload: w,
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
		Arrivals: arr, Seed: seed, Horizon: horizon, Mode: des.ModeFast,
	}
	if withFaults {
		sp, err := faults.ParseSpec(faultSpec)
		if err != nil {
			return des.Config{}, 0, err
		}
		cfg.Injector = faults.NewInjector(sp, seed)
	}
	return cfg, prewarm, nil
}

// childDES is the "des" child role: set up and time the first des.Run
// of a fresh process, which is what a `pbc des` user pays.
func childDES(o options) (any, error) {
	if o.profile != "" {
		f, err := os.Create(o.profile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	seed := desSeed(o.seed)
	start := time.Now()
	cfg, prewarm, err := desConfig(seed, !o.noFaults, o.small)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)
	m0 := memSnap()
	start = time.Now()
	res, err := des.Run(cfg)
	if err != nil {
		return nil, err
	}
	run := time.Since(start)
	m1 := memSnap()
	st := evalpool.Default().Stats()
	return desSample{
		Seed: seed, Faults: !o.noFaults,
		SetupS: setup.Seconds(), PrewarmS: prewarm.Seconds(), RunS: run.Seconds(),
		Events: res.EngineEvents, Arrived: res.Arrived,
		AllocB:    float64(m1.TotalAlloc - m0.TotalAlloc),
		GCCount:   float64(m1.NumGC - m0.NumGC),
		GCPauseMS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		PeakRSSMB: peakRSSMB(),
		Shocks:    res.Faults.Shocks,
		Evals:     st.Requests, Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, SimRuns: st.SimRuns,
		desPin: desPin{
			TraceHash: fmt.Sprintf("%016x", res.TraceHash),
			Makespan:  res.Makespan, Energy: res.Energy.Joules(), Completed: res.Completed,
		},
	}, nil
}

// desChild runs one DES child and checks its outputs: a faulty run on
// the des-shocks fleet must reproduce the seed's pinned outputs, and
// every run must complete every job that arrived. pins is nil for the
// sweep's small fleet.
func desChild(b *bench, pins map[string]desPin, withFaults bool, profile string) (desSample, error) {
	args := []string{"-child", "des", "-workload", b.opts.workload, "-seed", fmt.Sprint(b.opts.seed)}
	if !withFaults {
		args = append(args, "-no-faults")
	}
	if pins == nil {
		args = append(args, "-small")
	}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	var s desSample
	if err := spawn(&s, args...); err != nil {
		return s, err
	}
	b.op(s.Completed == s.Arrived, "DES seed %d completed %d of %d jobs", s.Seed, s.Completed, s.Arrived)
	if withFaults && pins != nil {
		pin, ok := pins[strconv.FormatUint(s.Seed, 10)]
		b.op(ok && pin == s.desPin, "DES seed %d: got %+v, pinned %+v", s.Seed, s.desPin, pin)
	}
	return s, nil
}

func loadPins() (map[string]desPin, error) {
	var pins map[string]desPin
	if err := json.Unmarshal(desPinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("des_pins.json: %w", err)
	}
	return pins, nil
}

// runDESShocks runs fresh-process DES children until the measured time
// is spent (at least three), and reports their medians.
func runDESShocks(b *bench) error {
	pins, err := loadPins()
	if err != nil {
		return err
	}
	b.context["des_seed"] = desSeed(b.opts.seed)
	if b.opts.trace {
		return traceDES(b, pins)
	}
	var samples []desSample
	deadline := time.Now().Add(time.Duration(b.opts.seconds * float64(time.Second)))
	for len(samples) < 3 || time.Now().Before(deadline) {
		s, err := desChild(b, pins, true, "")
		if err != nil {
			return err
		}
		samples = append(samples, s)
	}
	pick := func(f func(s desSample) float64) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = f(s)
		}
		return out
	}
	runMS := pick(func(s desSample) float64 { return s.RunS * 1e3 })
	b.set("setup_s", median(pick(func(s desSample) float64 { return s.SetupS })), "s")
	b.set("latency_p50_ms", median(runMS), "ms")
	b.context["latency_p99_ms"] = quantile(runMS, 0.99)
	b.set("throughput_rps", median(pick(func(s desSample) float64 { return float64(s.Completed) / s.RunS })), "1/s")
	b.set("events_per_s", median(pick(func(s desSample) float64 { return float64(s.Events) / s.RunS })), "1/s")
	b.set("alloc_bytes_per_op", median(pick(func(s desSample) float64 { return s.AllocB / float64(s.Events) })), "bytes")
	b.set("peak_rss_mb", median(pick(func(s desSample) float64 { return s.PeakRSSMB })), "MB")
	b.context["des_runs"] = len(samples)
	b.context["des_run_ms"] = runMS
	return nil
}

// traceDES is the traced run of des-shocks: profiled runs, unprofiled
// runs (the tracing overhead is their ratio) and fault-free runs (the
// fault injector's cost is the difference), alternated until the time
// is spent, then the standalone sweep for the layers DES bypasses.
func traceDES(b *bench, pins map[string]desPin) error {
	var traced, plain, clean []desSample
	var profiles []string
	deadline := time.Now().Add(time.Duration(1.5 * b.opts.seconds * float64(time.Second)))
	for len(clean) < 2 || time.Now().Before(deadline) {
		prof := fmt.Sprintf("%s-%d.pprof", traceFile(b.opts, "cpu"), len(traced))
		s, err := desChild(b, pins, true, prof)
		if err != nil {
			return err
		}
		traced = append(traced, s)
		profiles = append(profiles, prof)
		if s, err = desChild(b, pins, true, ""); err != nil {
			return err
		}
		plain = append(plain, s)
		if s, err = desChild(b, pins, false, ""); err != nil {
			return err
		}
		clean = append(clean, s)
	}
	med := func(ss []desSample, f func(s desSample) float64) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		return median(xs)
	}
	run := func(s desSample) float64 { return s.RunS }
	alloc := func(s desSample) float64 { return s.AllocB / (1 << 20) }
	evals := med(traced, func(s desSample) float64 { return float64(s.Evals) })
	b.set("des.run_s", med(traced, run), "s")
	b.set("des.events", med(traced, func(s desSample) float64 { return float64(s.Events) }), "count")
	b.set("des.jobs", med(traced, func(s desSample) float64 { return float64(s.Completed) }), "count")
	b.set("des.gc_count", med(traced, func(s desSample) float64 { return s.GCCount }), "count")
	b.set("des.gc_pause_ms", med(traced, func(s desSample) float64 { return s.GCPauseMS }), "ms")
	b.set("faults.overhead_s", med(plain, run)-med(clean, run), "s")
	b.set("faults.alloc_mb", med(plain, alloc)-med(clean, alloc), "MB")
	b.set("faults.shocks", med(traced, func(s desSample) float64 { return float64(s.Shocks) }), "count")
	b.set("cluster.prewarm_s", med(traced, func(s desSample) float64 { return s.PrewarmS }), "s")
	b.set("trace.overhead_frac", med(traced, run)/med(plain, run)-1, "frac")
	plainMS := make([]float64, len(plain))
	for i, s := range plain {
		plainMS[i] = s.RunS * 1e3
	}
	b.set("latency_p99_ms", quantile(plainMS, 0.99), "ms")
	b.set("evalpool.hit_rate", med(traced, func(s desSample) float64 {
		return ratio(float64(s.Hits), float64(s.Hits+s.Misses))
	}), "frac")
	b.set("evalpool.evals_per_req", evals/b.metrics["des.events"].Value, "count")
	b.set("evalpool.evictions", med(traced, func(s desSample) float64 { return float64(s.Evictions) }), "count")
	b.set("sim.runs_per_req", med(traced, func(s desSample) float64 { return float64(s.SimRuns) })/b.metrics["des.events"].Value, "count")
	b.context["des_runs"] = len(traced) + len(plain) + len(clean)
	return finishTrace(b, newTracer(), profiles)
}
