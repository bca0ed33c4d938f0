package des

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// goldenFaultSpec exercises node outages, recoveries, and budget shocks
// in the golden-equivalence runs — the same scenario the pbc faults
// cluster demo uses.
const goldenFaultSpec = "node.mtbf=45,node.mttr=30,shock.mtbs=60,shock.frac=0.25,shock.len=10"

func testSched(t testing.TB, n int) (*cluster.Scheduler, workload.Workload) {
	t.Helper()
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	w, err := workload.ByName("stream")
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("node%02d", i), Platform: p}
	}
	sched, err := cluster.NewScheduler(units.Power(208*float64(n)), nodes)
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	return sched, w
}

func testJobs(w workload.Workload, n int, unitsPer float64) []cluster.TimedJob {
	jobs := make([]cluster.TimedJob, n)
	for i := range jobs {
		jobs[i] = cluster.TimedJob{
			Job:   cluster.Job{ID: fmt.Sprintf("job%02d", i), Workload: w},
			Units: unitsPer,
		}
	}
	return jobs
}

// TestGoldenEquivalenceFaultFree checks the exact engine's adapter: a
// 1-shot DES run whose jobs all arrive round-synchronously at t=0
// returns the round loop's output unchanged — same events, same stats,
// same makespan and energy bits — across policies and disciplines. The
// exact engine runs the loop itself, so the bytes are pinned by
// internal/cluster/testdata/queue.golden; this test catches an adapter
// that adds, drops or reorders anything.
func TestGoldenEquivalenceFaultFree(t *testing.T) {
	cases := []struct {
		name   string
		policy cluster.SplitPolicy
		disc   cluster.Discipline
	}{
		{"coord-backfill", cluster.PolicyCoord, cluster.DisciplineBackfill},
		{"coord-fifo", cluster.PolicyCoord, cluster.DisciplineFIFO},
		{"evensplit-backfill", cluster.PolicyEvenSplit, cluster.DisciplineBackfill},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched, w := testSched(t, 3)
			jobs := testJobs(w, 7, 2e12)
			want, err := sched.RunQueueOpts(jobs, tc.policy, tc.disc)
			if err != nil {
				t.Fatalf("RunQueueOpts: %v", err)
			}
			got, err := Run(Config{
				Sched: sched, Workload: w,
				Policy: tc.policy, Discipline: tc.disc,
				Jobs: jobs, Mode: ModeExact,
			})
			if err != nil {
				t.Fatalf("des.Run: %v", err)
			}
			if got.Queue == nil {
				t.Fatal("exact mode returned no queue result")
			}
			if !reflect.DeepEqual(got.Queue.QueueResult, want) {
				t.Errorf("DES output diverges from RunQueueOpts:\n des: %+v\nloop: %+v",
					got.Queue.QueueResult, want)
			}
			if got.Completed != len(jobs) || got.Arrived != len(jobs) {
				t.Errorf("completed %d arrived %d, want %d", got.Completed, got.Arrived, len(jobs))
			}
			if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
				t.Errorf("makespan bits differ: %v vs %v", got.Makespan, want.Makespan)
			}
		})
	}
}

// TestGoldenEquivalenceFaulty is the same contract against the
// fault-aware round loop: identical injector schedules must produce an
// identical FaultyQueueResult — fault accounting included.
func TestGoldenEquivalenceFaulty(t *testing.T) {
	sp, err := faults.ParseSpec(goldenFaultSpec)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sched, w := testSched(t, 3)
			jobs := testJobs(w, 6, 2e12)
			want, err := sched.RunQueueFaulty(jobs, cluster.PolicyCoord, cluster.DisciplineBackfill,
				faults.NewInjector(sp, seed), nil)
			if err != nil {
				t.Fatalf("RunQueueFaulty: %v", err)
			}
			got, err := Run(Config{
				Sched: sched, Workload: w,
				Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
				Jobs: jobs, Injector: faults.NewInjector(sp, seed), Mode: ModeExact,
			})
			if err != nil {
				t.Fatalf("des.Run: %v", err)
			}
			if !reflect.DeepEqual(*got.Queue, want) {
				t.Errorf("DES output diverges from RunQueueFaulty:\n des: %+v\nloop: %+v",
					*got.Queue, want)
			}
			if got.Faults != want.Faults {
				t.Errorf("fault summaries differ:\n des: %+v\nloop: %+v", got.Faults, want.Faults)
			}
		})
	}
}

// TestGoldenEquivalenceNilInjector: the exact engine with no injector
// matches RunQueueFaulty driven with a nil injector (the fault-free
// path through the fault-aware loop, clamped advance included).
func TestGoldenEquivalenceNilInjector(t *testing.T) {
	sched, w := testSched(t, 3)
	jobs := testJobs(w, 6, 2e12)
	want, err := sched.RunQueueFaulty(jobs, cluster.PolicyCoord, cluster.DisciplineBackfill, nil, nil)
	if err != nil {
		t.Fatalf("RunQueueFaulty: %v", err)
	}
	got, err := Run(Config{
		Sched: sched, Workload: w,
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
		Jobs: jobs, Mode: ModeExact,
	})
	if err != nil {
		t.Fatalf("des.Run: %v", err)
	}
	if !reflect.DeepEqual(*got.Queue, want) {
		t.Errorf("DES output diverges from nil-injector RunQueueFaulty:\n des: %+v\nloop: %+v",
			*got.Queue, want)
	}
}

func replayCfg(t *testing.T, mode Mode, seed uint64) Config {
	t.Helper()
	sched, w := testSched(t, 4)
	arr, err := ParseArrivalSpec("rate=0.05,burst=1.5,diurnal=0.4,period=900,units=2e12,spread=0.5")
	if err != nil {
		t.Fatalf("arrival spec: %v", err)
	}
	sp, err := faults.ParseSpec(goldenFaultSpec)
	if err != nil {
		t.Fatalf("fault spec: %v", err)
	}
	return Config{
		Sched: sched, Workload: w,
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
		Arrivals: arr, Seed: seed, Horizon: 1200,
		Injector: faults.NewInjector(sp, seed),
		Mode:     mode,
	}
}

// TestReplayDeterminism: the same seed replays byte-identically — equal
// trace hashes, equal makespan bits, equal aggregates — in both modes.
func TestReplayDeterminism(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeFast} {
		t.Run(mode.String(), func(t *testing.T) {
			a, err := Run(replayCfg(t, mode, 11))
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := Run(replayCfg(t, mode, 11))
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.TraceHash != b.TraceHash {
				t.Errorf("trace hashes differ: %016x vs %016x", a.TraceHash, b.TraceHash)
			}
			if math.Float64bits(a.Makespan) != math.Float64bits(b.Makespan) {
				t.Errorf("makespan bits differ: %v vs %v", a.Makespan, b.Makespan)
			}
			if a.Arrived != b.Arrived || a.Completed != b.Completed || a.EngineEvents != b.EngineEvents {
				t.Errorf("counts differ: %+v vs %+v", a, b)
			}
			if a.Arrived == 0 || a.Completed != a.Arrived {
				t.Errorf("replay run did not complete all jobs: %+v", a)
			}
			// A different seed must not replay the same trace.
			c, err := Run(replayCfg(t, mode, 12))
			if err != nil {
				t.Fatalf("third run: %v", err)
			}
			if c.TraceHash == a.TraceHash {
				t.Errorf("different seeds produced the same trace hash %016x", a.TraceHash)
			}
		})
	}
}

// TestCrossModeConsistency: the fast engine is not byte-identical to
// the exact one (different float operation order), but on the same
// traffic it must complete the same jobs with closely matching
// aggregate behavior.
func TestCrossModeConsistency(t *testing.T) {
	mk := func(mode Mode) Config {
		sched, w := testSched(t, 4)
		arr, err := ParseArrivalSpec("rate=0.05,burst=2,units=1e12,spread=0.5")
		if err != nil {
			t.Fatalf("arrival spec: %v", err)
		}
		return Config{
			Sched: sched, Workload: w,
			Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
			Arrivals: arr, Seed: 5, Horizon: 1500, Mode: mode,
		}
	}
	exact, err := Run(mk(ModeExact))
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	fast, err := Run(mk(ModeFast))
	if err != nil {
		t.Fatalf("fast: %v", err)
	}
	if exact.Arrived != fast.Arrived || exact.Completed != fast.Completed {
		t.Errorf("job counts diverge: exact %d/%d fast %d/%d",
			exact.Completed, exact.Arrived, fast.Completed, fast.Arrived)
	}
	relClose := func(name string, a, b, tol float64) {
		if a == 0 && b == 0 {
			return
		}
		if d := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b)); d > tol {
			t.Errorf("%s diverges: exact %g fast %g (rel %g > %g)", name, a, b, d, tol)
		}
	}
	relClose("makespan", exact.Makespan, fast.Makespan, 0.05)
	relClose("energy", exact.Energy.Joules(), fast.Energy.Joules(), 0.05)
	relClose("avg turnaround", exact.AvgTurnaround, fast.AvgTurnaround, 0.10)
}

// TestScaleSmokeFast drives a deliberately oversubscribed burst of
// thousands of jobs through a few hundred nodes — small enough for CI,
// shaped like the million-job bench — and checks the run drains fully
// and deterministically.
func TestScaleSmokeFast(t *testing.T) {
	mk := func() Config {
		sched, w := testSched(t, 200)
		arr, err := ParseArrivalSpec("rate=20,burst=2,units=5e11,spread=0.8")
		if err != nil {
			t.Fatalf("arrival spec: %v", err)
		}
		return Config{
			Sched: sched, Workload: w,
			Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
			Arrivals: arr, Seed: 3, Horizon: 300, Mode: ModeFast,
		}
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.Arrived < 5000 {
		t.Fatalf("scale smoke generated only %d jobs", a.Arrived)
	}
	if a.Completed != a.Arrived {
		t.Fatalf("completed %d of %d jobs", a.Completed, a.Arrived)
	}
	if a.Makespan <= 300 {
		t.Errorf("oversubscribed run should drain past the horizon, makespan %g", a.Makespan)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if a.TraceHash != b.TraceHash {
		t.Errorf("scale run is not replay-deterministic: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
}

// TestFastEngineFaultAccounting: the fast engine's fault counters move
// under an injector and the pool-conservation invariant holds.
func TestFastEngineFaultAccounting(t *testing.T) {
	res, err := Run(replayCfg(t, ModeFast, 11))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Faults.Shocks == 0 || res.Faults.NodeFailures == 0 || res.Faults.Readmissions == 0 {
		t.Fatalf("fault run should exercise shocks, outages, and evictions: %+v", res.Faults)
	}
	if res.Completed != res.Arrived {
		t.Errorf("faulty run lost jobs: %d of %d", res.Completed, res.Arrived)
	}
	if res.Faults.MaxConservationError > units.Power(1e-6) {
		t.Errorf("pool conservation error %v too large", res.Faults.MaxConservationError)
	}
	// With every job complete and every shock expired, the shock-adjusted
	// pool must equal the cluster budget — the invariant pbc verify pins
	// for the round loop, held here by the fast engine too.
	if diff := math.Abs(res.Faults.PoolLeft.Watts() - 832); diff > 1e-6 {
		t.Errorf("PoolLeft %v != budget 832 W", res.Faults.PoolLeft)
	}
}

// TestExactModeRejectsMaxEvents: exact mode takes its event cap from
// the cluster round loop, so a MaxEvents it would not honour is an
// error rather than silently ignored.
func TestExactModeRejectsMaxEvents(t *testing.T) {
	sched, w := testSched(t, 2)
	cfg := Config{
		Sched: sched, Jobs: testJobs(w, 2, 1e11),
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
		Mode: ModeExact, MaxEvents: 10,
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("exact mode accepted MaxEvents")
	}
	cfg.MaxEvents = 0
	if _, err := Run(cfg); err != nil {
		t.Fatalf("exact mode without MaxEvents: %v", err)
	}
}

func TestParseArrivalSpec(t *testing.T) {
	sp, err := ParseArrivalSpec(" rate = 2 , burst=1.5, diurnal=0.3 ,period=3600,units=2e12,spread=0.25")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := ArrivalSpec{Rate: 2, Burst: 1.5, Diurnal: 0.3, Period: 3600, Units: 2e12, Spread: 0.25}
	if sp != want {
		t.Fatalf("got %+v want %+v", sp, want)
	}
	if back, err := ParseArrivalSpec(sp.String()); err != nil || back != sp {
		t.Fatalf("round trip %q -> %+v (%v)", sp.String(), back, err)
	}
	if got := (ArrivalSpec{}).String(); got != "none" {
		t.Errorf("zero spec renders %q", got)
	}
	for _, bad := range []string{
		"rate",            // not key=value
		"bogus=1",         // unknown key
		"rate=1,rate=2",   // duplicate
		"rate=xyz",        // malformed value
		"rate=-1",         // negative
		"diurnal=1.5",     // amplitude above 1
		"spread=1",        // spread must stay below 1
		"rate=Inf",        // not finite
		"rate=1,,units=2", // empty entry
	} {
		if _, err := ParseArrivalSpec(bad); err == nil {
			t.Errorf("ParseArrivalSpec(%q) accepted invalid spec", bad)
		}
	}
}

// TestGenerateArrivals covers the process shape: determinism, horizon
// clipping, burst expansion, and spread bounds.
func TestGenerateArrivals(t *testing.T) {
	sp := ArrivalSpec{Rate: 1, Burst: 3, Diurnal: 0.5, Period: 100, Units: 1e12, Spread: 0.5}
	a := generateArrivals(sp, 9, 500, 1<<20)
	b := generateArrivals(sp, 9, 500, 1<<20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("generateArrivals is not deterministic")
	}
	if len(a) < 300 {
		t.Fatalf("expected a few hundred jobs, got %d", len(a))
	}
	last := 0.0
	for _, j := range a {
		if j.at < last || j.at >= 500 {
			t.Fatalf("arrival time %g out of order or past horizon", j.at)
		}
		last = j.at
		if j.units < 0.5e12 || j.units > 1.5e12 {
			t.Fatalf("job units %g outside spread envelope", j.units)
		}
	}
	if got := generateArrivals(ArrivalSpec{}, 9, 500, 1<<20); got != nil {
		t.Errorf("zero spec generated %d jobs", len(got))
	}
	if got := generateArrivals(sp, 9, 500, 10); len(got) != 10 {
		t.Errorf("maxJobs cap generated %d jobs", len(got))
	}
}

// TestPhasedGPUJobs runs phased ML-inference jobs on an H100-class
// cluster through both engines: exact mode must reproduce the round
// loop byte for byte — phased workloads and GPU platforms included —
// and each engine's trace hash must be stable across repeat runs.
func TestPhasedGPUJobs(t *testing.T) {
	p, err := hw.PlatformByName("h100")
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	w, err := workload.ByName("llmserve")
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	nodes := make([]cluster.Node, 3)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("gpu%02d", i), Platform: p}
	}
	sched, err := cluster.NewScheduler(units.Power(400*len(nodes)), nodes)
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	jobs := testJobs(w, 7, 2e12)

	want, err := sched.RunQueueOpts(jobs, cluster.PolicyCoord, cluster.DisciplineBackfill)
	if err != nil {
		t.Fatalf("RunQueueOpts: %v", err)
	}
	run := func(mode Mode) Result {
		got, err := Run(Config{
			Sched: sched, Workload: w,
			Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
			Jobs: jobs, Mode: mode,
		})
		if err != nil {
			t.Fatalf("des.Run mode %v: %v", mode, err)
		}
		return got
	}

	exact := run(ModeExact)
	if exact.Queue == nil || !reflect.DeepEqual(exact.Queue.QueueResult, want) {
		t.Errorf("phased DES run diverges from round loop:\n des: %+v\nloop: %+v",
			exact.Queue, want)
	}
	if exact.Completed != len(jobs) {
		t.Errorf("completed %d of %d phased jobs", exact.Completed, len(jobs))
	}
	if exact.TraceHash != run(ModeExact).TraceHash {
		t.Error("exact-mode trace hash unstable across repeat runs")
	}

	fast := run(ModeFast)
	if fast.Completed != len(jobs) || !(fast.Makespan > 0) {
		t.Errorf("fast mode: completed %d, makespan %v", fast.Completed, fast.Makespan)
	}
	if fast.TraceHash != run(ModeFast).TraceHash {
		t.Error("fast-mode trace hash unstable across repeat runs")
	}
}
