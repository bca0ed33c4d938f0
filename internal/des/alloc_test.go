package des

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
)

// TestFaultScheduleAllocBounded: a fast-mode run whose fault horizon
// spans over a million shocks allocates within a small constant of the
// same run without an injector. The schedule is drawn only as far as the
// run reaches (a few hundred shocks here), so its cost is bounded by the
// run, not by the padded horizon.
func TestFaultScheduleAllocBounded(t *testing.T) {
	const (
		nodes    = 16
		unitsPer = 1e14
		mtbs     = 6.4
	)
	sp := faults.Spec{ShockMTBS: mtbs, ShockFrac: 0.001, ShockLen: 1}
	if n := cluster.FaultHorizon(nodes*unitsPer) / mtbs; n < 1e6 {
		t.Fatalf("fault horizon spans only %.0f shocks, want at least 1e6", n)
	}
	sched, w := testSched(t, nodes)
	cfg := Config{
		Sched: sched, Workload: w,
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
		Jobs: testJobs(w, nodes, unitsPer), Mode: ModeFast,
	}
	run := func(inj *faults.Injector) (Result, uint64) {
		c := cfg
		c.Injector = inj
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(c)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res, m1.TotalAlloc - m0.TotalAlloc
	}
	run(nil) // profile the workload before measuring
	_, clean := run(nil)
	res, shocked := run(faults.NewInjector(sp, 1))
	if res.Faults.Shocks == 0 {
		t.Fatal("no shock reached: the run does not exercise the schedule")
	}
	const slack = 64 << 10
	if shocked > clean+slack {
		t.Fatalf("run with %d shocks reached allocates %d B, fault-free run %d B: more than %d B apart",
			res.Faults.Shocks, shocked, clean, slack)
	}
	t.Logf("%d shocks reached: %d B with the injector, %d B without", res.Faults.Shocks, shocked, clean)
}
