package cluster

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/units"
	"repro/internal/workload"
)

func mustW(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func timedJob(t *testing.T, id, wl string, work float64) TimedJob {
	t.Helper()
	return TimedJob{Job: job(t, id, wl), Units: work}
}

func TestRunQueueCompletesAllJobs(t *testing.T) {
	s, err := NewScheduler(500, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "j1", "stream", 5e12), // 5 TB of triad traffic
		timedJob(t, "j2", "dgemm", 1e14),  // 100 TFLOPs
		timedJob(t, "j3", "mg", 5e12),
		timedJob(t, "j4", "ep", 2e13),
	}
	res, err := s.RunQueue(jobs, PolicyCoord)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("completed %d of 4 jobs", len(res.Stats))
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if res.Energy <= 0 {
		t.Error("zero energy")
	}
	// Events pair up: one start and one finish per job, in time order.
	starts, finishes := 0, 0
	prev := -1.0
	for _, e := range res.Events {
		if e.Time < prev {
			t.Error("events out of order")
		}
		prev = e.Time
		switch e.Kind {
		case "start":
			starts++
		case "finish":
			finishes++
		}
	}
	if starts != 4 || finishes != 4 {
		t.Errorf("events: %d starts, %d finishes", starts, finishes)
	}
	// Every job's stats are self-consistent.
	for id, st := range res.Stats {
		if st.End <= st.Start {
			t.Errorf("%s: end before start", id)
		}
		if st.Rate <= 0 || st.Power <= 0 || st.Budget <= 0 {
			t.Errorf("%s: bad stats %+v", id, st)
		}
	}
}

func TestRunQueueSerializesWhenPoolIsTight(t *testing.T) {
	// 260 W can productively run roughly one job at a time: completions
	// must release power for waiting jobs and the makespan must exceed
	// any single job's runtime.
	s, err := NewScheduler(260, nodes(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "a", "dgemm", 5e13),
		timedJob(t, "b", "stream", 2e12),
		timedJob(t, "c", "ep", 1e13),
	}
	res, err := s.RunQueue(jobs, PolicyCoord)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 3 {
		t.Fatalf("completed %d of 3", len(res.Stats))
	}
	// At least one job had to wait: its start time is after time zero.
	waited := 0
	for _, st := range res.Stats {
		if st.Start > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Error("tight pool should force some job to wait")
	}
}

func TestRunQueueCoordBeatsEvenSplit(t *testing.T) {
	// The same queue under the same facility budget: COORD's splits give
	// each job more performance per granted watt, so the makespan must
	// not be worse than the even-split policy's (and should be better).
	mk := func() (*Scheduler, []TimedJob) {
		s, err := NewScheduler(450, nodes(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		return s, []TimedJob{
			timedJob(t, "j1", "dgemm", 5e13),
			timedJob(t, "j2", "mg", 4e12),
			timedJob(t, "j3", "stream", 4e12),
			timedJob(t, "j4", "cg", 1.5e12),
		}
	}
	s1, q1 := mk()
	coordRes, err := s1.RunQueue(q1, PolicyCoord)
	if err != nil {
		t.Fatal(err)
	}
	s2, q2 := mk()
	evenRes, err := s2.RunQueue(q2, PolicyEvenSplit)
	if err != nil {
		t.Fatal(err)
	}
	if coordRes.Makespan > evenRes.Makespan*1.001 {
		t.Errorf("COORD makespan %.1f s worse than even-split %.1f s",
			coordRes.Makespan, evenRes.Makespan)
	}
	if coordRes.Makespan > evenRes.Makespan*0.98 {
		t.Logf("note: COORD %.1f s vs even-split %.1f s (small margin)",
			coordRes.Makespan, evenRes.Makespan)
	}
}

func TestRunQueueRejectsImpossibleBudget(t *testing.T) {
	s, err := NewScheduler(150, nodes(t, 2)) // below every productive threshold
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunQueue([]TimedJob{timedJob(t, "j", "mg", 1e12)}, PolicyCoord)
	if err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestRunQueueValidatesWork(t *testing.T) {
	s, err := NewScheduler(400, nodes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunQueue([]TimedJob{timedJob(t, "j", "stream", 0)}, PolicyCoord)
	if err == nil {
		t.Error("zero work accepted")
	}
	_, err = s.RunQueue([]TimedJob{timedJob(t, "j", "stream", 1e12)}, SplitPolicy(99))
	if err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunQueuePowerNeverExceedsBudget(t *testing.T) {
	s, err := NewScheduler(420, nodes(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "j1", "stream", 3e12),
		timedJob(t, "j2", "sra", 2e9),
		timedJob(t, "j3", "bt", 2e13),
	}
	res, err := s.RunQueue(jobs, PolicyCoord)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct concurrent power at each event boundary from the stats.
	for _, e := range res.Events {
		var inUse units.Power
		for _, st := range res.Stats {
			if st.Start <= e.Time && e.Time < st.End {
				inUse += st.Budget
			}
		}
		if inUse > s.Budget+0.01 {
			t.Errorf("at t=%.1f: %v granted exceeds %v budget", e.Time, inUse, s.Budget)
		}
	}
}

func TestSplitPolicyString(t *testing.T) {
	if PolicyCoord.String() != "coord" || PolicyEvenSplit.String() != "even-split" {
		t.Error("policy names")
	}
	if SplitPolicy(9).String() == "" {
		t.Error("unknown policy should format")
	}
}

func TestBackfillBeatsFIFO(t *testing.T) {
	// Head-of-line blocking: after the first job takes its full demand,
	// the leftover power sits between the small job's threshold and the
	// blocked head job's threshold. Backfill lets the small job through;
	// FIFO makes it wait. The budget is derived from the profiles so the
	// window is exact.
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	dgemmProf, err := profile.ProfileCPU(p, mustW(t, "dgemm"))
	if err != nil {
		t.Fatal(err)
	}
	mgProf, err := profile.ProfileCPU(p, mustW(t, "mg"))
	if err != nil {
		t.Fatal(err)
	}
	epProf, err := profile.ProfileCPU(p, mustW(t, "ep"))
	if err != nil {
		t.Fatal(err)
	}
	dgemmDemand := dgemmProf.Critical.CPUMax + dgemmProf.Critical.MemMax
	epThresh := epProf.Critical.ProductiveThreshold()
	mgThresh := mgProf.Critical.ProductiveThreshold()
	if epThresh >= mgThresh {
		t.Fatalf("test premise broken: ep threshold %v not below mg %v", epThresh, mgThresh)
	}
	budget := dgemmDemand + (epThresh+mgThresh)/2

	mk := func() (*Scheduler, []TimedJob) {
		s, err := NewScheduler(budget, nodes(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		return s, []TimedJob{
			timedJob(t, "big1", "dgemm", 8e13), // takes its full demand
			timedJob(t, "big2", "mg", 8e12),    // blocked head: leftover below its threshold
			timedJob(t, "small", "ep", 5e12),   // fits the leftover power
		}
	}
	s1, q1 := mk()
	backfill, err := s1.RunQueueOpts(q1, PolicyCoord, DisciplineBackfill)
	if err != nil {
		t.Fatal(err)
	}
	s2, q2 := mk()
	fifo, err := s2.RunQueueOpts(q2, PolicyCoord, DisciplineFIFO)
	if err != nil {
		t.Fatal(err)
	}
	// Both complete all jobs.
	if len(backfill.Stats) != 3 || len(fifo.Stats) != 3 {
		t.Fatalf("completions: backfill %d, fifo %d", len(backfill.Stats), len(fifo.Stats))
	}
	// FIFO preserves start order strictly.
	if fifo.Stats["small"].Start < fifo.Stats["big2"].Start {
		t.Error("FIFO let the small job jump the queue")
	}
	// Backfill must not be worse, and the small job should start earlier
	// under backfill.
	if backfill.Makespan > fifo.Makespan*1.001 {
		t.Errorf("backfill makespan %.1f worse than FIFO %.1f",
			backfill.Makespan, fifo.Makespan)
	}
	if backfill.Stats["small"].Start >= fifo.Stats["small"].Start {
		t.Errorf("backfill small start %.1f not earlier than FIFO %.1f",
			backfill.Stats["small"].Start, fifo.Stats["small"].Start)
	}
}

func TestDisciplineString(t *testing.T) {
	if DisciplineBackfill.String() != "backfill" || DisciplineFIFO.String() != "fifo" {
		t.Error("discipline names")
	}
	if Discipline(7).String() == "" {
		t.Error("unknown discipline should format")
	}
}

func TestQueueFairnessMetrics(t *testing.T) {
	s, err := NewScheduler(260, nodes(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "a", "dgemm", 5e13),
		timedJob(t, "b", "stream", 2e12),
		timedJob(t, "c", "ep", 1e13),
	}
	res, err := s.RunQueue(jobs, PolicyCoord)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgWait() <= 0 {
		t.Error("serialized queue should have positive average wait")
	}
	if res.AvgTurnaround() < res.AvgWait() {
		t.Error("turnaround below wait")
	}
	if res.MaxSlowdown() <= 1 {
		t.Error("some job must be slowed down by queueing")
	}
	// Empty result degenerates to zeros/one.
	var empty QueueResult
	if empty.AvgWait() != 0 || empty.AvgTurnaround() != 0 || empty.MaxSlowdown() != 1 {
		t.Error("empty-result metrics")
	}
}

// tieJobs is a queue in which j1 and j3 are the same job (mg, 2e12
// units) started together on identical nodes with identical grants, so
// they finish in the same instant.
func tieJobs(t *testing.T) []TimedJob {
	t.Helper()
	return []TimedJob{
		timedJob(t, "j0", "cg", 2e12),
		timedJob(t, "j1", "mg", 2e12),
		timedJob(t, "j2", "cg", 1e12),
		timedJob(t, "j3", "mg", 2e12),
	}
}

// TestRunQueueCompletionTie: when two jobs finish in the same instant,
// the clock must not step backwards between their completions, so the
// identical jobs end at the same time, bit for bit, and RunQueue agrees
// with the nil-injector RunQueueFaulty.
func TestRunQueueCompletionTie(t *testing.T) {
	s, err := NewScheduler(1000, nodes(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunQueue(tieJobs(t), PolicyCoord)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := res.Stats["j1"].End, res.Stats["j3"].End; math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("identical jobs end at %v and %v", a, b)
	}
	ref, err := s.RunQueueFaulty(tieJobs(t), PolicyCoord, DisciplineBackfill, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref.QueueResult) {
		t.Errorf("RunQueue diverges from nil-injector RunQueueFaulty: makespan %v vs %v",
			res.Makespan, ref.Makespan)
	}
}

// TestRunQueueDuplicateJobIDs: a job's first start is its own, not that
// of an earlier job with the same ID. Stats holds one entry per ID, the
// job that finished last; its Start must be that job's own start event.
func TestRunQueueDuplicateJobIDs(t *testing.T) {
	s, err := NewScheduler(300, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunQueue([]TimedJob{
		timedJob(t, "j", "stream", 2e12),
		timedJob(t, "j", "dgemm", 2e13),
	}, PolicyCoord)
	if err != nil {
		t.Fatal(err)
	}
	var last Event
	for _, ev := range res.Events {
		if ev.Kind == "finish" {
			last = ev
		}
	}
	// Without faults a node runs one job at a time, so the last start on
	// the finishing node is the finishing job's start.
	start := math.NaN()
	for _, ev := range res.Events {
		if ev.Kind == "start" && ev.NodeID == last.NodeID && ev.Time <= last.Time {
			start = ev.Time
		}
	}
	if start == 0 {
		t.Fatalf("last job started at t=0; the case no longer queues one job behind the other: %+v", res.Events)
	}
	if got := res.Stats["j"].Start; math.Float64bits(got) != math.Float64bits(start) {
		t.Errorf("Stats[j].Start = %v, want its own start %v", got, start)
	}
}
