package des

import (
	"fmt"

	"repro/internal/cluster"
)

// traceKinds maps each round-loop transition kind to its trace-hash
// byte and to whether the hash names the transition's job and node.
var traceKinds = map[string]struct {
	code      byte
	job, node bool
}{
	"arrive":  {evArrive, true, false},
	"start":   {evStart, true, true},
	"finish":  {evFinish, true, true},
	"suspend": {evSuspend, true, true},
	"fail":    {evNodeFail, false, true},
	"recover": {evNodeUp, false, true},
	"shock":   {evShock, false, false},
	"restore": {evRestore, false, false},
}

// runExact runs the cluster round loop (Scheduler.RunLoop) with the
// generated trace as its arrivals, folding every transition into the
// trace hash and the streaming stats. A run whose jobs all arrive at
// t=0 (cfg.Jobs set, no arrival spec) is therefore byte-identical to
// Scheduler.RunQueueOpts / RunQueueFaulty.
func runExact(cfg Config, arrs []jobArrival) (Result, error) {
	out := Result{Mode: ModeExact}
	s := cfg.Sched

	// Dense indices for the trace hash, and arrival times for the
	// streaming stats. Generated jobs are named a%06d; t=0 jobs keep
	// their caller-assigned IDs.
	jobIndex := make(map[string]int32, len(cfg.Jobs)+len(arrs))
	arrivalAt := make(map[string]float64, len(arrs))
	for _, j := range cfg.Jobs {
		jobIndex[j.ID] = int32(len(jobIndex))
	}
	arrivals := make([]cluster.Arrival, len(arrs))
	for i, a := range arrs {
		id := fmt.Sprintf("a%06d", i)
		arrivals[i] = cluster.Arrival{At: a.at, Job: cluster.TimedJob{
			Job:   cluster.Job{ID: id, Workload: cfg.Workload},
			Units: a.units,
		}}
		jobIndex[id] = int32(len(jobIndex))
		arrivalAt[id] = a.at
	}
	nodeIndex := make(map[string]int32, len(s.Nodes))
	for i, n := range s.Nodes {
		nodeIndex[n.ID] = int32(i)
	}
	hash := newTraceHash()
	var stats agg
	observe := func(tr cluster.Transition) {
		k := traceKinds[tr.Kind]
		job, node := int32(-1), int32(-1)
		if k.job {
			job = jobIndex[tr.JobID]
		}
		if k.node {
			node = nodeIndex[tr.NodeID]
		}
		hash.event(tr.Time, k.code, job, node)
		if tr.Kind == "finish" {
			stats.finish(arrivalAt[tr.JobID], tr.FirstStart, tr.Time)
		}
	}

	res, steps, err := s.RunLoop(cfg.Jobs, cluster.Loop{
		Policy: cfg.Policy, Discipline: cfg.Discipline,
		Injector: cfg.Injector, Arrivals: arrivals, Observe: observe,
	})
	if err != nil {
		return out, err
	}

	out.Arrived = len(cfg.Jobs) + len(arrs)
	out.EngineEvents = steps
	out.Makespan = res.Makespan
	out.Energy = res.Energy
	out.Faults = res.Faults
	out.TraceHash = hash.h
	out.Queue = &res
	stats.fill(&out)
	return out, nil
}
