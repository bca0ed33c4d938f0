package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/allocsvc"
	"repro/internal/cluster"
	"repro/internal/decisiontable"
	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// sweep calls, at small fixed sizes, every layer that some workload
// bypasses, so that each per-layer metric is measured in every traced
// run. Its spans are tagged "sweep" and its counters only fill metrics
// the workload left unset: wherever the workload made a call itself,
// its own numbers are reported.
func sweep(b *bench, tr *tracer) error {
	tr.mu.Lock()
	tr.src = "sweep"
	tr.mu.Unlock()
	rng := rand.New(rand.NewSource(int64(b.opts.seed)))
	pairs := catalogPairs()

	// The exact path over JSON: every route served once per request,
	// answered in-process, and re-run layer by layer.
	exact := checkSet(exactStream(b.opts.seed, 2000), map[string]int{
		allocsvc.RouteCoord: 4, allocsvc.RoutePlan: 3, allocsvc.RouteRecoord: 3,
		allocsvc.RouteTree: 3, allocsvc.RouteSchedule: 3,
	})
	e, _, err := setupExact(exact[:1])
	if err != nil {
		return err
	}
	defer e.close()
	for i, r := range exact {
		start := time.Now()
		_, err := e.call(r)
		tr.record(int32(i), "load."+routeName(r.route), start, time.Now())
		b.op(err == nil, "sweep request %s: %v", r.key, err)
	}
	if err := replaySampled(b.setDefault, tr, e, exact); err != nil {
		return err
	}

	// The fast path: the smallest catalog table behind one binary shard
	// and the client, under a short open loop for the generator's
	// lateness.
	set := decisiontable.New(decisiontable.Config{})
	e0 := evalpool.Default().Stats()
	var built bool
	tr.do(-1, -1, "decisiontable.build", func(int32) { built, _ = set.Build("h100", "gpustream") })
	b.op(built, "sweep table build")
	b.setDefault("decisiontable.build_sim_runs", float64(evalpool.Default().Stats().SimRuns-e0.SimRuns), "count")
	fast, err := tableDeployment(set, 1)
	if err != nil {
		return err
	}
	defer fast.close()
	var h100 []pair
	for _, p := range pairs {
		if p.platform.Name == "h100" && p.workload.Name == "gpustream" {
			h100 = append(h100, p)
		}
	}
	keys := coordUniverse(rng, rng, h100, 20)
	s0 := fast.stats()
	ss, _ := openLoop(500, 200*time.Millisecond, runtime.NumCPU(), sender(fast, keys, newAnswerStore(nil)))
	_, late, _ := latencies(ss)
	for _, s := range ss {
		b.op(s.err == nil, "sweep open-loop request: %v", s.err)
	}
	b.setDefault("gen.late_p50_ms", median(late), "ms")
	b.setDefault("gen.late_p99_ms", quantile(late, 0.99), "ms")
	if err := replaySampled(b.setDefault, tr, fast, keys); err != nil {
		return err
	}
	s1 := fast.stats()
	b.setDefault("allocsvc.coalesce_rate", ratio(float64(s1.Coalesced-s0.Coalesced), float64(s1.Requests-s0.Requests)), "frac")
	b.setDefault("allocsvc.rejected", float64(s1.Rejected-s0.Rejected), "count")
	b.setDefault("allocsvc.table_hit_rate", ratio(float64(s1.TableHits-s0.TableHits),
		float64(s1.TableHits-s0.TableHits+s1.TableMisses-s0.TableMisses)), "frac")
	b.setDefault("allocclient.retries", float64(fast.retries.Load()), "count")
	b.setDefault("allocclient.failovers", float64(fast.failovers.Load()), "count")
	b.setDefault("allocclient.degraded", float64(fast.degraded.Load()), "count")

	// Cluster prewarm over one node of every platform.
	var nodes []cluster.Node
	for i, p := range hw.AllPlatforms() {
		nodes = append(nodes, cluster.Node{ID: fmt.Sprintf("n%d", i), Platform: p})
	}
	sched, err := cluster.NewScheduler(units.Power(300*len(nodes)), nodes)
	if err != nil {
		return err
	}
	tr.do(-1, -1, "cluster.prewarm", func(int32) { err = sched.Prewarm(workload.AllWorkloads()) })
	b.op(err == nil, "sweep prewarm: %v", err)

	return sweepDES(b)
}

// sweepDES runs the small DES fleet with and without the shock
// injector, each in a fresh process as des-shocks does.
func sweepDES(b *bench) error {
	faulty, err := desChild(b, nil, true, "")
	if err != nil {
		return err
	}
	clean, err := desChild(b, nil, false, "")
	if err != nil {
		return err
	}
	b.setDefault("des.run_s", faulty.RunS, "s")
	b.setDefault("des.events", float64(faulty.Events), "count")
	b.setDefault("des.jobs", float64(faulty.Completed), "count")
	b.setDefault("des.gc_count", faulty.GCCount, "count")
	b.setDefault("des.gc_pause_ms", faulty.GCPauseMS, "ms")
	b.setDefault("faults.overhead_s", faulty.RunS-clean.RunS, "s")
	b.setDefault("faults.alloc_mb", (faulty.AllocB-clean.AllocB)/(1<<20), "MB")
	b.setDefault("faults.shocks", float64(faulty.Shocks), "count")
	return nil
}
