package main

import (
	"fmt"

	"repro/internal/allocsvc"
	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/dyncoord"
	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/powertree"
	"repro/internal/profile"
	"repro/internal/recoord"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// compute answers r in-process through the exported allocsvc compute
// function of its route, under a "compute.<route>" span. Tree and
// schedule have no exported in-process path and report false.
func compute(tr *tracer, id int32, r request) (any, bool, error) {
	var out any
	var err error
	switch {
	case r.coord != nil:
		tr.do(-1, id, "compute.coord", func(int32) { out, err = allocsvc.ComputeCoord(*r.coord) })
	case r.plan != nil:
		tr.do(-1, id, "compute.plan", func(int32) { out, err = allocsvc.ComputePlan(*r.plan) })
	case r.recoord != nil:
		tr.do(-1, id, "compute.recoord", func(int32) { out, err = allocsvc.ComputeRecoord(*r.recoord) })
	default:
		return nil, false, nil
	}
	return out, true, err
}

// replayer re-runs sampled requests layer by layer, one span per public
// call, the way the service's handlers compose those layers.
type replayer struct {
	tr     *tracer
	scheds map[string]*cluster.Scheduler
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, scheds: map[string]*cluster.Scheduler{}}
}

func resolve(platform, wl string) (hw.Platform, workload.Workload, error) {
	p, err := hw.PlatformByName(platform)
	if err != nil {
		return hw.Platform{}, workload.Workload{}, err
	}
	w, err := workload.ByName(wl)
	return p, w, err
}

func (rp *replayer) replay(id int32, r request) error {
	var err error
	switch {
	case r.coord != nil:
		rp.tr.do(-1, id, "replay.coord", func(root int32) { err = rp.coord(root, id, r.coord) })
	case r.plan != nil:
		rp.tr.do(-1, id, "replay.plan", func(root int32) {
			var p hw.Platform
			var w workload.Workload
			rp.tr.do(root, id, "resolve", func(int32) { p, w, err = resolve(r.plan.Platform, r.plan.Workload) })
			if err == nil {
				rp.tr.do(root, id, "dyncoord.plan", func(int32) {
					_, err = dyncoord.PlanCPUOrDegrade(p, w, units.Power(r.plan.Budget))
				})
			}
		})
	case r.recoord != nil:
		rp.tr.do(-1, id, "replay.recoord", func(root int32) {
			var p hw.Platform
			var w workload.Workload
			rp.tr.do(root, id, "resolve", func(int32) { p, w, err = resolve(r.recoord.Platform, r.recoord.Workload) })
			if err == nil {
				rp.tr.do(root, id, "recoord.run", func(int32) {
					_, err = recoord.Run(recoord.Config{Platform: p, Workload: w,
						Budget: units.Power(r.recoord.Budget), Rounds: r.recoord.Rounds})
				})
			}
		})
	case r.tree != nil:
		rp.tr.do(-1, id, "replay.tree", func(root int32) { err = rp.tree(root, id, r.tree) })
	case r.sched != nil:
		rp.tr.do(-1, id, "replay.schedule", func(root int32) { err = rp.schedule(root, id, r.sched) })
	}
	if err != nil {
		return fmt.Errorf("replaying %s: %w", r.key, err)
	}
	return nil
}

// coord replays ComputeCoord's chain for the "coord" strategy: resolve,
// profile, the COORD decision, the memoized evaluation of the chosen split, and the
// simulator run behind that evaluation.
func (rp *replayer) coord(root, id int32, req *allocsvc.CoordRequest) error {
	var p hw.Platform
	var w workload.Workload
	var err error
	rp.tr.do(root, id, "resolve", func(int32) { p, w, err = resolve(req.Platform, req.Workload) })
	if err != nil {
		return err
	}
	budget := units.Power(req.Budget)
	var d coord.Decision
	var evalReq evalpool.Request
	if p.Kind == hw.KindCPU {
		var prof profile.CPUProfile
		rp.tr.do(root, id, "profile", func(int32) { prof, err = profile.ProfileCPU(p, w) })
		if err != nil {
			return err
		}
		rp.tr.do(root, id, "coord.decide", func(int32) { d = coord.CPU(prof, budget) })
		evalReq = evalpool.Request{Op: evalpool.OpCPU, Proc: d.Alloc.Proc, Mem: d.Alloc.Mem}
	} else {
		var prof profile.GPUProfile
		rp.tr.do(root, id, "profile", func(int32) { prof, err = profile.ProfileGPU(p, w) })
		if err != nil {
			return err
		}
		rp.tr.do(root, id, "coord.decide", func(int32) { d = coord.GPU(prof, budget, coord.DefaultGamma) })
		cap := max(d.Alloc.Total(), p.GPU.MinCap)
		evalReq = evalpool.Request{Op: evalpool.OpGPUMemPower, Proc: cap, Mem: d.Alloc.Mem}
	}
	if d.Status == coord.StatusTooSmall {
		return nil
	}
	bound := evalpool.Default().Bind(evalpool.Problem{Platform: p, Workload: w})
	rp.tr.do(root, id, "evalpool.evaluate", func(int32) { _, err = bound.Evaluate(evalReq) })
	if err != nil {
		return err
	}
	rp.tr.do(root, id, "sim.run", func(int32) {
		if p.Kind == hw.KindCPU {
			_, err = sim.RunCPU(p, &w, evalReq.Proc, evalReq.Mem)
		} else {
			_, err = sim.RunGPUMemPower(p, &w, evalReq.Proc, evalReq.Mem)
		}
	})
	return err
}

// tree replays /v1/tree: resolve the leaves, build the leaf curves,
// then water-fill the budget.
func (rp *replayer) tree(root, id int32, req *allocsvc.TreeRequest) error {
	var spec powertree.Spec
	var err error
	rp.tr.do(root, id, "resolve", func(int32) {
		for _, rj := range req.Racks {
			rack := powertree.Rack{ID: rj.ID, Cap: units.Power(rj.CapWatts)}
			for _, nj := range rj.Nodes {
				p, w, rerr := resolve(nj.Platform, nj.Workload)
				if rerr != nil {
					err = rerr
					return
				}
				rack.Nodes = append(rack.Nodes, powertree.Node{ID: nj.ID, Platform: p, Workload: w, Priority: nj.Priority})
			}
			spec.Racks = append(spec.Racks, rack)
		}
	})
	if err != nil {
		return err
	}
	var cs *powertree.CurveSet
	rp.tr.do(root, id, "powertree.curves", func(int32) { cs, err = powertree.BuildCurves(spec) })
	if err != nil {
		return err
	}
	rp.tr.do(root, id, "powertree.solve", func(int32) { _, err = powertree.SolveCurves(cs, spec, units.Power(req.Budget)) })
	return err
}

// schedule replays /v1/schedule: resolve the cluster into a scheduler,
// cached per cluster as the service caches it, then run one round.
func (rp *replayer) schedule(root, id int32, req *allocsvc.ScheduleRequest) error {
	key := fmt.Sprint(req.Budget, req.Nodes)
	var sched *cluster.Scheduler
	var jobs []cluster.Job
	var err error
	rp.tr.do(root, id, "resolve", func(int32) {
		if sched = rp.scheds[key]; sched == nil {
			nodes := make([]cluster.Node, len(req.Nodes))
			for i, n := range req.Nodes {
				p, perr := hw.PlatformByName(n.Platform)
				if perr != nil {
					err = perr
					return
				}
				nodes[i] = cluster.Node{ID: n.ID, Platform: p}
			}
			if sched, err = cluster.NewScheduler(units.Power(req.Budget), nodes); err != nil {
				return
			}
			rp.scheds[key] = sched
		}
		for _, j := range req.Jobs {
			w, werr := workload.ByName(j.Workload)
			if werr != nil {
				err = werr
				return
			}
			jobs = append(jobs, cluster.Job{ID: j.ID, Workload: w})
		}
	})
	if err != nil {
		return err
	}
	rp.tr.do(root, id, "cluster.schedule", func(int32) { _, err = sched.Schedule(jobs) })
	return err
}
