package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/units"
)

// FaultSummary counts what the fault-aware queue engine handled.
type FaultSummary struct {
	// NodeFailures and NodeRecoveries count node outage transitions.
	NodeFailures, NodeRecoveries int
	// Readmissions counts jobs returned to the queue because their node
	// failed or a budget shock evicted them; each re-admission reclaims
	// the job's grant into the pool.
	Readmissions int
	// Shocks counts facility budget shocks applied.
	Shocks int
	// BudgetReclaimed is the total power returned to the pool by
	// failure- and shock-driven evictions.
	BudgetReclaimed units.Power
	// PoolLeft is the shock-adjusted uncommitted power at the end of the
	// run: the free pool plus any power still held back by unexpired
	// budget shocks. With every job complete it must equal the cluster
	// budget (up to float accumulation) — the pool-conservation
	// invariant `pbc verify` asserts.
	PoolLeft units.Power
	// MaxConservationError is the largest absolute deviation of
	// (pool + committed grants + shock-held power) from the cluster
	// budget observed at any event boundary. A non-trivial value means
	// re-admission accounting leaked or minted power.
	MaxConservationError units.Power
}

// FaultyQueueResult extends QueueResult with fault accounting.
type FaultyQueueResult struct {
	QueueResult
	Faults FaultSummary
}

// maxEngineEvents bounds the round loop, in every engine that runs it.
// Under any sane spec the loop terminates long before this; the bound
// converts a pathological spec (e.g. MTBF far below every job runtime)
// into an error instead of an unbounded spin.
const maxEngineEvents = 1_000_000

// RunQueueFaulty executes timed jobs to completion like RunQueueOpts
// while the injector disturbs the cluster: nodes fail and recover on the
// injector's deterministic schedule, and facility budget shocks shrink
// the pool for their duration (see RunLoop). Transitions are recorded
// into log (nil is fine). With the same jobs, spec, and seed, two runs
// produce identical results, event for event.
func (s *Scheduler) RunQueueFaulty(jobs []TimedJob, policy SplitPolicy, disc Discipline,
	inj *faults.Injector, log *trace.EventLog) (FaultyQueueResult, error) {
	res, _, err := s.RunLoop(jobs, Loop{Policy: policy, Discipline: disc, Injector: inj, Log: log})
	return res, err
}

// Arrival is a job that joins the queue at time At.
type Arrival struct {
	At  float64
	Job TimedJob
}

// Transition is one state change of the round loop, as Loop.Observe
// sees it. Kind is an Event kind ("start", "finish", "suspend", "fail",
// "recover") or one the event log does not record: "arrive" (JobID
// set), "shock" and "restore" (neither ID set).
type Transition struct {
	Event
	// FirstStart is the finished job's first admission time ("finish"
	// only).
	FirstStart float64
}

// Loop configures one run of the round loop beyond the jobs queued at
// t=0.
type Loop struct {
	Policy     SplitPolicy
	Discipline Discipline
	// Injector, when non-nil, draws node outages and budget shocks.
	Injector *faults.Injector
	// Log records fault transitions (nil is fine).
	Log *trace.EventLog
	// Arrivals are jobs that join the queue after t=0, in time order.
	Arrivals []Arrival
	// Observe, when non-nil, sees every transition in order, including
	// the arrivals and shock edges QueueResult.Events leaves out.
	Observe func(Transition)
}

// RunLoop is the one round loop behind every exact queue engine
// (RunQueue, RunQueueOpts, RunQueueFaulty and the DES exact mode). It
// runs jobs, all waiting at t=0, plus l.Arrivals to completion under
// the paper's rules — admission at the productive threshold, grants
// capped at maximum demand, COORD splits, surplus reclaimed — and the
// recovery semantics of a disturbed cluster:
//
//   - when a node fails, its job's grant is reclaimed into the pool, the
//     job re-enters the queue head with its remaining work, and the
//     admission pass re-runs immediately (surplus redistribution included,
//     since admission re-splits with COORD and reclaims surplus);
//   - when a budget shock arrives, the pool shrinks by the shock
//     fraction of the cluster budget; if committed grants no longer fit,
//     the most recently started jobs are evicted (grant reclaimed, job
//     re-queued) until they do — the bound is never knowingly exceeded;
//   - when a node recovers, a shock ends, a job arrives or a job
//     finishes, waiting jobs are reconsidered at once.
//
// The next event is the earliest of an outage transition, a shock edge,
// an arrival and a completion, with ties in that order; the clock only
// advances, so the event log is in time order. RunLoop returns the
// result and the number of events processed. Do not "simplify" the
// float expressions here: their shape is the byte contract the queue
// and DES goldens pin.
func (s *Scheduler) RunLoop(jobs []TimedJob, l Loop) (FaultyQueueResult, int, error) {
	res := FaultyQueueResult{QueueResult: QueueResult{Stats: map[string]JobStat{}}}
	for _, j := range jobs {
		if j.Units <= 0 {
			return res, 0, fmt.Errorf("cluster: job %q has non-positive work", j.ID)
		}
	}
	observe := l.Observe
	if observe == nil {
		observe = func(Transition) {}
	}
	log := l.Log

	// Fault schedules are drawn lazily up to a horizon scaled from the
	// total work; outages and shocks past the finish are never drawn.
	var totalUnits float64
	for _, j := range jobs {
		totalUnits += j.Units
	}
	for _, a := range l.Arrivals {
		totalUnits += a.Job.Units
	}
	horizon := FaultHorizon(totalUnits)
	// Outage ties break by node ID: the stream orders by position in
	// the sorted IDs.
	byID := append([]Node(nil), s.Nodes...)
	sort.Slice(byID, func(i, j int) bool { return byID[i].ID < byID[j].ID })
	nodeIDs := make([]string, len(byID))
	for i, n := range byID {
		nodeIDs[i] = n.ID
	}
	outages := l.Injector.Outages(nodeIDs, horizon)
	shocks := l.Injector.ShockEdges(horizon)

	pool := s.Budget
	freeNodes := append([]Node(nil), s.Nodes...)
	waiting := append([]TimedJob(nil), jobs...)
	var active []*RunningJob
	down := map[string]bool{}
	now := 0.0

	// shockHeld is the power currently withheld from the pool by active
	// budget shocks. At every event boundary the engine audits the
	// conservation identity pool + Σ(committed grants) + shockHeld ==
	// Budget; eviction/re-admission bugs that leak or mint power show up
	// as a growing deviation.
	shockHeld := units.Power(0)
	conserve := func() {
		var committed units.Power
		for _, r := range active {
			committed += r.Budget
		}
		dev := pool + committed + shockHeld - s.Budget
		if dev < 0 {
			dev = -dev
		}
		if dev > res.Faults.MaxConservationError {
			res.Faults.MaxConservationError = dev
		}
	}

	// admit runs the admission pass, gives re-admitted jobs back their
	// first admission time, and reports the new starts.
	admit := func() error {
		before, running := len(res.Events), len(active)
		var err error
		active, waiting, freeNodes, pool, err = s.AdmitWaiting(
			&res.QueueResult, active, waiting, freeNodes, pool, now, l.Policy, l.Discipline)
		if err != nil {
			return err
		}
		for _, r := range active[running:] {
			if r.Job.requeued {
				r.FirstStart = r.Job.firstStart
			}
		}
		for _, ev := range res.Events[before:] {
			observe(Transition{Event: ev})
		}
		return nil
	}

	// evict kills a running job, reclaims its grant, and re-queues it at
	// the head with its remaining work. keepNode returns the node to the
	// free pool (budget-shock evictions: the node is healthy, only the
	// power is gone); node-failure evictions lose the node until its
	// recovery event.
	evict := func(idx int, kind string, keepNode bool) {
		r := active[idx]
		active = append(active[:idx], active[idx+1:]...)
		runtime := now - r.Started
		res.Energy += units.Energy(r.Power.Watts() * runtime)
		pool += r.Budget
		if keepNode {
			freeNodes = append(freeNodes, r.Node)
		}
		res.Faults.BudgetReclaimed += r.Budget
		res.Faults.Readmissions++
		if keepNode {
			mEvictShock.Inc()
		} else {
			mEvictNodeFail.Inc()
		}
		mReadmissions.Inc()
		mReclaimedWatts.Add(r.Budget.Watts())
		j := r.Job
		j.Units = r.Remaining
		j.requeued, j.firstStart = true, r.FirstStart
		waiting = append([]TimedJob{j}, waiting...)
		ev := Event{Time: now, Kind: "suspend", JobID: j.ID, NodeID: r.Node.ID}
		res.Events = append(res.Events, ev)
		observe(Transition{Event: ev})
		log.Recordf(now, "budget-reclaim", j.ID, "%s returned to pool (%s)", r.Budget, kind)
		log.Recordf(now, "job-readmit", j.ID, "re-queued with %.3g work units left", j.Units)
	}

	// advance moves the clock to the next event. Remaining work clamps at
	// zero, so a job that finishes in the same instant as the event is
	// next, not overdue.
	advance := func(dt float64) {
		now += dt
		for _, r := range active {
			r.Remaining -= dt * r.Rate
			if r.Remaining < 0 {
				r.Remaining = 0
			}
		}
	}

	if err := admit(); err != nil {
		return res, 0, err
	}
	conserve()
	// At t=0 every node is up and the budget is unshocked, so a queue
	// that cannot start now can never start: faults only remove capacity.
	if len(active) == 0 && len(waiting) > 0 {
		return res, 0, fmt.Errorf("cluster: no job can start (budget %v too small for every job): %w",
			s.Budget, ErrStarved)
	}

	steps, ai := 0, 0 // ai indexes the next arrival
	for ; len(active) > 0 || len(waiting) > 0 || ai < len(l.Arrivals); steps++ {
		conserve()
		if steps >= maxEngineEvents {
			return res, steps, fmt.Errorf("cluster: fault engine exceeded %d events (spec too hostile?)", maxEngineEvents)
		}
		// Next event: completion, outage transition, shock edge, or
		// arrival.
		nextDone, di := math.Inf(1), -1
		for i, r := range active {
			t := r.Remaining / r.Rate
			if t < nextDone {
				nextDone, di = t, i
			}
		}
		nextOutage := outages.At() - now
		nextShock := shocks.At() - now
		nextArr := math.Inf(1)
		if ai < len(l.Arrivals) {
			nextArr = l.Arrivals[ai].At - now
			if nextArr < 0 {
				nextArr = 0
			}
		}

		if math.IsInf(nextDone, 1) && math.IsInf(nextOutage, 1) && math.IsInf(nextShock, 1) && math.IsInf(nextArr, 1) {
			return res, steps, fmt.Errorf("cluster: %d job(s) can never start (%d node(s) down, pool %v): %w",
				len(waiting), len(down), pool, ErrStarved)
		}
		// Nothing running and no recovery, shock edge or arrival can
		// change that: starved even though events remain.
		if di == -1 && len(waiting) > 0 &&
			math.IsInf(nextOutage, 1) && math.IsInf(nextShock, 1) && math.IsInf(nextArr, 1) {
			return res, steps, fmt.Errorf("cluster: %d job(s) can never start under budget %v: %w",
				len(waiting), s.Budget, ErrStarved)
		}

		switch {
		case nextOutage <= nextDone && nextOutage <= nextShock && nextOutage <= nextArr:
			ev, _ := outages.Next()
			nodeID := nodeIDs[ev.Node]
			advance(nextOutage)
			if ev.Up {
				if !down[nodeID] {
					continue // node was never taken down (e.g. duplicate)
				}
				delete(down, nodeID)
				freeNodes = append(freeNodes, byID[ev.Node])
				res.Faults.NodeRecoveries++
				mNodeRecoveries.Inc()
				ev := Event{Time: now, Kind: "recover", NodeID: nodeID}
				res.Events = append(res.Events, ev)
				observe(Transition{Event: ev})
				log.Record(now, "node-recover", nodeID, "node back in service")
				if err := admit(); err != nil {
					return res, steps, err
				}
				continue
			}
			if down[nodeID] {
				continue
			}
			down[nodeID] = true
			res.Faults.NodeFailures++
			mNodeFailures.Inc()
			fail := Event{Time: now, Kind: "fail", NodeID: nodeID}
			res.Events = append(res.Events, fail)
			observe(Transition{Event: fail})
			log.Record(now, "node-fail", nodeID, "node lost")
			// Remove from the free pool if idle, or evict its job.
			removed := false
			for i, n := range freeNodes {
				if n.ID == nodeID {
					freeNodes = append(freeNodes[:i], freeNodes[i+1:]...)
					removed = true
					break
				}
			}
			if !removed {
				for i, r := range active {
					if r.Node.ID == nodeID {
						evict(i, "node failure", false)
						break
					}
				}
			}
			// Re-admission + surplus redistribution happen here: the
			// evicted job is reconsidered immediately on surviving nodes.
			if err := admit(); err != nil {
				return res, steps, err
			}

		case nextShock <= nextDone && nextShock <= nextArr:
			ev, _ := shocks.Next()
			advance(nextShock)
			delta := ShockDelta(s.Budget, ev)
			pool += delta
			shockHeld -= delta
			if delta < 0 {
				res.Faults.Shocks++
				mShocks.Inc()
				observe(Transition{Event: Event{Time: now, Kind: "shock"}})
				log.Recordf(now, "budget-shock", "facility", "pool reduced by %v", -delta)
				// Evict most recently started jobs until the committed
				// grants fit the shrunken budget again.
				for pool < 0 && len(active) > 0 {
					latest := 0
					for i, r := range active {
						if r.Started > active[latest].Started {
							latest = i
						}
					}
					evict(latest, "budget shock", true)
				}
			} else {
				observe(Transition{Event: Event{Time: now, Kind: "restore"}})
				log.Recordf(now, "budget-restore", "facility", "pool restored by %v", delta)
			}
			if err := admit(); err != nil {
				return res, steps, err
			}

		case nextArr <= nextDone:
			advance(nextArr)
			at := l.Arrivals[ai].At
			for ; ai < len(l.Arrivals) && l.Arrivals[ai].At == at; ai++ {
				j := l.Arrivals[ai].Job
				waiting = append(waiting, j)
				observe(Transition{Event: Event{Time: now, Kind: "arrive", JobID: j.ID}})
			}
			if err := admit(); err != nil {
				return res, steps, err
			}

		default:
			advance(nextDone)
			done := active[di]
			active = append(active[:di], active[di+1:]...)
			runtime := now - done.Started
			res.Energy += units.Energy(done.Power.Watts() * runtime)
			res.Stats[done.Job.ID] = JobStat{
				Start: done.FirstStart, End: now,
				Budget: done.Budget, Power: done.Power, Rate: done.Rate,
			}
			ev := Event{Time: now, Kind: "finish", JobID: done.Job.ID, NodeID: done.Node.ID}
			res.Events = append(res.Events, ev)
			observe(Transition{Event: ev, FirstStart: done.FirstStart})
			pool += done.Budget
			freeNodes = append(freeNodes, done.Node)
			if err := admit(); err != nil {
				return res, steps, err
			}
		}
	}
	conserve()
	res.Faults.PoolLeft = pool + shockHeld
	res.Makespan = now
	return res, steps, nil
}

// FaultHorizon bounds the fault schedules of a run with totalUnits of
// work: the work at the slowest plausible rate, padded 4x, with a floor
// of one hour. A conservative rate guess is 1e9 units/s; catalog
// workloads run at 1e10-1e11 units/s even under tight grants. Schedules
// are drawn lazily, so the horizon costs nothing by itself: it only ends
// the fault streams, so that a queue no event can unblock is reported
// starved instead of waiting on faults forever. Callers sum totalUnits
// in job order, t=0 jobs before any arrival trace, so every engine
// draws the same schedules for the same jobs.
func FaultHorizon(totalUnits float64) float64 {
	h := 4 * totalUnits / 1e9
	if h < 3600 {
		h = 3600
	}
	return h
}

// ShockDelta is the pool change at a shock edge: the shock's fraction of
// the cluster budget, negative at its start and positive at its end.
func ShockDelta(budget units.Power, e faults.ShockEdge) units.Power {
	delta := units.Power(budget.Watts() * e.Frac)
	if !e.End {
		delta = -delta
	}
	return delta
}
