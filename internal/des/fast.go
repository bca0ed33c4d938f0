package des

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cluster"
	"repro/internal/units"
)

// fastJob is the record of one job in flight: no strings, no per-job
// maps, so it stays cache-friendly. Records live in a free-listed slot
// pool: a slot is taken when a job is first admitted and released when
// it completes, so the pool is as large as the peak number of jobs in
// flight, not the trace. Queued jobs have no record.
type fastJob struct {
	units      float64 // remaining work as of the last (re)admission
	arrival    float64
	firstStart float64
	started    float64
	doneT      float64 // absolute completion time while active
	budget     units.Power
	power      units.Power
	rate       float64
	id         int32 // arrival-order index, as the trace hash names the job
	node       int32
	gen        uint32 // bumped on eviction and completion; stale heap/order entries miss
}

// heapItem is one pending completion, keyed by absolute virtual time
// with an insertion sequence as the deterministic tiebreak. The time is
// stored as its float64 bits: completion times are never negative, and
// the bits of non-negative floats order exactly as the floats do.
type heapItem struct {
	tbits uint64
	seq   uint64
	slot  int32
	gen   uint32
}

func (it *heapItem) t() float64 { return math.Float64frombits(it.tbits) }

// before is 1 if a pops before b and 0 otherwise: (t, seq) compared as
// one 128-bit integer by a subtract-with-borrow, with no branch to
// mispredict. (t, seq) is a total order, since seq is unique.
func (a *heapItem) before(b *heapItem) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.tbits, b.tbits, borrow)
	return borrow
}

type doneHeap []heapItem

func (h *doneHeap) push(it heapItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if it.before(&s[parent]) == 0 {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = it
}

// pop removes the minimum with Floyd's bottom-up method: the hole left
// at the root walks down to a leaf along the smaller children, one
// comparison per level, then the former last item sifts up from there.
// It usually settles near the bottom, so this makes about half the
// comparisons of the textbook sift-down.
func (h *doneHeap) pop() heapItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c+1 < n {
			c += int(s[c+1].before(&s[c]))
		} else if c >= n {
			break
		}
		s[i] = s[c]
		i = c
	}
	for i > 0 {
		parent := (i - 1) / 2
		if last.before(&s[parent]) == 0 {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = last
	return top
}

// probeVal is one cached admission decision: what a single job of the
// run's workload receives on a node of a given platform at a given pool.
type probeVal struct {
	ok     bool
	budget units.Power
	power  units.Power
	rate   float64
}

// maxProbeCache bounds each platform class's admission cache, keyed by
// the float64 bits of the pool at probe time; past it the class's cache
// resets (pathological pool-value churn) rather than growing without
// bound.
const maxProbeCache = 1 << 16

// admEntry is one admission, in order, for most-recently-started
// eviction scans. Entries whose job was since completed or evicted are
// stale: their gen no longer matches the slot's.
type admEntry struct {
	slot int32
	gen  uint32
}

// slotPool holds the records of the jobs in flight. Released slots go on
// a free list and are reused before the pool grows.
type slotPool struct {
	jobs []fastJob
	free []int32
}

// take returns a slot for a newly admitted job. A reused slot keeps its
// gen, so entries naming the slot's previous occupant stay stale.
func (p *slotPool) take() int32 {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	p.jobs = append(p.jobs, fastJob{})
	return int32(len(p.jobs) - 1)
}

func (p *slotPool) release(s int32) { p.free = append(p.free, s) }

// live reports whether a heap or order entry still names the slot's
// current admission.
func (p *slotPool) live(slot int32, gen uint32) bool { return p.jobs[slot].gen == gen }

// runFast executes the simulation with a completion heap and admission
// caching. It keeps the round loop's semantics — admission through the
// shared Scheduler.AdmitWaiting, grant-for-lifetime, evict-latest under
// shocks, re-queue at the head — but indexes state for scale instead of
// rescanning it, so its float operation order (and therefore its exact
// event times) can differ from the exact engine in the last ulps.
// Deterministic: one seed, one trace hash.
func runFast(cfg Config, arrs []jobArrival) (Result, error) {
	out := Result{Mode: ModeFast}
	s := cfg.Sched

	// Platform classes: nodes grouped by platform name, in first-seen
	// order. Admission probes once per (class, pool) and reuses the
	// decision for every node of the class.
	classOf := make([]int, len(s.Nodes))
	classIdx := map[string]int{}
	var protoNodes []cluster.Node
	for i, n := range s.Nodes {
		ci, ok := classIdx[n.Platform.Name]
		if !ok {
			ci = len(protoNodes)
			classIdx[n.Platform.Name] = ci
			protoNodes = append(protoNodes, n)
		}
		classOf[i] = ci
	}
	free := make([][]int32, len(protoNodes))
	for i := len(s.Nodes) - 1; i >= 0; i-- {
		// Reverse push so class stacks pop nodes in scheduler order.
		free[classOf[i]] = append(free[classOf[i]], int32(i))
	}
	down := make([]bool, len(s.Nodes))
	nodeJob := make([]int32, len(s.Nodes)) // slot running on the node, or -1
	for i := range nodeJob {
		nodeJob[i] = -1
	}

	// Jobs are named by arrival order: cfg.Jobs arrive at t=0 ahead of
	// the generated trace, so job id i < len(cfg.Jobs) is cfg.Jobs[i] and
	// the rest index arrs. The FIFO queue is an id cursor into that order
	// and needs no per-job state; a job gets a slot when first admitted.
	nPre := len(cfg.Jobs)
	var totalUnits float64
	for _, j := range cfg.Jobs {
		if j.Units <= 0 {
			return out, fmt.Errorf("cluster: job %q has non-positive work", j.ID)
		}
		totalUnits += j.Units
	}
	for _, a := range arrs {
		totalUnits += a.units
	}
	out.Arrived = nPre + len(arrs)
	qHead, qArrived := 0, nPre // FIFO window of ids [qHead, qArrived)
	var readmit []int32        // evicted slots re-enter here, LIFO like the round loop's head prepend
	var slots slotPool

	// Fault schedules over the same horizon as the round loop, drawn
	// lazily; outage ties break by node index.
	horizon := cluster.FaultHorizon(totalUnits)
	ids := make([]string, len(s.Nodes))
	for i, n := range s.Nodes {
		ids[i] = n.ID
	}
	outages := cfg.Injector.Outages(ids, horizon)
	shocks := cfg.Injector.ShockEdges(horizon)

	pool := s.Budget
	committed := units.Power(0)
	shockHeld := units.Power(0)
	var faultSum cluster.FaultSummary
	conserve := func() {
		dev := pool + committed + shockHeld - s.Budget
		if dev < 0 {
			dev = -dev
		}
		if dev > faultSum.MaxConservationError {
			faultSum.MaxConservationError = dev
		}
	}

	probeCache := make([]map[uint64]probeVal, len(protoNodes))
	for i := range probeCache {
		probeCache[i] = map[uint64]probeVal{}
	}
	probeJob := []cluster.TimedJob{{Job: cluster.Job{ID: "probe", Workload: cfg.Workload}, Units: 1}}
	probe := func(class int, pool units.Power) (probeVal, error) {
		cache := probeCache[class]
		key := math.Float64bits(pool.Watts())
		if v, ok := cache[key]; ok {
			return v, nil
		}
		var scratch cluster.QueueResult
		active, _, _, _, err := s.AdmitWaiting(&scratch, nil, probeJob,
			[]cluster.Node{protoNodes[class]}, pool, 0, cfg.Policy, cfg.Discipline)
		if err != nil {
			return probeVal{}, err
		}
		var v probeVal
		if len(active) == 1 {
			r := active[0]
			v = probeVal{ok: true, budget: r.Budget, power: r.Power, rate: r.Rate}
		}
		if len(cache) >= maxProbeCache {
			cache = map[uint64]probeVal{}
			probeCache[class] = cache
		}
		cache[key] = v
		return v, nil
	}

	var heap doneHeap
	var seq uint64
	var admOrder []admEntry
	activeCount := 0
	hash := newTraceHash()
	var stats agg
	var energy units.Energy
	now := 0.0

	// peekDone drops stale heap entries and returns the next real
	// completion time (Inf when none).
	peekDone := func() float64 {
		for len(heap) > 0 {
			if top := &heap[0]; slots.live(top.slot, top.gen) {
				return top.t()
			}
			heap.pop()
		}
		return math.Inf(1)
	}

	queued := func() int { return len(readmit) + (qArrived - qHead) }

	removeFree := func(node int32) {
		st := free[classOf[node]]
		for i, n := range st {
			if n == node {
				free[classOf[node]] = append(st[:i], st[i+1:]...)
				return
			}
		}
	}

	// admitOne seats the next queued job on some free node, probing each
	// platform class in order. Every queued job runs the same workload,
	// so if the head job cannot start now, none behind it can either —
	// the admission pass is O(classes), not O(queue).
	admitOne := func() (bool, error) {
		if len(readmit) == 0 && qHead == qArrived {
			return false, nil
		}
		for class := range free {
			st := free[class]
			// Drop downed nodes that failure handling missed.
			for len(st) > 0 && down[st[len(st)-1]] {
				st = st[:len(st)-1]
			}
			free[class] = st
			if len(st) == 0 {
				continue
			}
			v, err := probe(class, pool)
			if err != nil {
				return false, err
			}
			if !v.ok {
				continue
			}
			node := st[len(st)-1]
			free[class] = st[:len(st)-1]
			var slot int32
			if n := len(readmit); n > 0 {
				slot = readmit[n-1]
				readmit = readmit[:n-1]
			} else {
				slot = slots.take()
				id := qHead
				qHead++
				jb := &slots.jobs[slot]
				jb.id = int32(id)
				jb.firstStart = now
				if id < nPre {
					jb.units, jb.arrival = cfg.Jobs[id].Units, 0
				} else {
					a := &arrs[id-nPre]
					jb.units, jb.arrival = a.units, a.at
				}
			}
			jb := &slots.jobs[slot]
			jb.node = node
			jb.started = now
			jb.budget, jb.power, jb.rate = v.budget, v.power, v.rate
			jb.doneT = now + jb.units/v.rate
			pool -= v.budget
			committed += v.budget
			nodeJob[node] = slot
			seq++
			heap.push(heapItem{tbits: math.Float64bits(jb.doneT), seq: seq, slot: slot, gen: jb.gen})
			admOrder = append(admOrder, admEntry{slot: slot, gen: jb.gen})
			activeCount++
			if len(admOrder) > 2*activeCount+64 {
				// Drop stale entries, order kept, so the log stays
				// proportional to the jobs in flight.
				kept := admOrder[:0]
				for _, e := range admOrder {
					if slots.live(e.slot, e.gen) {
						kept = append(kept, e)
					}
				}
				admOrder = kept
			}
			hash.event(now, evStart, jb.id, node)
			return true, nil
		}
		return false, nil
	}
	admit := func() error {
		for {
			ok, err := admitOne()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
	}

	evictJob := func(slot int32, keepNode bool) {
		jb := &slots.jobs[slot]
		rem := (jb.doneT - now) * jb.rate
		if rem < 0 {
			rem = 0
		}
		jb.units = rem
		energy += units.Energy(jb.power.Watts() * (now - jb.started))
		pool += jb.budget
		committed -= jb.budget
		faultSum.BudgetReclaimed += jb.budget
		faultSum.Readmissions++
		node := jb.node
		nodeJob[node] = -1
		if keepNode {
			free[classOf[node]] = append(free[classOf[node]], node)
		}
		jb.gen++
		jb.node = -1
		activeCount--
		readmit = append(readmit, slot)
		hash.event(now, evSuspend, jb.id, node)
	}

	// t=0 admission, mirroring the round loop's pre-loop pass: a queue
	// that cannot start on a full budget and healthy nodes never will.
	if err := admit(); err != nil {
		return out, err
	}
	conserve()
	if activeCount == 0 && queued() > 0 {
		return out, fmt.Errorf("cluster: no job can start (budget %v too small for every job): %w",
			s.Budget, cluster.ErrStarved)
	}

	ai := 0
	steps := 0
	for ; activeCount > 0 || queued() > 0 || ai < len(arrs); steps++ {
		conserve()
		if steps >= cfg.MaxEvents {
			return out, fmt.Errorf("des: fast engine exceeded %d events (spec too hostile?)", cfg.MaxEvents)
		}
		nextDone := peekDone()
		nextOutage := outages.At()
		nextShock := shocks.At()
		nextArr := math.Inf(1)
		if ai < len(arrs) {
			nextArr = arrs[ai].at
		}

		if math.IsInf(nextDone, 1) && math.IsInf(nextOutage, 1) && math.IsInf(nextShock, 1) && math.IsInf(nextArr, 1) {
			return out, fmt.Errorf("cluster: %d job(s) can never start (pool %v): %w",
				queued(), pool, cluster.ErrStarved)
		}

		switch {
		case nextOutage <= nextDone && nextOutage <= nextShock && nextOutage <= nextArr:
			ev, _ := outages.Next()
			node := int32(ev.Node)
			if ev.At > now {
				now = ev.At
			}
			if ev.Up {
				if !down[node] {
					continue
				}
				down[node] = false
				free[classOf[node]] = append(free[classOf[node]], node)
				faultSum.NodeRecoveries++
				hash.event(now, evNodeUp, -1, node)
				if err := admit(); err != nil {
					return out, err
				}
				continue
			}
			if down[node] {
				continue
			}
			down[node] = true
			faultSum.NodeFailures++
			hash.event(now, evNodeFail, -1, node)
			if slot := nodeJob[node]; slot >= 0 {
				evictJob(slot, false)
			} else {
				removeFree(node)
			}
			if err := admit(); err != nil {
				return out, err
			}

		case nextShock <= nextDone && nextShock <= nextArr:
			ev, _ := shocks.Next()
			if ev.At > now {
				now = ev.At
			}
			delta := cluster.ShockDelta(s.Budget, ev)
			pool += delta
			shockHeld -= delta
			if delta < 0 {
				faultSum.Shocks++
				hash.event(now, evShock, -1, -1)
				// Evict most recently started jobs until committed grants
				// fit again. Admission order is started order, so scan the
				// order log from the tail, skipping stale entries.
				for pool < 0 && activeCount > 0 {
					for len(admOrder) > 0 {
						if e := admOrder[len(admOrder)-1]; slots.live(e.slot, e.gen) {
							break
						}
						admOrder = admOrder[:len(admOrder)-1]
					}
					if len(admOrder) == 0 {
						break
					}
					e := admOrder[len(admOrder)-1]
					admOrder = admOrder[:len(admOrder)-1]
					evictJob(e.slot, true)
				}
			} else {
				hash.event(now, evRestore, -1, -1)
			}
			if err := admit(); err != nil {
				return out, err
			}

		case nextArr <= nextDone:
			if nextArr > now {
				now = nextArr
			}
			at := arrs[ai].at
			for ai < len(arrs) && arrs[ai].at == at {
				hash.event(now, evArrive, int32(qArrived), -1)
				qArrived++
				ai++
			}
			if err := admit(); err != nil {
				return out, err
			}

		default:
			it := heap.pop()
			jb := &slots.jobs[it.slot]
			if t := it.t(); t > now {
				now = t
			}
			energy += units.Energy(jb.power.Watts() * (now - jb.started))
			stats.finish(jb.arrival, jb.firstStart, now)
			pool += jb.budget
			committed -= jb.budget
			node := jb.node
			nodeJob[node] = -1
			jb.gen++
			free[classOf[node]] = append(free[classOf[node]], node)
			activeCount--
			hash.event(now, evFinish, jb.id, node)
			slots.release(it.slot)
			if err := admit(); err != nil {
				return out, err
			}
		}
	}
	conserve()
	faultSum.PoolLeft = pool + shockHeld

	out.EngineEvents = steps
	out.Makespan = now
	out.Energy = energy
	out.Faults = faultSum
	out.TraceHash = hash.h
	stats.fill(&out)
	return out, nil
}
