package faults

import (
	"fmt"
	"math"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/rapl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// GuardTolerance is the documented guard band: the windowed-average node
// power may exceed the bound by at most this much while the resilient
// control path (retry, readback, watchdog) is converging. The faults
// tests assert the invariant against exactly this value.
const GuardTolerance units.Power = 5

// NodeRunResult is the outcome of a resilient node-level run.
type NodeRunResult struct {
	// Elapsed is the wall time the run took; WorkDone the units
	// completed; Rate the average work rate (units/s).
	Elapsed  time.Duration
	WorkDone float64
	Rate     float64
	// PeakWindowAvg is the highest running-average total power seen.
	PeakWindowAvg units.Power
	// WorstOvershoot is the largest excess of the window average over
	// the bound in force at the time (shocked bounds included).
	WorstOvershoot units.Power
	// OvershootTime is the total time the window average spent above
	// bound + GuardTolerance.
	OvershootTime time.Duration
	// SensorDrops counts dropped sensor samples; SensorReads the total
	// attempts.
	SensorReads, SensorDrops int
	// Retry is the resilient controller's counters.
	Retry rapl.RetryStats
	// CapWrites, CapFailed, CapStuck are the injector-side actuator
	// counters (the ground truth the retry layer fought against).
	CapWrites, CapFailed, CapStuck int
	// WatchdogEngagements counts failsafe activations.
	WatchdogEngagements int
	// Shocks counts budget shocks applied during the run.
	Shocks int
}

// nodeRunMaxSteps bounds the control loop against hostile specs.
const nodeRunMaxSteps = 2_000_000

// RunNode executes totalUnits of workload w on CPU platform p under node
// power bound, stepping a resilient RAPL control loop every dt while inj
// disturbs it: sensor readings are dropped or noised, cap writes fail or
// stick, and facility shocks lower the bound mid-run. The control path
// is the stacking the package documents:
//
//	coord split -> resilient controller (retry+readback) -> faulty actuator -> RAPL
//	sensor -> (dropout/noise) -> watchdog -> failsafe clamp
//
// Every step re-asserts the desired caps, so stuck or failed writes are
// re-driven until the actuator takes them; sustained overshoot trips the
// watchdog onto the precomputed failsafe split. Transitions are recorded
// into log (nil is fine). The run is a pure function of its arguments:
// identical inputs give identical results.
func RunNode(p hw.Platform, w workload.Workload, bound units.Power, totalUnits float64,
	dt time.Duration, inj *Injector, log *trace.EventLog) (NodeRunResult, error) {

	var res NodeRunResult
	if p.Kind != hw.KindCPU {
		return res, fmt.Errorf("faults: platform %q is not a CPU platform", p.Name)
	}
	if totalUnits <= 0 {
		return res, fmt.Errorf("faults: non-positive work amount %v", totalUnits)
	}
	if dt <= 0 {
		return res, fmt.Errorf("faults: non-positive time step %v", dt)
	}
	prof, err := profile.ProfileCPU(p, w)
	if err != nil {
		return res, err
	}

	// Control stack.
	ctrl := rapl.NewController(p.CPU, p.DRAM)
	faulty := NewFaultyController(ctrl, inj)
	seed := uint64(0)
	if inj != nil {
		seed = inj.Seed()
	}
	resilient := rapl.NewResilient(faulty, rapl.DefaultRetryPolicy(seed))
	failsafe := rapl.PrecomputeFailsafe(p.CPU, p.DRAM, bound)
	wd := rapl.NewWatchdog(resilient, bound, GuardTolerance, failsafe)
	window := rapl.NewWindow(time.Second)

	// split picks the desired allocation for a bound: COORD when the
	// budget is productive, memory-first when it is tight, failsafe when
	// even that rejects.
	split := func(b units.Power) core.Allocation {
		if d := coord.CPU(prof, b); d.Status != coord.StatusTooSmall {
			return d.Alloc
		}
		if d := coord.MemoryFirst(prof, b); d.Status != coord.StatusTooSmall {
			return d.Alloc
		}
		fs := rapl.PrecomputeFailsafe(p.CPU, p.DRAM, b)
		return core.Allocation{Proc: fs.Proc, Mem: fs.Mem}
	}

	// The shock stream has no horizon: shocks are drawn as the run
	// reaches them, however long it lasts.
	shocks := inj.Shocks(math.Inf(1))
	nextShock, shockPending := shocks.Next()

	boundNow := bound
	desired := split(bound)
	// program re-asserts desired caps on domains whose effective value
	// drifted; failures are tolerated (re-driven next step).
	program := func() {
		target := desired
		if wd.Engaged() {
			target = core.Allocation{Proc: wd.Failsafe.Proc, Mem: wd.Failsafe.Mem}
		}
		for _, dom := range []struct {
			d   rapl.Domain
			cap units.Power
		}{{rapl.DomainPackage, target.Proc}, {rapl.DomainDRAM, target.Mem}} {
			got, enabled := ctrl.Limit(dom.d)
			if enabled && (got-dom.cap).Watts() < rapl.PowerUnit && (dom.cap-got).Watts() < rapl.PowerUnit {
				continue
			}
			// Errors are absorbed: the next step retries, and the
			// watchdog covers the window in between.
			_ = resilient.SetLimit(dom.d, dom.cap)
		}
	}
	program()

	// Solved operating points per (phase, effective caps) pair.
	type opKey struct {
		phase     int
		proc, mem int64 // caps in PowerUnit quanta
	}
	type opVal struct {
		rate  float64
		power units.Power
	}
	cache := map[opKey]opVal{}
	solve := func(phaseIdx int) (opVal, error) {
		procEff, pOK := ctrl.Limit(rapl.DomainPackage)
		memEff, mOK := ctrl.Limit(rapl.DomainDRAM)
		if !pOK {
			procEff = 0
		}
		if !mOK {
			memEff = 0
		}
		key := opKey{
			phase: phaseIdx,
			proc:  int64(procEff.Watts() / rapl.PowerUnit),
			mem:   int64(memEff.Watts() / rapl.PowerUnit),
		}
		if v, ok := cache[key]; ok {
			return v, nil
		}
		pw := singlePhase(&w, phaseIdx)
		r, err := sim.RunCPU(p, &pw, procEff, memEff)
		if err != nil {
			return opVal{}, err
		}
		v := opVal{rate: r.UnitRate.OpsPerSecond(), power: r.ProcPower + r.MemPower}
		cache[key] = v
		return v, nil
	}

	shockUntil := -1.0
	elapsed := time.Duration(0)
	for phaseIdx := range w.Phases {
		unitsLeft := w.Phases[phaseIdx].Weight * totalUnits
		for steps := 0; unitsLeft > 1e-12; steps++ {
			if steps >= nodeRunMaxSteps {
				return res, fmt.Errorf("faults: node run exceeded %d steps in phase %q", nodeRunMaxSteps, w.Phases[phaseIdx].Name)
			}
			nowSec := elapsed.Seconds()

			// Budget shock edges.
			if shockUntil >= 0 && nowSec >= shockUntil {
				shockUntil = -1
				boundNow = bound
				desired = split(boundNow)
				wd.Bound = boundNow
				log.Recordf(nowSec, "budget-restore", "node", "bound back to %v", boundNow)
			}
			if shockPending && nowSec >= nextShock.At {
				sh := nextShock
				nextShock, shockPending = shocks.Next()
				shockUntil = sh.At + sh.Duration
				boundNow = units.Power(bound.Watts() * (1 - sh.Frac))
				desired = split(boundNow)
				wd.Bound = boundNow
				res.Shocks++
				mNodeShocks.Inc()
				log.Recordf(nowSec, "budget-shock", "node", "bound dropped to %v", boundNow)
			}

			program()
			op, err := solve(phaseIdx)
			if err != nil {
				return res, err
			}
			if op.rate <= 0 {
				return res, fmt.Errorf("faults: phase %q made no progress", w.Phases[phaseIdx].Name)
			}

			stepDt := dt
			stepUnits := op.rate * dt.Seconds()
			if stepUnits > unitsLeft {
				stepDt = time.Duration(float64(time.Second) * unitsLeft / op.rate)
				if stepDt <= 0 {
					stepDt = time.Nanosecond
				}
				stepUnits = unitsLeft
			}
			unitsLeft -= stepUnits
			res.WorkDone += stepUnits
			elapsed += stepDt
			window.Add(op.power, stepDt)

			avg := window.Average()
			if avg > res.PeakWindowAvg {
				res.PeakWindowAvg = avg
			}
			if over := avg - boundNow; over > res.WorstOvershoot {
				res.WorstOvershoot = over
			}
			if avg > boundNow+GuardTolerance {
				res.OvershootTime += stepDt
			}

			// Sensor -> watchdog.
			res.SensorReads++
			mSensorReads.Inc()
			engagedBefore := wd.Engaged()
			if reading, ok := inj.SensorRead(avg); ok {
				if _, err := wd.Observe(reading); err != nil {
					log.Recordf(elapsed.Seconds(), "watchdog-error", "node", "%v", err)
				}
			} else {
				res.SensorDrops++
				mSensorDrops.Inc()
			}
			if wd.Engaged() != engagedBefore {
				if wd.Engaged() {
					log.Recordf(elapsed.Seconds(), "watchdog-engage", "node",
						"clamped to failsafe %v", wd.Failsafe.Total())
				} else {
					log.Record(elapsed.Seconds(), "watchdog-release", "node", "bound respected again")
				}
				program()
			}
		}
	}

	res.Elapsed = elapsed
	if sec := elapsed.Seconds(); sec > 0 {
		res.Rate = res.WorkDone / sec
	}
	res.Retry = resilient.Stats()
	res.CapWrites, res.CapFailed, res.CapStuck = faulty.Writes, faulty.Failed, faulty.Stuck
	res.WatchdogEngagements = wd.Engagements
	return res, nil
}

// singlePhase wraps phase i of w as a standalone workload.
func singlePhase(w *workload.Workload, i int) workload.Workload {
	ph := w.Phases[i]
	ph.Weight = 1
	return workload.Workload{
		Name:            fmt.Sprintf("%s/%s", w.Name, ph.Name),
		Suite:           w.Suite,
		Desc:            w.Desc,
		Kind:            w.Kind,
		PerfUnit:        w.PerfUnit,
		PerfPerUnitRate: w.PerfPerUnitRate,
		Phases:          []workload.Phase{ph},
	}
}
