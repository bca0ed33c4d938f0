package rapl

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/units"
)

// Domain identifies a RAPL power domain on the emulated node.
type Domain int

// The two domains the paper caps: the processor package(s) and DRAM.
const (
	DomainPackage Domain = iota
	DomainDRAM
)

// String returns "package" or "dram".
func (d Domain) String() string {
	switch d {
	case DomainPackage:
		return "package"
	case DomainDRAM:
		return "dram"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// PackageState is the processor operating state the actuator selected to
// honor the package cap: a P-state frequency and a T-state duty cycle.
type PackageState struct {
	Freq units.Frequency
	Duty float64
	// Throttled reports whether T-states (clock throttling) are engaged —
	// the boundary between the paper's scenarios II and IV.
	Throttled bool
	// AtFloor reports whether even the deepest throttle state exceeds the
	// cap, so the package runs at its hardware floor and the cap is not
	// respected (the paper's scenario VI).
	AtFloor bool
}

// Controller emulates the RAPL control loop for one node: it owns the MSR
// register file, exposes cap programming in watts, and actuates processor
// and DRAM states to meet the programmed caps.
type Controller struct {
	cpu  *hw.CPUSpec
	dram *hw.DRAMSpec
	msrs *RegisterFile
	// pstates and duties are the CPU's P-state and T-state ladders,
	// built once so actuation allocates nothing. The specs must not be
	// mutated while the controller is in use.
	pstates []units.Frequency
	duties  []float64
}

// NewController returns a controller for the given CPU-node component
// specs.
func NewController(cpu *hw.CPUSpec, dram *hw.DRAMSpec) *Controller {
	return &Controller{
		cpu: cpu, dram: dram, msrs: NewRegisterFile(),
		pstates: cpu.PStates(), duties: cpu.Duties(),
	}
}

// MSRs exposes the emulated register file (for tools that want the
// raw-MSR view, mirroring how real power managers program RAPL).
func (c *Controller) MSRs() *RegisterFile { return c.msrs }

// SetLimit programs a power cap on a domain with the default 1 s
// averaging window. A zero or negative cap disables the limit.
func (c *Controller) SetLimit(d Domain, cap units.Power) error {
	return c.SetLimitWindow(d, cap, time.Second)
}

// SetLimitWindow programs a power cap with an explicit averaging window.
func (c *Controller) SetLimitWindow(d Domain, cap units.Power, window time.Duration) error {
	addr := MSRPkgPowerLimit
	if d == DomainDRAM {
		addr = MSRDramPowerLimit
	}
	if cap <= 0 {
		return c.msrs.Write(addr, 0) // disabled
	}
	return c.msrs.Write(addr, EncodeLimit(cap.Watts(), window.Seconds()))
}

// Limit returns the programmed cap for a domain and whether limiting is
// enabled.
func (c *Controller) Limit(d Domain) (units.Power, bool) {
	addr := MSRPkgPowerLimit
	if d == DomainDRAM {
		addr = MSRDramPowerLimit
	}
	reg, err := c.msrs.Read(addr)
	if err != nil {
		return 0, false
	}
	w, _, enabled := DecodeLimit(reg)
	return units.Power(w), enabled
}

// ActuatePackage selects the processor operating state for the programmed
// package cap, given the workload's current activity factor. It follows
// the mechanism ordering the paper describes in Section 3.3: run at the
// highest P-state that fits; if even the lowest P-state exceeds the cap,
// engage T-state clock throttling; if the deepest throttle still exceeds
// the cap, run at the floor regardless (the cap is not respected).
func (c *Controller) ActuatePackage(act float64) PackageState {
	cap, enabled := c.Limit(DomainPackage)
	if !enabled {
		return PackageState{Freq: c.cpu.FNom, Duty: 1}
	}
	// Highest P-state under the cap, no throttling.
	for i := len(c.pstates) - 1; i >= 0; i-- {
		if c.cpu.Power(c.pstates[i], 1, act) <= cap {
			return PackageState{Freq: c.pstates[i], Duty: 1}
		}
	}
	// Lowest P-state still over the cap: engage T-states at FMin.
	for _, duty := range c.duties[1:] {
		if c.cpu.Power(c.cpu.FMin, duty, act) <= cap {
			return PackageState{Freq: c.cpu.FMin, Duty: duty, Throttled: true}
		}
	}
	// Even the deepest throttle exceeds the cap: hardware floor.
	return PackageState{
		Freq: c.cpu.FMin, Duty: c.cpu.MinDuty,
		Throttled: true, AtFloor: true,
	}
}

// PackagePower returns the package power drawn in state s at activity
// act.
func (c *Controller) PackagePower(s PackageState, act float64) units.Power {
	return c.cpu.Power(s.Freq, s.Duty, act)
}

// DRAMBandwidthCeiling returns the bandwidth ceiling DRAM throttling
// imposes for the programmed DRAM cap and the workload's random-access
// fraction. With no cap programmed, the ceiling is the physical peak.
func (c *Controller) DRAMBandwidthCeiling(randomFrac float64) units.Bandwidth {
	cap, enabled := c.Limit(DomainDRAM)
	if !enabled {
		return c.dram.PeakBandwidth()
	}
	return c.dram.BandwidthForPower(cap, randomFrac)
}

// DRAMPower returns the DRAM power drawn when moving bw with the given
// random fraction; it never drops below the background floor, so low caps
// are not respected (the paper's footnote on scenario V).
func (c *Controller) DRAMPower(bw units.Bandwidth, randomFrac float64) units.Power {
	return c.dram.Power(bw, randomFrac)
}

// AccumulateEnergy advances the 32-bit wrapping energy counters by the
// given power over dt, for tools that read MSR_*_ENERGY_STATUS.
func (c *Controller) AccumulateEnergy(pkg, dram units.Power, dt time.Duration) {
	c.msrs.addEnergy(MSRPkgEnergyStatus, pkg.Watts()*dt.Seconds())
	c.msrs.addEnergy(MSRDramEnergyStatus, dram.Watts()*dt.Seconds())
}

// Energy returns the accumulated energy for a domain as counted by the
// wrapping MSR counter.
func (c *Controller) Energy(d Domain) units.Energy {
	addr := MSRPkgEnergyStatus
	if d == DomainDRAM {
		addr = MSRDramEnergyStatus
	}
	reg, err := c.msrs.Read(addr)
	if err != nil {
		return 0
	}
	return units.Energy(EnergyJoules(reg))
}
