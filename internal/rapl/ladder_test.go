package rapl

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/units"
)

// TestControllerLaddersMatchSpec: the ladders a controller builds once
// are bit-identical to the spec's own P-state and T-state enumerations
// on every catalog CPU platform.
func TestControllerLaddersMatchSpec(t *testing.T) {
	for _, p := range hw.AllPlatforms() {
		if p.Kind != hw.KindCPU {
			continue
		}
		c := NewController(p.CPU, p.DRAM)
		want := p.CPU.PStates()
		if len(c.pstates) != len(want) {
			t.Fatalf("%s: %d cached P-states, want %d", p.Name, len(c.pstates), len(want))
		}
		for i := range want {
			if math.Float64bits(c.pstates[i].Hz()) != math.Float64bits(want[i].Hz()) {
				t.Errorf("%s: P-state %d = %v, want %v", p.Name, i, c.pstates[i], want[i])
			}
		}
		duties := p.CPU.Duties()
		if len(c.duties) != len(duties) {
			t.Fatalf("%s: %d cached duties, want %d", p.Name, len(c.duties), len(duties))
		}
		for i := range duties {
			if math.Float64bits(c.duties[i]) != math.Float64bits(duties[i]) {
				t.Errorf("%s: duty %d = %v, want %v", p.Name, i, c.duties[i], duties[i])
			}
		}
	}
}

// TestActuatePackageAllocationFree: actuation runs inside the
// simulator's fixed-point loop and must not allocate, whether it lands
// on a P-state, a T-state, or the floor.
func TestActuatePackageAllocationFree(t *testing.T) {
	p := hw.IvyBridge()
	for _, tc := range []struct {
		name string
		cap  units.Power
		want func(PackageState) bool
	}{
		{"uncapped", 0, func(s PackageState) bool { return !s.Throttled }},
		{"p-state", 150, func(s PackageState) bool { return !s.Throttled }},
		{"t-state", 70, func(s PackageState) bool { return s.Throttled && !s.AtFloor }},
		{"floor", 40, func(s PackageState) bool { return s.AtFloor }},
	} {
		c := NewController(p.CPU, p.DRAM)
		if err := c.SetLimit(DomainPackage, tc.cap); err != nil {
			t.Fatal(err)
		}
		if s := c.ActuatePackage(0.7); !tc.want(s) {
			t.Fatalf("%s: cap %v landed in state %+v", tc.name, tc.cap, s)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = c.ActuatePackage(0.7) }); allocs != 0 {
			t.Errorf("%s: ActuatePackage allocates %v times per call", tc.name, allocs)
		}
	}
}
