package nvgov

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/units"
)

// TestGovernorLadderMatchesSpec: the SM clock ladder a governor builds
// once is bit-identical to the spec's own enumeration on every catalog
// GPU platform.
func TestGovernorLadderMatchesSpec(t *testing.T) {
	for _, p := range hw.AllPlatforms() {
		if p.Kind != hw.KindGPU {
			continue
		}
		g := New(p.GPU)
		want := p.GPU.SMClocks()
		if len(g.smClocks) != len(want) {
			t.Fatalf("%s: %d cached SM clocks, want %d", p.Name, len(g.smClocks), len(want))
		}
		for i := range want {
			if math.Float64bits(g.smClocks[i].Hz()) != math.Float64bits(want[i].Hz()) {
				t.Errorf("%s: SM clock %d = %v, want %v", p.Name, i, g.smClocks[i], want[i])
			}
		}
	}
}

// TestActuateAllocationFree: actuation runs inside the simulator's
// fixed-point loop and must not allocate, whether the cap binds or not.
func TestActuateAllocationFree(t *testing.T) {
	p := hw.TitanXP()
	for _, tc := range []struct {
		name    string
		cap     units.Power
		limited bool
	}{
		{"unlimited", 300, false},
		{"power-limited", 130, true},
	} {
		g := New(p.GPU)
		if err := g.SetPowerCap(tc.cap); err != nil {
			t.Fatal(err)
		}
		if s := g.Actuate(0.5); s.PowerLimited != tc.limited {
			t.Fatalf("%s: cap %v landed in state %+v", tc.name, tc.cap, s)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = g.Actuate(0.5) }); allocs != 0 {
			t.Errorf("%s: Actuate allocates %v times per call", tc.name, allocs)
		}
	}
}
