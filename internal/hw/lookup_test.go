package hw

import (
	"reflect"
	"testing"
)

// TestPlatformByNameMatchesCatalog: the constructor table covers every
// catalog platform in catalog order, each lookup equals its catalog
// entry, and two lookups never share a spec.
func TestPlatformByNameMatchesCatalog(t *testing.T) {
	all := AllPlatforms()
	if len(platformTable) != len(all) {
		t.Fatalf("lookup table has %d platforms, catalog %d", len(platformTable), len(all))
	}
	for i, want := range all {
		if platformTable[i].name != want.Name {
			t.Errorf("lookup table entry %d is %q, catalog has %q", i, platformTable[i].name, want.Name)
		}
		a, err := PlatformByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, want) {
			t.Errorf("%s: lookup differs from the catalog entry", want.Name)
		}
		b, _ := PlatformByName(want.Name)
		if (a.CPU != nil && a.CPU == b.CPU) || (a.DRAM != nil && a.DRAM == b.DRAM) ||
			(a.GPU != nil && a.GPU == b.GPU) {
			t.Errorf("%s: two lookups share a spec pointer", want.Name)
		}
	}
	_, err := PlatformByName("epyc")
	const msg = `unknown platform "epyc" (valid: [h100 h200 haswell ivybridge titanv titanxp])`
	if err == nil || err.Error() != msg {
		t.Errorf("unknown platform error = %v, want %s", err, msg)
	}
}
