package evalpool

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestFingerprintEqualForSeparateLookups: two lookups of one catalog
// pair build distinct spec pointers with equal content, so they must
// share one key space.
func TestFingerprintEqualForSeparateLookups(t *testing.T) {
	for _, pair := range [][2]string{{"ivybridge", "stream"}, {"titanxp", "gpustream"}} {
		a, b := cpuProblem(t, pair[0], pair[1]), cpuProblem(t, pair[0], pair[1])
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s/%s: separate lookups have different fingerprints", pair[0], pair[1])
		}
	}
}

// TestFingerprintTracksInPlaceMutation: a spec changed through its
// pointer is a different problem, even at the same address.
func TestFingerprintTracksInPlaceMutation(t *testing.T) {
	cpu := cpuProblem(t, "ivybridge", "stream")
	before := cpu.fingerprint()
	cpu.Platform.CPU.FNom += 100 * units.Megahertz
	if cpu.fingerprint() == before {
		t.Error("mutating *Platform.CPU in place kept the fingerprint")
	}

	gpu := cpuProblem(t, "titanxp", "gpustream")
	before = gpu.fingerprint()
	gpu.Platform.GPU.Mem.PowerMax++
	if gpu.fingerprint() == before {
		t.Error("mutating *Platform.GPU in place kept the fingerprint")
	}
}

// TestFingerprintNoAliasAfterGC: once a spec is garbage collected its
// address may be reused by a different spec; the fingerprints must
// still differ. A batch of GPU specs (one spec pointer per platform) is
// fingerprinted and dropped, then a batch with different content is
// built into the freed memory, so a fingerprint derived from addresses
// collides wherever the allocator recycles one. Rounds repeat until
// some address has been reused.
func TestFingerprintNoAliasAfterGC(t *testing.T) {
	const n, maxRounds = 2000, 20
	w, err := workload.ByName("gpustream")
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for round := 0; round < maxRounds && reused == 0; round++ {
		old := make(map[uintptr]uint64, n)
		func() {
			for i := 0; i < n; i++ {
				pr := Problem{Platform: hw.TitanXP(), Workload: w}
				old[reflect.ValueOf(pr.Platform.GPU).Pointer()] = pr.fingerprint()
			}
		}()
		runtime.GC()
		runtime.GC()

		for i := 0; i < n; i++ {
			pr := Problem{Platform: hw.TitanXP(), Workload: w}
			pr.Platform.GPU.SMMaxDynPower += units.Power(round + 1)
			fp1, ok := old[reflect.ValueOf(pr.Platform.GPU).Pointer()]
			if !ok {
				continue
			}
			reused++
			if pr.fingerprint() == fp1 {
				t.Fatalf("round %d: spec %d reuses a collected spec's address and its fingerprint", round, i)
			}
		}
	}
	if reused == 0 {
		t.Logf("no address was reused in %d rounds; the aliasing case was not exercised", maxRounds)
	}
}

// leaves calls visit on every settable numeric, string, and bool leaf
// reachable from v, following non-nil pointers and slice elements, with
// the leaf's field path for diagnostics.
func leaves(v reflect.Value, path string, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leaves(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			leaves(v.Elem(), path, visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	default:
		visit(path, v)
	}
}

// perturb changes one leaf to a different value of its kind.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		t.Fatalf("leaf of kind %v has no perturbation", v.Kind())
	}
}

// TestFingerprintCoversEveryLeaf perturbs each leaf of every catalog
// platform and workload, one at a time, and requires a new fingerprint
// each time — so a field added to a spec or a phase later cannot be
// left out of the key.
func TestFingerprintCoversEveryLeaf(t *testing.T) {
	build := func(platform, wl string) *Problem {
		pr := cpuProblem(t, platform, wl)
		return &pr
	}
	var problems [][2]string
	for _, p := range hw.AllPlatforms() {
		problems = append(problems, [2]string{p.Name, "stream"})
	}
	for _, w := range workload.AllWorkloads() {
		problems = append(problems, [2]string{"ivybridge", w.Name})
	}
	for _, names := range problems {
		count := 0
		leaves(reflect.ValueOf(build(names[0], names[1])).Elem(), "", func(string, reflect.Value) { count++ })
		for k := 0; k < count; k++ {
			pr := build(names[0], names[1])
			base := pr.fingerprint()
			i := 0
			var path string
			leaves(reflect.ValueOf(pr).Elem(), "Problem", func(p string, leaf reflect.Value) {
				if i == k {
					perturb(t, leaf)
					path = p
				}
				i++
			})
			if pr.fingerprint() == base {
				t.Errorf("%s/%s: perturbing %s kept the fingerprint", names[0], names[1], path)
			}
		}
	}
}

// TestFingerprintAllocationFree: keying a request costs no allocation.
func TestFingerprintAllocationFree(t *testing.T) {
	for _, pr := range []Problem{cpuProblem(t, "ivybridge", "bt"), cpuProblem(t, "h100", "llmchat")} {
		if allocs := testing.AllocsPerRun(100, func() { _ = pr.fingerprint() }); allocs != 0 {
			t.Errorf("%s/%s: fingerprint allocates %v times per call",
				pr.Platform.Name, pr.Workload.Name, allocs)
		}
	}
}
