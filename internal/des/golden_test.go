package des

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
)

var update = flag.Bool("update", false, "rewrite golden files")

// renderTraceGoldens runs both engines on small fleets with node outages
// and budget shocks both on and renders each run's fingerprint: trace
// hash, event and job counts, and the makespan and energy bits.
func renderTraceGoldens(t *testing.T) []byte {
	t.Helper()
	sp, err := faults.ParseSpec(goldenFaultSpec)
	if err != nil {
		t.Fatalf("fault spec: %v", err)
	}
	arr, err := ParseArrivalSpec("rate=0.2,burst=2,units=1e12,spread=0.5")
	if err != nil {
		t.Fatalf("arrival spec: %v", err)
	}
	var b bytes.Buffer
	for _, mode := range []Mode{ModeExact, ModeFast} {
		for _, nodes := range []int{4, 12} {
			for _, seed := range []uint64{1, 7, 42} {
				sched, w := testSched(t, nodes)
				res, err := Run(Config{
					Sched: sched, Workload: w,
					Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
					Jobs: testJobs(w, 3, 2e12), Arrivals: arr, Seed: seed, Horizon: 900,
					Injector: faults.NewInjector(sp, seed), Mode: mode,
				})
				if err != nil {
					t.Fatalf("%v nodes=%d seed=%d: %v", mode, nodes, seed, err)
				}
				f := res.Faults
				fmt.Fprintf(&b, "%s nodes=%d seed=%d hash=%016x events=%d arrived=%d completed=%d makespan=%016x energy=%016x fail=%d recover=%d shocks=%d readmit=%d\n",
					mode, nodes, seed, res.TraceHash, res.EngineEvents, res.Arrived, res.Completed,
					math.Float64bits(res.Makespan), math.Float64bits(res.Energy.Joules()),
					f.NodeFailures, f.NodeRecoveries, f.Shocks, f.Readmissions)
			}
		}
	}
	return b.Bytes()
}

// TestTraceHashGolden pins both engines' traces under outages and shocks
// to testdata/trace_hashes.golden. The exact-vs-round-loop equivalence
// tests cannot catch a fault-schedule change made to both sides at once;
// this golden can.
func TestTraceHashGolden(t *testing.T) {
	got := renderTraceGoldens(t)
	path := filepath.Join("testdata", "trace_hashes.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace fingerprints diverge from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
