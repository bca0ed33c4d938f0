package faults

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// scheduleCases are the (spec, seed, horizon) triples whose full shock
// and outage schedules testdata/schedules.golden pins. They cover
// repaired and never-repaired outages (node.mttr=0), shocks skipped for
// lack of length (shock.len=0), repairs and shocks too short to move the
// clock (1e-300 s), a horizon cutting mid-outage, and degenerate
// horizons.
var scheduleCases = []struct {
	spec    string
	seed    uint64
	horizon float64
}{
	{"node.mtbf=45,node.mttr=30,shock.mtbs=60,shock.frac=0.25,shock.len=10", 1, 600},
	{"node.mtbf=45,node.mttr=30,shock.mtbs=60,shock.frac=0.25,shock.len=10", 7, 600},
	{"node.mtbf=45,node.mttr=30,shock.mtbs=60,shock.frac=0.25,shock.len=10", 42, 1e-3},
	{"node.mtbf=300,node.mttr=60,shock.mtbs=500,shock.frac=0.2,shock.len=30", 42, 1e4},
	{"node.mtbf=100,shock.mtbs=50,shock.frac=0.5", 3, 5000},
	{"node.mtbf=20,node.mttr=0.001,shock.mtbs=5,shock.frac=0.1,shock.len=0.5", 11, 200},
	{"shock.mtbs=3600,shock.frac=0.15,shock.len=120", 1, 1e5},
	{"node.mtbf=30,node.mttr=1e-300,shock.mtbs=40,shock.frac=1,shock.len=1e-300", 9, 300},
	{"node.mtbf=45,node.mttr=30,shock.mtbs=60,shock.frac=0.25,shock.len=10", 5, 0},
}

// scheduleNodes are the node IDs each case draws outages for.
var scheduleNodes = []string{"node00", "node01", "node02", "n3"}

// fmtFloat renders a float64 in its shortest exact form, so the golden
// pins every bit.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func renderSchedules(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, c := range scheduleCases {
		sp, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatalf("spec %q: %v", c.spec, err)
		}
		in := NewInjector(sp, c.seed)
		fmt.Fprintf(&b, "case spec=%s seed=%d horizon=%s\n", sp, c.seed, fmtFloat(c.horizon))
		for _, sh := range in.BudgetShocks(c.horizon) {
			fmt.Fprintf(&b, "  shock at=%s dur=%s frac=%s\n", fmtFloat(sh.At), fmtFloat(sh.Duration), fmtFloat(sh.Frac))
		}
		for _, id := range scheduleNodes {
			for _, o := range in.NodeOutages(id, c.horizon) {
				fmt.Fprintf(&b, "  outage node=%s at=%s dur=%s\n", id, fmtFloat(o.At), fmtFloat(o.Duration))
			}
		}
	}
	return b.Bytes()
}

// checkGolden compares got with testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("%s diverges from the golden: a schedule generator change moved fault times\n got:\n%s", path, got)
	}
}

// TestScheduleGolden pins the injector's shock and outage schedules bit
// for bit: every trace hash downstream depends on them.
func TestScheduleGolden(t *testing.T) {
	checkGolden(t, "schedules.golden", renderSchedules(t))
}
