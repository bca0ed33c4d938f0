package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/faults"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenFaultSpec drives the faulty queue-golden cases: node outages,
// recoveries and budget shocks, the pbc faults cluster-demo scenario.
const goldenFaultSpec = "node.mtbf=45,node.mttr=30,shock.mtbs=60,shock.frac=0.25,shock.len=10"

// goldenQueueJobs is a mixed CPU queue: under a 640 W budget on three
// nodes jobs wait for power, and FIFO and backfill order differ.
func goldenQueueJobs(t *testing.T) []TimedJob {
	t.Helper()
	return []TimedJob{
		timedJob(t, "j1", "stream", 2e12),
		timedJob(t, "j2", "dgemm", 5e13),
		timedJob(t, "j3", "mg", 3e12),
		timedJob(t, "j4", "cg", 2e12),
		timedJob(t, "j5", "ep", 1e13),
		timedJob(t, "j6", "stream", 4e12),
		timedJob(t, "j7", "dgemm", 2e13),
	}
}

type queueCase struct {
	name string
	run  func(t *testing.T) (QueueResult, *FaultSummary)
}

// fmtBits renders a float64 exactly (shortest round-trip form), so the
// golden pins every bit.
func fmtBits(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// queueCases are the runs testdata/queue.golden pins. The RunQueueOpts
// cases are inputs on which the fault-free loop and the nil-injector
// fault-aware loop agreed before the two were merged; each case checks
// that agreement as it runs. The completion-tie case pins the merged
// loop's output where they disagreed (see TestRunQueueCompletionTie).
func queueCases() []queueCase {
	var cases []queueCase
	for _, c := range []struct {
		name   string
		policy SplitPolicy
		disc   Discipline
	}{
		{"opts coord-backfill", PolicyCoord, DisciplineBackfill},
		{"opts coord-fifo", PolicyCoord, DisciplineFIFO},
		{"opts evensplit-backfill", PolicyEvenSplit, DisciplineBackfill},
	} {
		c := c
		cases = append(cases, queueCase{c.name, func(t *testing.T) (QueueResult, *FaultSummary) {
			s := goldenSched(t)
			res, err := s.RunQueueOpts(goldenQueueJobs(t), c.policy, c.disc)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			ref, err := goldenSched(t).RunQueueFaulty(goldenQueueJobs(t), c.policy, c.disc, nil, nil)
			if err != nil {
				t.Fatalf("%s nil injector: %v", c.name, err)
			}
			if !reflect.DeepEqual(res, ref.QueueResult) {
				t.Errorf("%s: RunQueueOpts diverges from nil-injector RunQueueFaulty", c.name)
			}
			return res, nil
		}})
	}
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		cases = append(cases, queueCase{fmt.Sprintf("faulty seed=%d", seed), func(t *testing.T) (QueueResult, *FaultSummary) {
			sp, err := faults.ParseSpec(goldenFaultSpec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := goldenSched(t).RunQueueFaulty(goldenQueueJobs(t), PolicyCoord, DisciplineBackfill,
				faults.NewInjector(sp, seed), nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res.QueueResult, &res.Faults
		}})
	}
	cases = append(cases, queueCase{"faulty nil-injector", func(t *testing.T) (QueueResult, *FaultSummary) {
		res, err := goldenSched(t).RunQueueFaulty(goldenQueueJobs(t), PolicyCoord, DisciplineBackfill, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.QueueResult, &res.Faults
	}})
	cases = append(cases, queueCase{"runqueue completion-tie", func(t *testing.T) (QueueResult, *FaultSummary) {
		s, err := NewScheduler(1000, nodes(t, 5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunQueue(tieJobs(t), PolicyCoord)
		if err != nil {
			t.Fatal(err)
		}
		return res, nil
	}})
	return cases
}

func goldenSched(t *testing.T) *Scheduler {
	t.Helper()
	s, err := NewScheduler(640, nodes(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func renderQueue(b *bytes.Buffer, name string, res QueueResult, f *FaultSummary) {
	fmt.Fprintf(b, "case %s\n", name)
	for _, e := range res.Events {
		fmt.Fprintf(b, "  event t=%s %s job=%s node=%s\n", fmtBits(e.Time), e.Kind, e.JobID, e.NodeID)
	}
	for _, id := range res.sortedJobIDs() {
		st := res.Stats[id]
		fmt.Fprintf(b, "  stat %s start=%s end=%s budget=%s power=%s rate=%s\n", id,
			fmtBits(st.Start), fmtBits(st.End), fmtBits(st.Budget.Watts()),
			fmtBits(st.Power.Watts()), fmtBits(st.Rate))
	}
	fmt.Fprintf(b, "  makespan=%s energy=%s\n", fmtBits(res.Makespan), fmtBits(res.Energy.Joules()))
	if f != nil {
		fmt.Fprintf(b, "  faults fail=%d recover=%d readmit=%d shocks=%d reclaimed=%s poolleft=%s maxconserr=%s\n",
			f.NodeFailures, f.NodeRecoveries, f.Readmissions, f.Shocks,
			fmtBits(f.BudgetReclaimed.Watts()), fmtBits(f.PoolLeft.Watts()),
			fmtBits(f.MaxConservationError.Watts()))
	}
}

// TestQueueGolden pins the queue loop's full output — every event, every
// job's stats, makespan and energy bits, and the fault accounting — for
// fault-free and fault-injected runs to testdata/queue.golden, and checks
// that every run's event log is in non-decreasing time order.
func TestQueueGolden(t *testing.T) {
	var b bytes.Buffer
	for _, c := range queueCases() {
		res, f := c.run(t)
		if !sort.SliceIsSorted(res.Events, func(i, j int) bool { return res.Events[i].Time < res.Events[j].Time }) {
			t.Errorf("%s: event log not in time order", c.name)
		}
		renderQueue(&b, c.name, res, f)
	}
	got := b.Bytes()
	path := filepath.Join("testdata", "queue.golden")
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
		t.Errorf("queue output diverges from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
