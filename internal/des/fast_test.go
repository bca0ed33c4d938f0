package des

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/workload"
)

// TestTraceHashFoldMatchesBytewise pins the trace-hash identity on its
// own: traceHash.event, which folds the zero high bytes of the job and
// node words into one multiply, must equal plain FNV-1a over the event's
// bytes (time bits, kind, uint64(uint32(job)), uint64(uint32(node)),
// little-endian), chained across events.
func TestTraceHashFoldMatchesBytewise(t *testing.T) {
	type ev struct {
		at        float64
		kind      byte
		job, node int32
	}
	edges := []int32{0, 0xFF, -1}
	times := []float64{0, 1, 0.5, 1e9, math.Inf(1)}
	var evs []ev
	for _, at := range times {
		for _, j := range edges {
			for _, n := range edges {
				evs = append(evs, ev{at, evStart, j, n})
			}
		}
	}
	rng := rand.New(rand.NewSource(14))
	kinds := []byte{evArrive, evStart, evFinish, evSuspend, evNodeFail, evNodeUp, evShock, evRestore}
	for i := 0; i < 1000; i++ {
		evs = append(evs, ev{
			at:   math.Float64frombits(rng.Uint64()),
			kind: kinds[rng.Intn(len(kinds))],
			job:  int32(rng.Uint32()),
			node: int32(rng.Uint32()),
		})
	}

	got := newTraceHash()
	want := fnv.New64a()
	var buf [25]byte
	for i, e := range evs {
		got.event(e.at, e.kind, e.job, e.node)
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(e.at))
		buf[8] = e.kind
		binary.LittleEndian.PutUint64(buf[9:], uint64(uint32(e.job)))
		binary.LittleEndian.PutUint64(buf[17:], uint64(uint32(e.node)))
		want.Write(buf[:])
		if got.h != want.Sum64() {
			t.Fatalf("event %d %+v: folded hash %016x, bytewise FNV-1a %016x", i, e, got.h, want.Sum64())
		}
	}
}

// TestDoneHeapPopOrder: under a seeded mix of pushes and pops with many
// equal times, doneHeap pops exactly what a stable sort by time of the
// pushed items (insertion order = seq order) puts first.
func TestDoneHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h doneHeap
	var ref []heapItem // pending items in push order
	var seq uint64
	popCheck := func() {
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].t() < ref[j].t() })
		got := h.pop()
		if got != ref[0] {
			t.Fatalf("pop %+v, stable sort puts %+v first", got, ref[0])
		}
		ref = ref[1:]
	}
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			seq++
			t := float64(rng.Intn(16)) / 4 // few distinct times: many ties
			it := heapItem{tbits: math.Float64bits(t), seq: seq, slot: int32(rng.Intn(64)), gen: uint32(step)}
			h.push(it)
			ref = append(ref, it)
		} else {
			popCheck()
		}
		if len(h) != len(ref) {
			t.Fatalf("step %d: heap holds %d items, want %d", step, len(h), len(ref))
		}
	}
	for len(ref) > 0 {
		popCheck()
	}
}

// TestFastStateBoundedByInFlight: the fast engine keeps per-job state
// only for jobs in flight, so lengthening the arrival horizon eightfold
// on the same fleet adds only the arrival records themselves (16 B a
// job, allocated once) to what a run allocates. A record per job of the
// trace, a trace grown by copies, or an unbounded admission log would
// each cost tens of bytes per job more.
func TestFastStateBoundedByInFlight(t *testing.T) {
	const nodes = 16
	sched, w := testSched(t, nodes)
	arr, err := ParseArrivalSpec("rate=0.25,burst=2,units=2e12,spread=0.5")
	if err != nil {
		t.Fatalf("arrival spec: %v", err)
	}
	sp, err := faults.ParseSpec("shock.mtbs=600,shock.frac=0.25,shock.len=60")
	if err != nil {
		t.Fatalf("fault spec: %v", err)
	}
	run := func(horizon float64) (Result, uint64) {
		cfg := Config{
			Sched: sched, Workload: w,
			Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
			Arrivals: arr, Seed: 3, Horizon: horizon,
			Injector: faults.NewInjector(sp, 3), Mode: ModeFast,
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Run(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatalf("horizon %g: %v", horizon, err)
		}
		if res.Completed != res.Arrived {
			t.Fatalf("horizon %g: completed %d of %d jobs", horizon, res.Completed, res.Arrived)
		}
		return res, m1.TotalAlloc - m0.TotalAlloc
	}
	run(1000) // profile the workload before measuring
	short, shortB := run(2000)
	long, longB := run(16000)
	if long.Faults.Readmissions == 0 {
		t.Fatal("no shock evicted a job: the run does not exercise readmission")
	}
	extra := long.Arrived - short.Arrived
	if extra < 5*short.Arrived {
		t.Fatalf("long run has %d jobs, short %d: not enough extra jobs to measure", long.Arrived, short.Arrived)
	}
	perJob := (float64(longB) - float64(shortB)) / float64(extra)
	const bound = 40
	if perJob > bound {
		t.Fatalf("%d extra jobs cost %.1f B each (%d B vs %d B), want at most %d B",
			extra, perJob, longB, shortB, bound)
	}
	t.Logf("%d vs %d jobs (%d readmissions): %.1f B per extra job", long.Arrived, short.Arrived,
		long.Faults.Readmissions, perJob)
}

// BenchmarkRunFast times one fast-engine run on a 1k-node fleet with
// budget shocks: about 25k jobs of bursty diurnal traffic over an hour.
func BenchmarkRunFast(b *testing.B) {
	sched, w := testSched(b, 1000)
	if err := sched.Prewarm([]workload.Workload{w}); err != nil {
		b.Fatalf("prewarm: %v", err)
	}
	arr, err := ParseArrivalSpec("rate=3.5,burst=2,diurnal=0.3,period=3600,units=2e12,spread=0.5")
	if err != nil {
		b.Fatalf("arrival spec: %v", err)
	}
	sp, err := faults.ParseSpec("shock.mtbs=600,shock.frac=0.15,shock.len=120")
	if err != nil {
		b.Fatalf("fault spec: %v", err)
	}
	cfg := Config{
		Sched: sched, Workload: w,
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
		Arrivals: arr, Seed: 1, Horizon: 3600, Mode: ModeFast,
	}
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		cfg.Injector = faults.NewInjector(sp, 1)
		res, err := Run(cfg)
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		events += res.EngineEvents
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// TestGenerateArrivalsExact: the thinning shortcut, which keeps a draw
// under the minimum modulated rate without evaluating the sine, keeps
// exactly the events that testing every draw against rateAt keeps, and
// the trace fits the capacity expectedJobs gives it (allocated once).
func TestGenerateArrivalsExact(t *testing.T) {
	reference := func(sp ArrivalSpec, seed uint64, horizon float64) []jobArrival {
		root := faults.NewRNG(seed)
		times := root.Fork("des.arrival.time")
		thin := root.Fork("des.arrival.thin")
		burst := root.Fork("des.arrival.burst")
		sizes := root.Fork("des.arrival.size")
		lamMax := sp.Rate * (1 + sp.Diurnal)
		var out []jobArrival
		for t := times.Exp(1 / lamMax); t < horizon; t += times.Exp(1 / lamMax) {
			if sp.Diurnal > 0 && thin.Float64()*lamMax > sp.rateAt(t) {
				continue
			}
			for i, n := 0, burst.Geometric(sp.Burst); i < n; i++ {
				u := sp.meanUnits()
				if sp.Spread > 0 {
					u *= 1 - sp.Spread + 2*sp.Spread*sizes.Float64()
				}
				out = append(out, jobArrival{at: t, units: u})
			}
		}
		return out
	}
	specs := []ArrivalSpec{
		{Rate: 2, Burst: 2, Diurnal: 0.3, Period: 600, Spread: 0.5},
		{Rate: 2, Burst: 1, Diurnal: 1, Period: 600},
		{Rate: 0.5, Burst: 3, Diurnal: 0.999, Period: 100, Spread: 0.2},
		{Rate: 5, Burst: 1.5},
	}
	for _, sp := range specs {
		for seed := uint64(1); seed <= 4; seed++ {
			const horizon = 3000
			got := generateArrivals(sp, seed, horizon, 1<<20)
			want := reference(sp, seed, horizon)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v seed %d: %d arrivals, reference %d, or their times or sizes differ",
					sp, seed, len(got), len(want))
			}
			if c := sp.expectedJobs(horizon, 1<<20); cap(got) != c {
				t.Errorf("%v seed %d: %d arrivals outgrew the expected capacity %d", sp, seed, len(got), c)
			}
		}
	}
}
