package allocsvc

import (
	"math/rand"
	"testing"

	"repro/internal/evalpool"
)

// memoMixPairs and memoMixBudgets span the repeated-key mix: every pair
// at every budget is one distinct /v1/coord key (4 × 64 = 256 keys).
var memoMixPairs = [][2]string{
	{"ivybridge", "stream"},
	{"haswell", "dgemm"},
	{"titanxp", "gpustream"},
	{"titanv", "sgemm"},
}

const memoMixBudgets = 64

// memoMixKeys returns the 256 distinct coord requests of the mix.
func memoMixKeys() []CoordRequest {
	var reqs []CoordRequest
	for _, pair := range memoMixPairs {
		for i := 0; i < memoMixBudgets; i++ {
			reqs = append(reqs, CoordRequest{
				Platform: pair[0], Workload: pair[1], Budget: float64(130 + 2*i),
			})
		}
	}
	return reqs
}

// freshDefaultEngine installs a fresh default-options engine as the
// shared one for the rest of the test or benchmark.
func freshDefaultEngine(tb testing.TB) *evalpool.Engine {
	e := evalpool.New(evalpool.Options{})
	prev := evalpool.SetDefault(e)
	tb.Cleanup(func() { evalpool.SetDefault(prev) })
	return e
}

// TestMemoHitRate is the memo-key gate: 4000 ComputeCoord calls drawn
// from 256 distinct (pair, budget) keys, each resolving its names the
// way the service does, must be served almost entirely from the memo.
// A fingerprint that depends on anything but the problem's content (the
// spec pointers' addresses, say) gives every call a fresh key space and
// a hit rate of a few percent.
func TestMemoHitRate(t *testing.T) {
	const calls, minHitRate = 4000, 0.90
	e := freshDefaultEngine(t)
	keys := memoMixKeys()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < calls; i++ {
		if _, err := ComputeCoord(keys[rng.Intn(len(keys))]); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	t.Logf("%d calls over %d keys: %v", calls, len(keys), st)
	if hr := st.HitRate(); hr < minHitRate {
		t.Fatalf("memo hit rate %.1f%% below %.0f%% (%d simulator runs for %d calls)",
			100*hr, 100*minHitRate, st.SimRuns, calls)
	}
}

// BenchmarkComputeCoord measures the exact /v1/coord computation on a
// warm memo, resolving platform and workload names on every call as the
// service does. simruns/op counts the simulator calls the memo missed.
func BenchmarkComputeCoord(b *testing.B) {
	e := freshDefaultEngine(b)
	keys := memoMixKeys()
	for _, req := range keys {
		if _, err := ComputeCoord(req); err != nil {
			b.Fatal(err)
		}
	}
	before := e.Stats().SimRuns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeCoord(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Stats().SimRuns-before)/float64(b.N), "simruns/op")
}
