package evalpool_test

import (
	"testing"

	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/workload"
)

// TestProfileSeparateLookupsShareMemo profiles each pair twice, each
// time through its own hw.PlatformByName and workload.ByName lookup, as
// every served request does. Only the first profile may run the
// simulator; the second must be answered entirely from the memo.
func TestProfileSeparateLookupsShareMemo(t *testing.T) {
	e := evalpool.New(evalpool.Options{})
	prev := evalpool.SetDefault(e)
	defer evalpool.SetDefault(prev)

	lookup := func(platform, wl string) (hw.Platform, workload.Workload) {
		p, err := hw.PlatformByName(platform)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		return p, w
	}
	for _, pair := range [][2]string{{"ivybridge", "sra"}, {"titanv", "cufft"}} {
		for pass := 0; pass < 2; pass++ {
			before := e.Stats().SimRuns
			p, w := lookup(pair[0], pair[1])
			var err error
			if p.Kind == hw.KindCPU {
				_, err = profile.ProfileCPU(p, w)
			} else {
				_, err = profile.ProfileGPU(p, w)
			}
			if err != nil {
				t.Fatal(err)
			}
			runs := e.Stats().SimRuns - before
			switch {
			case pass == 0 && runs == 0:
				t.Fatalf("%s/%s: first profile on a fresh engine ran no simulations", pair[0], pair[1])
			case pass == 1 && runs != 0:
				t.Errorf("%s/%s: re-profiling through a new lookup ran %d simulations, want 0",
					pair[0], pair[1], runs)
			}
		}
	}
}
