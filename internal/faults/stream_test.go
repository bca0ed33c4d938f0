package faults

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
)

// sortedOutages is the reference order the merged stream must keep: every
// node's full schedule, built in ID order, stable-sorted by time, then
// recovery before failure, then position in ids.
func sortedOutages(in *Injector, ids []string, horizon float64) []OutageEvent {
	var all []OutageEvent
	for i, id := range ids {
		for _, o := range in.NodeOutages(id, horizon) {
			all = append(all, OutageEvent{At: o.At, Node: i})
			if !math.IsInf(o.Duration, 1) {
				all = append(all, OutageEvent{At: o.At + o.Duration, Node: i, Up: true})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		if all[i].Up != all[j].Up {
			return all[i].Up
		}
		return all[i].Node < all[j].Node
	})
	return all
}

// TestOutageStreamMatchesSortedSchedule: the lazy merge yields exactly
// the stable-sorted full schedules, ties included. node.mttr=1e-300
// makes every recovery land on its failure's instant, the case where
// the sort puts the recovery first.
func TestOutageStreamMatchesSortedSchedule(t *testing.T) {
	specs := []string{
		"node.mtbf=45,node.mttr=30",
		"node.mtbf=100",
		"node.mtbf=30,node.mttr=1e-300",
		"node.mtbf=20,node.mttr=0.001",
	}
	ids := []string{"node03", "node01", "node10", "node02", "node00", "a"}
	sortedIDs := append([]string(nil), ids...)
	sort.Strings(sortedIDs)
	for _, spec := range specs {
		for _, order := range [][]string{ids, sortedIDs} {
			for _, seed := range []uint64{1, 9, 42} {
				sp, err := ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				in := NewInjector(sp, seed)
				want := sortedOutages(in, order, 2000)
				var got []OutageEvent
				s := in.Outages(order, 2000)
				for at := s.At(); ; at = s.At() {
					ev, ok := s.Next()
					if !ok {
						if !math.IsInf(at, 1) {
							t.Fatalf("exhausted stream reports next event at %v", at)
						}
						break
					}
					if at != ev.At {
						t.Fatalf("At() = %v, Next().At = %v", at, ev.At)
					}
					got = append(got, ev)
				}
				if len(want) == 0 {
					t.Fatalf("%s seed %d: empty reference schedule", spec, seed)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s seed %d order %v: merged stream diverges from the sorted schedule\n got %v\nwant %v",
						spec, seed, order, got, want)
				}
			}
		}
	}
}

// TestShockEdgesMatchSchedule: the edge cursor walks each shock's start
// and then its end, in schedule order.
func TestShockEdgesMatchSchedule(t *testing.T) {
	in := NewInjector(Spec{ShockMTBS: 60, ShockFrac: 0.25, ShockLen: 10}, 7)
	var want []ShockEdge
	for _, sh := range in.BudgetShocks(5000) {
		want = append(want, ShockEdge{At: sh.At, Frac: sh.Frac}, ShockEdge{At: sh.At + sh.Duration, Frac: sh.Frac, End: true})
	}
	if len(want) == 0 {
		t.Fatal("no shocks over 5000 s with MTBS 60")
	}
	var got []ShockEdge
	e := in.ShockEdges(5000)
	for ev, ok := e.Next(); ok; ev, ok = e.Next() {
		got = append(got, ev)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("edges diverge from the schedule\n got %v\nwant %v", got, want)
	}
	if !math.IsInf(e.At(), 1) {
		t.Fatalf("exhausted cursor reports next edge at %v", e.At())
	}
}

func TestNilStreamsAreEmpty(t *testing.T) {
	var in *Injector
	if _, ok := in.Shocks(1e4).Next(); ok {
		t.Error("nil injector yielded a shock")
	}
	if e := in.ShockEdges(1e4); !math.IsInf(e.At(), 1) {
		t.Error("nil injector has a shock edge")
	}
	if s := in.Outages([]string{"n"}, 1e4); !math.IsInf(s.At(), 1) {
		t.Error("nil injector has an outage")
	}
	// A shock without length is skipped, so the stream is empty however
	// long its horizon.
	if _, ok := NewInjector(Spec{ShockMTBS: 1, ShockFrac: 0.5}, 1).Shocks(math.Inf(1)).Next(); ok {
		t.Error("shock.len=0 yielded a shock")
	}
}

// allocs reports the heap bytes and objects f allocates, the least of a
// few runs.
func allocs(f func()) (bytes, objects uint64) {
	bytes, objects = math.MaxUint64, math.MaxUint64
	var m0, m1 runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
		objects = min(objects, m1.Mallocs-m0.Mallocs)
	}
	return bytes, objects
}

// TestStreamAllocIndependentOfHorizon: drawing the first k events of a
// schedule costs the same whether the horizon is 1e4 s or 1e12 s. A
// schedule built out to its horizon before the first event is read
// allocates in proportion to the horizon instead.
func TestStreamAllocIndependentOfHorizon(t *testing.T) {
	in := NewInjector(Spec{NodeMTBF: 50, NodeMTTR: 5, ShockMTBS: 10, ShockFrac: 0.2, ShockLen: 1}, 3)
	ids := []string{"n0", "n1", "n2", "n3"}
	const k = 100
	drain := func(horizon float64) func() {
		return func() {
			e := in.ShockEdges(horizon)
			o := in.Outages(ids, horizon)
			for i := 0; i < k; i++ {
				if _, ok := e.Next(); !ok {
					panic("shock edges ran out")
				}
				if _, ok := o.Next(); !ok {
					panic("outages ran out")
				}
			}
		}
	}
	shortB, shortN := allocs(drain(1e4))
	longB, longN := allocs(drain(1e12))
	if shortB != longB || shortN != longN {
		t.Fatalf("first %d events: horizon 1e4 allocates %d B in %d objects, horizon 1e12 %d B in %d objects",
			k, shortB, shortN, longB, longN)
	}
}
