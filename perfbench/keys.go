package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/allocsvc"
	"repro/internal/hw"
	"repro/internal/workload"
)

// request is one generated API call. Exactly one of the typed fields is
// set, matching route; body is its JSON encoding and key = route|body
// identifies equal requests.
type request struct {
	route   string
	key     string
	body    []byte
	coord   *allocsvc.CoordRequest
	plan    *allocsvc.PlanRequest
	recoord *allocsvc.RecoordRequest
	tree    *allocsvc.TreeRequest
	sched   *allocsvc.ScheduleRequest
}

func newRequest(route string, v any) request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding a generated request: %v", err)) // generated shapes always encode
	}
	r := request{route: route, body: body, key: route + "|" + string(body)}
	switch x := v.(type) {
	case *allocsvc.CoordRequest:
		r.coord = x
	case *allocsvc.PlanRequest:
		r.plan = x
	case *allocsvc.RecoordRequest:
		r.recoord = x
	case *allocsvc.TreeRequest:
		r.tree = x
	case *allocsvc.ScheduleRequest:
		r.sched = x
	}
	return r
}

// pair is one catalog (platform, workload) pair.
type pair struct {
	platform hw.Platform
	workload workload.Workload
}

func catalogPairs() []pair {
	var out []pair
	for _, p := range hw.AllPlatforms() {
		for _, w := range workload.AllWorkloads() {
			if w.Kind == p.Kind {
				out = append(out, pair{p, w})
			}
		}
	}
	return out
}

// budgetRange is the integer-watt budget range drawn for a platform:
// the card's settable cap range on GPUs (a budget below the floor is a
// rejected request), and 110-300 W on CPUs, from below the productive
// threshold to past saturation.
func budgetRange(p hw.Platform) (lo, hi int) {
	if p.Kind == hw.KindGPU {
		return int(p.GPU.MinCap.Watts() + 0.999), int(p.GPU.MaxCap.Watts())
	}
	return 110, 300
}

// strata assigns each pair's rounds to budget strata: strata[i][j] is
// the stratum of pair i's round j, a permutation fixed by st.
func strata(st *rand.Rand, pairs, rounds int) [][]int {
	out := make([][]int, pairs)
	for i := range out {
		out[i] = st.Perm(rounds)
	}
	return out
}

// drawBudget draws an integer budget in stratum k of n equal slices of
// the platform's range. Stratifying keeps the mix of regimes (rejected,
// split, saturated) the same for every seed; the seed moves each budget
// within its slice.
func drawBudget(rng *rand.Rand, p hw.Platform, k, n int) float64 {
	lo, hi := budgetRange(p)
	width := float64(hi-lo+1) / float64(n)
	return float64(lo + int((float64(k)+rng.Float64())*width))
}

// The key-space builders take two generators: st fixes the structure
// (which pair sits at which rank, the shape of trees and clusters) and
// is the same for every seed, so that seeds vary budgets and arrival
// order but not the mix of work; rng draws the seeded budgets.

// coordUniverse is the coord key space, ordered so that the lowest
// ranks cover every pair once before any pair repeats.
func coordUniverse(st, rng *rand.Rand, pairs []pair, rounds int) []request {
	var out []request
	strat := strata(st, len(pairs), rounds)
	for j := 0; j < rounds; j++ {
		for _, i := range st.Perm(len(pairs)) {
			pr := pairs[i]
			out = append(out, newRequest(allocsvc.RouteCoord, &allocsvc.CoordRequest{
				Platform: pr.platform.Name, Workload: pr.workload.Name,
				Budget: drawBudget(rng, pr.platform, strat[i][j], rounds), Strategy: "coord",
			}))
		}
	}
	return out
}

func planUniverse(st, rng *rand.Rand, pairs []pair, rounds int) []request {
	var out []request
	strat := strata(st, len(pairs), rounds)
	for j := 0; j < rounds; j++ {
		for _, i := range st.Perm(len(pairs)) {
			pr := pairs[i]
			if pr.platform.Kind != hw.KindCPU {
				continue
			}
			out = append(out, newRequest(allocsvc.RoutePlan, &allocsvc.PlanRequest{
				Platform: pr.platform.Name, Workload: pr.workload.Name,
				Budget: drawBudget(rng, pr.platform, strat[i][j], rounds),
			}))
		}
	}
	return out
}

func recoordUniverse(st, rng *rand.Rand, pairs []pair, rounds int) []request {
	var out []request
	strat := strata(st, len(pairs), rounds)
	for j := 0; j < rounds; j++ {
		for _, i := range st.Perm(len(pairs)) {
			pr := pairs[i]
			if pr.platform.Kind != hw.KindGPU || len(pr.workload.Phases) < 2 {
				continue
			}
			out = append(out, newRequest(allocsvc.RouteRecoord, &allocsvc.RecoordRequest{
				Platform: pr.platform.Name, Workload: pr.workload.Name,
				Budget: drawBudget(rng, pr.platform, strat[i][j], rounds),
			}))
		}
	}
	return out
}

// treeUniverse draws n budget trees of 2 racks x 2 leaves over random
// catalog pairs, each asked at 4 root budgets.
func treeUniverse(st, rng *rand.Rand, pairs []pair, n int) []request {
	var out []request
	for t := 0; t < n; t++ {
		var racks []allocsvc.TreeRackJSON
		for r := 0; r < 2; r++ {
			rack := allocsvc.TreeRackJSON{ID: fmt.Sprintf("r%d", r)}
			if st.Intn(2) == 0 {
				rack.CapWatts = float64(300 + st.Intn(500))
			}
			for l := 0; l < 2; l++ {
				pr := pairs[st.Intn(len(pairs))]
				rack.Nodes = append(rack.Nodes, allocsvc.TreeNodeJSON{
					ID: fmt.Sprintf("r%dn%d", r, l), Platform: pr.platform.Name,
					Workload: pr.workload.Name, Priority: st.Intn(3),
				})
			}
			racks = append(racks, rack)
		}
		for b := 0; b < 4; b++ {
			out = append(out, newRequest(allocsvc.RouteTree, &allocsvc.TreeRequest{
				Budget: float64(4 * (150 + rng.Intn(200))), Racks: racks,
			}))
		}
	}
	return out
}

// schedUniverse draws n clusters of 4-6 catalog nodes, each asked to
// place 4 different job queues.
func schedUniverse(st, rng *rand.Rand, n int) []request {
	plats := hw.AllPlatforms()
	wls := workload.AllWorkloads()
	var out []request
	for c := 0; c < n; c++ {
		var nodes []allocsvc.NodeJSON
		for i, k := 0, 4+st.Intn(3); i < k; i++ {
			nodes = append(nodes, allocsvc.NodeJSON{
				ID: fmt.Sprintf("n%d", i), Platform: plats[st.Intn(len(plats))].Name,
			})
		}
		budget := float64(len(nodes) * (150 + rng.Intn(150)))
		for q := 0; q < 4; q++ {
			var jobs []allocsvc.JobJSON
			for i, k := 0, 3+st.Intn(6); i < k; i++ {
				jobs = append(jobs, allocsvc.JobJSON{
					ID: fmt.Sprintf("j%d", i), Workload: wls[st.Intn(len(wls))].Name,
				})
			}
			out = append(out, newRequest(allocsvc.RouteSchedule, &allocsvc.ScheduleRequest{
				Budget: budget, Nodes: nodes, Jobs: jobs,
			}))
		}
	}
	return out
}

// structureSeed seeds the key spaces' structure; see coordUniverse.
const structureSeed = 1

// routeMix is one route's share of a stream, as requests per block,
// and its key space.
type routeMix struct {
	perBlock int
	universe []request
}

// stream draws n requests in blocks. Each block holds every route's
// perBlock requests in a seeded order, so that seeds vary the order and
// the keys but not how many requests of each route a run sends: the
// slow routes are a few percent of the requests, and counts that varied
// from seed to seed would move the tail latency with them. Each
// request's key is drawn by a Zipf law over its route's universe, so
// low ranks repeat and the tail is mostly new keys. The law's offset of
// 10 ranks flattens the head: on coord the first 58 ranks (one key per
// pair) take about 45% of the draws and no single key more than 3%, so
// no one seeded budget dominates a run.
func stream(rng *rand.Rand, n int, mix []routeMix) []request {
	zipfs := make([]*rand.Zipf, len(mix))
	var block []int
	for i, m := range mix {
		zipfs[i] = rand.NewZipf(rng, 1.1, 10, uint64(len(m.universe)-1))
		for k := 0; k < m.perBlock; k++ {
			block = append(block, i)
		}
	}
	out := make([]request, n)
	for i := range out {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		j := block[i%len(block)]
		out[i] = mix[j].universe[zipfs[j].Uint64()]
	}
	return out
}

// exactMix is serve-exact's route mix, per block of 200 requests, and
// its key spaces: 82.5% coord, 10% plan, 3% recoord, 4% schedule and
// 0.5% tree. The repository has no request trace, so the shares are not
// measured. They follow how
// often a deployment would make each call: a coord decision for every
// job placed on a node (most requests); a plan for each phased CPU job;
// a schedule for each batch a cluster places; a recoord for each phased
// GPU job, which the catalog has fewer of; and a tree re-solve for each
// datacenter budget change, the rarest event. At 0.5%, tree solves sit
// above the 99th percentile, so they are not expected to move the p99.
func exactMix(st, rng *rand.Rand) []routeMix {
	pairs := catalogPairs()
	return []routeMix{
		{165, coordUniverse(st, rng, pairs, 24)},
		{20, planUniverse(st, rng, pairs, 12)},
		{6, recoordUniverse(st, rng, pairs, 6)},
		{8, schedUniverse(st, rng, 6)},
		{1, treeUniverse(st, rng, pairs, 6)},
	}
}

// exactStream is serve-exact's request stream: mostly coord over every
// catalog pair, plus plan, recoord, schedule and tree.
func exactStream(seed uint64, n int) []request {
	st, rng := rand.New(rand.NewSource(structureSeed)), rand.New(rand.NewSource(int64(seed)))
	return stream(rng, n, exactMix(st, rng))
}

// pinnedRequests are the requests whose answers serve_pins.json pins:
// the lowest-ranked keys of seed 0 on every route, so they do not depend
// on the seed. That is three of the 24 coord budget rounds over every
// catalog pair, and a sixth of each other key space: two of the 12 plan
// rounds over every CPU pair, one of the six recoord rounds over every
// phased GPU pair, one cluster's four job queues and one tree at four
// root budgets.
func pinnedRequests() []request {
	st, rng := rand.New(rand.NewSource(structureSeed)), rand.New(rand.NewSource(0))
	var out []request
	for _, m := range exactMix(st, rng) {
		share := 6
		if m.universe[0].route == allocsvc.RouteCoord {
			share = 8
		}
		out = append(out, m.universe[:len(m.universe)/share]...)
	}
	return out
}
