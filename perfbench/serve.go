package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/allocsvc"
	"repro/internal/decisiontable"
	"repro/internal/evalpool"
	"repro/internal/wire"
)

// serve-exact's settings.
const (
	// serveRate is the open loop's fixed rate in requests per second,
	// about a third of the saturated throughput on the commit that
	// defined the benchmark. At half, bursts of CPU steal on a shared
	// 2-CPU host pushed the two-slot open loop into backlogs, and the p50
	// and p99 swung by more than any usable bound.
	serveRate = 1000
	// p99LimitMS is the latency limit the fixed rate is held against;
	// the context line reports whether the run met it.
	p99LimitMS = 25
	// serveChildren is how many fresh processes measure one run, each
	// for an equal share of its seconds. Processes fed the same inputs
	// differ in speed and in their latency tail (heap layout, GC pacing,
	// neighbours on the host); independent processes average it out.
	serveChildren = 6
	// serveSetups is how many times each child sets up.
	serveSetups = 5
	// warmFrac is the share of a child's seconds spent warming up.
	warmFrac = 0.15
	// windows is how many consecutive windows a child cuts its open loop
	// and its closed loop into, for the per-CPU-second, allocation and
	// throughput figures.
	windows = 5
)

// checkKeys bounds the distinct keys per route whose answers are
// checked against the in-process reference.
var checkKeys = map[string]int{allocsvc.RouteCoord: 40, allocsvc.RoutePlan: 12, allocsvc.RouteRecoord: 6}

// replays bounds the sampled requests per route the traced run re-runs
// layer by layer.
var replays = map[string]int{allocsvc.RouteCoord: 120, allocsvc.RoutePlan: 30, allocsvc.RouteRecoord: 8,
	allocsvc.RouteTree: 8, allocsvc.RouteSchedule: 8}

// quiet is the value a run reports for a figure sampled in many set-ups
// or windows: the lower quartile for a time, the upper quartile for a
// rate. Neighbours on a shared host slow whole stretches of a run by up
// to 2x, for seconds to tens of seconds; the run's quieter quarter
// reads the same from run to run. The stream comes in blocks with the
// same mix, so every window carries the same work and a code change
// that slows the typical set-up or request moves every window, the
// quiet quarter with them. That does not hold for the tail: a window's
// p99 rests on a handful of requests, and a tail that shows in only
// some windows would be discarded, so the p99 is taken over each
// child's whole open loop instead.
func quiet(xs []float64, rate bool) float64 {
	if rate {
		return quantile(xs, 0.75)
	}
	return quantile(xs, 0.25)
}

// warmUp serves the stream's first requests in a closed loop for dur
// before timing starts, then collects garbage, and returns the index
// of the first request not yet sent. A long-running service does not
// pay its cold caches on every request, and an open loop started cold
// builds a backlog whose size varies wildly from process to process.
func warmUp(d *deployment, reqs []request, store *answerStore, dur time.Duration) int {
	next, _, _ := closedLoop(runtime.NumCPU(), dur, 0, sender(d, reqs, store))
	runtime.GC()
	return next
}

// openLoopFrom runs the open loop over reqs[next:], numbers its samples
// by their index in reqs, and returns them with the generator's spin
// time.
func openLoopFrom(d *deployment, reqs []request, store *answerStore, next int, dur time.Duration) ([]sample, time.Duration) {
	ss, spin := openLoop(serveRate, dur, runtime.NumCPU(), sender(d, reqs[next:], store))
	for i := range ss {
		ss[i].idx += next
	}
	return ss, spin
}

// setupRequests are the requests a serve-exact set-up answers: the
// lowest-ranked coord key of every catalog pair for seed 0, so that a
// set-up profiles the whole catalog, as a service does in its first
// moments, and does the same work in every run.
func setupRequests() []request {
	st, rng := rand.New(rand.NewSource(structureSeed)), rand.New(rand.NewSource(0))
	return exactMix(st, rng)[0].universe[:len(catalogPairs())]
}

// serveSample is one fresh-process measurement, as a serve child
// reports it.
type serveSample struct {
	// SetupS are the child's set-up times.
	SetupS []float64 `json:"setup_s"`
	// P50MS is each open-loop window's latency p50 from the due time,
	// and P99MS the p99 over the child's whole open loop, failed
	// requests excluded.
	P50MS []float64 `json:"latency_p50_ms"`
	P99MS float64   `json:"latency_p99_ms"`
	// RPS is the closed loop's throughput in each window.
	RPS []float64 `json:"throughput_rps"`
	// PerCPUSec and AllocPerOp are each open-loop window's requests per
	// CPU-second, less the generator's spin, and bytes allocated per
	// request.
	PerCPUSec  []float64 `json:"events_per_s"`
	AllocPerOp []float64 `json:"alloc_bytes_per_op"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	LateP50MS  float64   `json:"gen_late_p50_ms"`
	LateP99MS  float64   `json:"gen_late_p99_ms"`
	// SpinFrac is the generator's spin time over the open loop's CPU time.
	SpinFrac  float64  `json:"gen_spin_frac"`
	Requests  int      `json:"open_loop_requests"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures"`
	// HitRate and SimRunsPerReq are the evalpool memo's hit rate and
	// simulator runs per request over the open loop.
	HitRate       float64 `json:"evalpool_hit_rate"`
	SimRunsPerReq float64 `json:"sim_runs_per_req"`
	// Routes gives each route's request count and latency p50 and p99
	// in the open loop.
	Routes map[string][3]float64 `json:"routes"`
}

// childServe is the "serve" child role: set up, warm up, run the open
// loop at the fixed rate, then the closed loop at saturation, then
// check the answers.
func childServe(o options) (any, error) {
	b := &bench{opts: o, metrics: map[string]metric{}}
	secs := o.seconds / serveChildren
	n := int(serveRate * secs)
	reqs := exactStream(o.seed, 2*n+20000)
	checks := checkSet(reqs[:n], checkKeys)
	store := newAnswerStore(checks)
	nproc := runtime.NumCPU()
	span := func(frac float64) time.Duration { return time.Duration(frac * secs * float64(time.Second)) }

	firsts := setupRequests()
	var setups []float64
	var d *deployment
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			d.close()
		}
		// Each set-up starts from an empty memo cache, as a fresh
		// deployment would.
		evalpool.SetDefault(evalpool.New(evalpool.Options{}))
		var setup time.Duration
		var err error
		if d, setup, err = setupExact(firsts); err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer d.close()
	next := warmUp(d, reqs, store, span(warmFrac))
	var ss []sample
	var p50s, perCPU, alloc []float64
	var spun, cpu time.Duration
	e0 := evalpool.Default().Stats()
	for w := 0; w < windows; w++ {
		m0, c0 := memSnap(), cpuTime()
		win, spin := openLoopFrom(d, reqs, store, next, span(0.5/windows))
		m1, c1 := memSnap(), cpuTime()
		next += len(win)
		spun += spin
		cpu += c1 - c0
		winLat, _, _ := latencies(win)
		p50s = append(p50s, median(winLat))
		perCPU = append(perCPU, float64(len(win))/(c1-c0-spin).Seconds())
		alloc = append(alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(win)))
		ss = append(ss, win...)
	}
	e1 := evalpool.Default().Stats()
	for _, s := range ss {
		b.op(s.err == nil, "open-loop request %d: %v", s.idx, s.err)
	}
	var rps []float64
	for w := 0; w < windows; w++ {
		done, failed, elapsed := closedLoop(nproc, span(0.25/windows), next, sender(d, reqs, store))
		next += done
		b.attempted += done
		for i := 0; i < failed; i++ {
			b.fail("closed-loop request failed")
		}
		rps = append(rps, float64(done-failed)/elapsed.Seconds())
	}
	checkAnswers(b, d, checks, store)

	lat, late, _ := latencies(ss)
	byRoute := map[string][]float64{}
	for _, s := range ss {
		if s.err == nil {
			r := routeName(reqs[s.idx%len(reqs)].route)
			byRoute[r] = append(byRoute[r], float64(s.done.Sub(s.due))/1e6)
		}
	}
	routes := map[string][3]float64{}
	for r, xs := range byRoute {
		routes[r] = [3]float64{float64(len(xs)), quantile(xs, 0.5), quantile(xs, 0.99)}
	}
	return serveSample{
		SetupS:        setups,
		P50MS:         p50s,
		P99MS:         quantile(lat, 0.99),
		RPS:           rps,
		PerCPUSec:     perCPU,
		AllocPerOp:    alloc,
		PeakRSSMB:     peakRSSMB(),
		LateP50MS:     median(late),
		LateP99MS:     quantile(late, 0.99),
		SpinFrac:      spun.Seconds() / cpu.Seconds(),
		Requests:      len(ss),
		HitRate:       ratio(float64(e1.Hits-e0.Hits), float64(e1.Hits-e0.Hits+e1.Misses-e0.Misses)),
		SimRunsPerReq: float64(e1.SimRuns-e0.SimRuns) / float64(len(ss)),
		Routes:        routes,
		Attempted:     b.attempted,
		Failed:        b.failed,
		Failures:      b.failures,
	}, nil
}

// answerStore keeps the answers to the check keys seen during load.
type answerStore struct {
	mu      sync.Mutex
	want    map[string]request
	answers map[string][]any
}

const answersPerKey = 8

// checkSet picks, per route, the first distinct keys of reqs up to the
// workload's bound.
func checkSet(reqs []request, bound map[string]int) []request {
	seen := map[string]bool{}
	count := map[string]int{}
	var out []request
	for _, r := range reqs {
		if seen[r.key] || count[r.route] >= bound[r.route] {
			continue
		}
		seen[r.key] = true
		count[r.route]++
		out = append(out, r)
	}
	return out
}

func newAnswerStore(checks []request) *answerStore {
	s := &answerStore{want: map[string]request{}, answers: map[string][]any{}}
	for _, r := range checks {
		s.want[r.key] = r
	}
	return s
}

func (s *answerStore) keep(r request, ans any) {
	if _, ok := s.want[r.key]; !ok {
		return
	}
	s.mu.Lock()
	if len(s.answers[r.key]) < answersPerKey {
		s.answers[r.key] = append(s.answers[r.key], ans)
	}
	s.mu.Unlock()
}

// sender adapts a deployment to openLoop and closedLoop.
func sender(d *deployment, reqs []request, store *answerStore) func(i int) error {
	return func(i int) error {
		r := reqs[i%len(reqs)]
		ans, err := d.call(r)
		if err != nil {
			return err
		}
		store.keep(r, ans)
		return nil
	}
}

func runServeExact(b *bench) error {
	o := b.opts
	b.context["rate_rps"] = serveRate
	b.context["p99_limit_ms"] = p99LimitMS
	b.context["senders"] = runtime.NumCPU()
	if o.trace {
		return traceServe(b)
	}

	var samples []serveSample
	for i := 0; i < serveChildren; i++ {
		var c serveSample
		if err := spawn(&c, "-child", "serve", "-workload", o.workload,
			"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)); err != nil {
			return err
		}
		b.attempted += c.Attempted
		b.failed += c.Failed
		b.failures = append(b.failures, c.Failures...)
		samples = append(samples, c)
	}
	pool := func(f func(s serveSample) []float64) []float64 {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, f(s)...)
		}
		return xs
	}
	one := func(f func(s serveSample) float64) []float64 {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, f(s))
		}
		return xs
	}
	p99 := median(one(func(s serveSample) float64 { return s.P99MS }))
	b.set("setup_s", quiet(pool(func(s serveSample) []float64 { return s.SetupS }), false), "s")
	b.set("latency_p50_ms", quiet(pool(func(s serveSample) []float64 { return s.P50MS }), false), "ms")
	b.context["latency_p99_ms"] = p99
	b.set("throughput_rps", quiet(pool(func(s serveSample) []float64 { return s.RPS }), true), "1/s")
	b.set("events_per_s", quiet(pool(func(s serveSample) []float64 { return s.PerCPUSec }), true), "1/s")
	b.set("alloc_bytes_per_op", median(pool(func(s serveSample) []float64 { return s.AllocPerOp })), "bytes")
	b.set("peak_rss_mb", median(one(func(s serveSample) float64 { return s.PeakRSSMB })), "MB")
	b.context["gen_late_p50_ms"] = median(one(func(s serveSample) float64 { return s.LateP50MS }))
	b.context["gen_late_p99_ms"] = median(one(func(s serveSample) float64 { return s.LateP99MS }))
	b.context["gen_spin_frac"] = median(one(func(s serveSample) float64 { return s.SpinFrac }))
	b.context["samples"] = samples
	b.context["p99_within_limit"] = p99 <= p99LimitMS
	return nil
}

// servePin is the pinned answer to one request that does not depend on
// the seed: the SHA-256 of the body the service answered on the commit
// that defined the benchmark.
type servePin struct {
	Route  string `json:"route"`
	Body   string `json:"body"`
	SHA256 string `json:"sha256"`
}

//go:embed serve_pins.json
var servePinsJSON []byte

func bodyHash(body []byte) string {
	h := sha256.Sum256(body)
	return hex.EncodeToString(h[:])
}

// childPins is the "pins" child role: it answers pinnedRequests on a
// fresh default service and returns serve_pins.json, after checking that
// every coord, plan and recoord answer is byte-equal to the in-process
// answer of the serial reference engine.
func childPins() (any, error) {
	reqs := pinnedRequests()
	d, _, err := setupExact(reqs[:1])
	if err != nil {
		return nil, err
	}
	defer d.close()
	bodies := make([][]byte, len(reqs))
	pins := make([]servePin, len(reqs))
	for i, r := range reqs {
		if bodies[i], err = d.raw(r); err != nil {
			return nil, fmt.Errorf("pinned request %s: %w", r.key, err)
		}
		pins[i] = servePin{Route: r.route, Body: string(r.body), SHA256: bodyHash(bodies[i])}
	}
	evalpool.SetDefault(evalpool.Serial())
	for i, r := range reqs {
		exact, ok, err := compute(nil, -1, r)
		if err == nil && ok {
			err = checkExact(bodies[i], exact)
		}
		if err != nil {
			return nil, fmt.Errorf("pinned request %s: %w", r.key, err)
		}
	}
	return pins, nil
}

// checkAnswers checks the service's answers after load, while its memo
// cache is warm. Every pinned request must be answered with its pinned
// bytes. For the seeded check keys, every answer kept during load and a
// fresh one must be byte-equal to the in-process answer computed on the
// serial reference engine, which has no memo cache and so cannot read
// back what the service cached.
func checkAnswers(b *bench, d *deployment, checks []request, store *answerStore) {
	var pins []servePin
	if err := json.Unmarshal(servePinsJSON, &pins); err != nil {
		b.op(false, "serve_pins.json: %v", err)
	}
	for _, p := range pins {
		body, err := d.raw(request{route: p.Route, body: []byte(p.Body)})
		if err == nil && bodyHash(body) != p.SHA256 {
			err = fmt.Errorf("answer %q does not hash to the pinned %s", body, p.SHA256)
		}
		b.op(err == nil, "pinned %s %s: %v", p.Route, p.Body, err)
	}
	fresh := make([][]byte, len(checks))
	errs := make([]error, len(checks))
	for i, r := range checks {
		fresh[i], errs[i] = d.raw(r)
	}
	prev := evalpool.SetDefault(evalpool.Serial())
	defer evalpool.SetDefault(prev)
	for i, r := range checks {
		exact, ok, err := compute(nil, -1, r)
		if !ok || err != nil {
			b.op(false, "in-process answer to %s: %v", r.key, err)
			continue
		}
		for _, got := range store.answers[r.key] {
			err := checkExact(got.([]byte), exact)
			b.op(err == nil, "load answer to %s: %v", r.key, err)
		}
		err = errs[i]
		if err == nil {
			err = checkExact(fresh[i], exact)
		}
		b.op(err == nil, "check answer to %s: %v", r.key, err)
	}
}

// checkExact requires a served JSON body to be byte-equal to the
// in-process answer as the service renders it.
func checkExact(body []byte, exact any) error {
	want, err := json.Marshal(exact)
	if err != nil {
		return err
	}
	want = append(want, '\n')
	if !bytes.Equal(body, want) {
		return fmt.Errorf("served %q, in-process %q", body, want)
	}
	return nil
}

// traceServe is the traced run of serve-exact: an untraced pass and a
// traced pass of the same warmed-up open loop, each on a fresh service
// and memo cache (their latency ratio is the tracing overhead), then
// sampled requests of the traced pass re-run layer by layer, then the
// standalone sweep for the layers the workload bypasses.
func traceServe(b *bench) error {
	o := b.opts
	tr := newTracer()
	passDur := time.Duration(0.4 * o.seconds * float64(time.Second))
	n := int(serveRate * passDur.Seconds())
	reqs := exactStream(o.seed, n+20000)
	store := newAnswerStore(checkSet(reqs[:n], checkKeys))

	warm := time.Duration(warmFrac * o.seconds / serveChildren * float64(time.Second))

	d, _, err := setupExact(setupRequests())
	if err != nil {
		return err
	}
	next := warmUp(d, reqs, store, warm)
	passA, _ := openLoopFrom(d, reqs, store, next, passDur)
	d.close()
	evalpool.SetDefault(evalpool.New(evalpool.Options{}))
	if d, _, err = setupExact(setupRequests()); err != nil {
		return err
	}
	defer d.close()
	next = warmUp(d, reqs, store, warm)

	profPath := traceFile(o, "cpu") + ".pprof"
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	e0, s0 := evalpool.Default().Stats(), d.stats()
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	passB, _ := openLoopFrom(d, reqs, store, next, passDur)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	e1, s1 := evalpool.Default().Stats(), d.stats()

	latA, _, _ := latencies(passA)
	latB, late, _ := latencies(passB)
	for _, s := range append(passA, passB...) {
		b.op(s.err == nil, "open-loop request %d: %v", s.idx, s.err)
	}
	for _, s := range passB {
		tr.record(int32(s.idx), "load."+routeName(reqs[s.idx%len(reqs)].route), s.sent, s.done)
	}

	served := float64(len(passB))
	b.set("evalpool.hit_rate", ratio(float64(e1.Hits-e0.Hits), float64(e1.Hits-e0.Hits+e1.Misses-e0.Misses)), "frac")
	b.set("evalpool.evals_per_req", float64(e1.Requests-e0.Requests)/served, "count")
	b.set("evalpool.evictions", float64(e1.Evictions-e0.Evictions), "count")
	b.set("sim.runs_per_req", float64(e1.SimRuns-e0.SimRuns)/served, "count")
	b.set("allocsvc.coalesce_rate", ratio(float64(s1.Coalesced-s0.Coalesced), float64(s1.Requests-s0.Requests)), "frac")
	b.set("allocsvc.rejected", float64(s1.Rejected-s0.Rejected), "count")
	b.set("allocsvc.table_hit_rate", ratio(float64(s1.TableHits-s0.TableHits),
		float64(s1.TableHits-s0.TableHits+s1.TableMisses-s0.TableMisses)), "frac")
	b.set("gen.late_p50_ms", median(late), "ms")
	b.set("gen.late_p99_ms", quantile(late, 0.99), "ms")
	b.set("trace.overhead_frac", median(latB)/median(latA)-1, "frac")
	b.set("latency_p99_ms", quantile(latA, 0.99), "ms")

	if err := replaySampled(b.set, tr, d, sampled(passB, reqs, replays)); err != nil {
		return err
	}
	checks := make([]request, 0, len(store.want))
	for _, r := range store.want {
		checks = append(checks, r)
	}
	sort.Slice(checks, func(i, j int) bool { return checks[i].key < checks[j].key })
	checkAnswers(b, d, checks, store)
	return finishTrace(b, tr, []string{profPath})
}

func routeName(route string) string { return strings.TrimPrefix(route, "/v1/") }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sampled picks evenly spaced requests of a pass, up to caps per route.
func sampled(pass []sample, reqs []request, caps map[string]int) []request {
	count := map[string]int{}
	var out []request
	for k := 0; k < 4; k++ {
		for i := k; i < len(pass); i += 4 {
			r := reqs[pass[i].idx%len(reqs)]
			if count[r.route] < caps[r.route] {
				count[r.route]++
				out = append(out, r)
			}
		}
	}
	return out
}

// lookupBatch is how many calls one lookup or codec span times; single
// calls are too short for the clock.
const lookupBatch = 1000

// replaySampled re-runs each sampled request layer by layer on an idle
// system: served over HTTP, answered in-process, and through each
// layer's public call.
func replaySampled(set func(name string, v float64, unit string), tr *tracer, d *deployment, rs []request) error {
	rp := newReplayer(tr)
	var overhead, clientOverhead []float64
	var frames []float64
	lookups, hits := 0, 0
	for i, r := range rs {
		id := int32(i)
		route := routeName(r.route)
		var served time.Duration
		var err error
		if d.client != nil {
			var cerr error
			callDur := tr.do(-1, id, "client."+route, func(int32) { _, cerr = d.call(r) })
			var frame []byte
			served = tr.do(-1, id, "http."+route, func(int32) { frame, err = d.raw(r) })
			if err = firstErr(cerr, err); err != nil {
				return fmt.Errorf("fast-path replay of %s: %w", r.key, err)
			}
			clientOverhead = append(clientOverhead, float64(callDur-served)/1e3)
			perLookup, hit := tableLookups(tr, id, d.tables, r)
			lookups++
			if hit {
				hits++
			}
			overhead = append(overhead, float64(served)/1e3-perLookup/1e3)
			size, err := codecRoundTrips(tr, id, r, frame)
			if err != nil {
				return err
			}
			frames = append(frames, float64(size))
			continue
		}
		// An untimed first round leaves the served and the in-process
		// answer the same warm caches to run against.
		if _, err := d.raw(r); err != nil {
			return fmt.Errorf("replay of %s: %w", r.key, err)
		}
		if _, _, err := compute(nil, id, r); err != nil {
			return err
		}
		served = tr.do(-1, id, "http."+route, func(int32) { _, err = d.raw(r) })
		if err != nil {
			return fmt.Errorf("replay of %s: %w", r.key, err)
		}
		if r.coord != nil || r.plan != nil || r.recoord != nil {
			start := time.Now()
			if _, _, err = compute(tr, id, r); err != nil {
				return err
			}
			if r.coord != nil {
				overhead = append(overhead, float64(served-time.Since(start))/1e3)
			}
		}
		if err := rp.replay(id, r); err != nil {
			return err
		}
	}
	if len(overhead) > 0 {
		set("allocsvc.overhead_us", median(overhead), "us")
	}
	if len(clientOverhead) > 0 {
		set("allocclient.call_overhead_us", median(clientOverhead), "us")
		set("decisiontable.hit_rate", ratio(float64(hits), float64(lookups)), "frac")
		set("wire.frame_bytes", median(frames), "bytes")
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tableLookups times lookupBatch in-process table lookups of r under
// one "decisiontable.lookup" span and returns the time per lookup in ns
// and whether the tables covered r.
func tableLookups(tr *tracer, id int32, set *decisiontable.Set, r request) (float64, bool) {
	hit := false
	var dur time.Duration
	switch {
	case r.coord != nil:
		var out allocsvc.CoordResponse
		dur = tr.do(-1, id, "decisiontable.lookup", func(int32) {
			for k := 0; k < lookupBatch; k++ {
				hit = set.Coord(r.coord, &out)
			}
		})
	case r.plan != nil:
		var out allocsvc.PlanResponse
		dur = tr.do(-1, id, "decisiontable.lookup", func(int32) {
			for k := 0; k < lookupBatch; k++ {
				hit = set.Plan(r.plan, &out)
			}
		})
	}
	return float64(dur) / lookupBatch, hit
}

// codecRoundTrips times lookupBatch encodes and decodes of r's request
// frame and its answer frame under "wire.encode" and "wire.decode"
// spans, and returns the two frames' total size.
func codecRoundTrips(tr *tracer, id int32, r request, respFrame []byte) (int, error) {
	reqFrame, err := binaryFrame(r)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 0, 2*(len(reqFrame)+len(respFrame)))
	switch {
	case r.coord != nil:
		var resp allocsvc.CoordResponse
		var req allocsvc.CoordRequest
		if err := wire.DecodeCoordResponse(respFrame, &resp); err != nil {
			return 0, err
		}
		tr.do(-1, id, "wire.encode", func(int32) {
			for k := 0; k < lookupBatch; k++ {
				buf, _ = wire.AppendCoordRequest(buf[:0], r.coord)
				buf, _ = wire.AppendCoordResponse(buf, &resp)
			}
		})
		tr.do(-1, id, "wire.decode", func(int32) {
			for k := 0; k < lookupBatch; k++ {
				err = firstErr(wire.DecodeCoordRequest(reqFrame, &req), wire.DecodeCoordResponse(respFrame, &resp))
			}
		})
	case r.plan != nil:
		var resp allocsvc.PlanResponse
		var req allocsvc.PlanRequest
		if err := wire.DecodePlanResponse(respFrame, &resp); err != nil {
			return 0, err
		}
		tr.do(-1, id, "wire.encode", func(int32) {
			for k := 0; k < lookupBatch; k++ {
				buf, _ = wire.AppendPlanRequest(buf[:0], r.plan)
				buf, _ = wire.AppendPlanResponse(buf, &resp)
			}
		})
		tr.do(-1, id, "wire.decode", func(int32) {
			for k := 0; k < lookupBatch; k++ {
				err = firstErr(wire.DecodePlanRequest(reqFrame, &req), wire.DecodePlanResponse(respFrame, &resp))
			}
		})
	}
	return len(reqFrame) + len(respFrame), err
}
