package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as BENCHMARK.json lists
// them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"events_per_s", "1/s"},
	{"alloc_bytes_per_op", "bytes"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, as BENCHMARK.json lists
// them.
var perLayer = []metricDef{
	{"evalpool.hit_rate", "frac"},
	{"evalpool.evals_per_req", "count"},
	{"evalpool.evictions", "count"},
	{"evalpool.cpu_share", "frac"},
	{"sim.runs_per_req", "count"},
	{"sim.run_us", "us"},
	{"sim.cpu_share", "frac"},
	{"profile.us", "us"},
	{"coord.decide_us", "us"},
	{"dyncoord.plan_us", "us"},
	{"profile.cpu_share", "frac"},
	{"allocsvc.route_p50_ms.coord", "ms"},
	{"allocsvc.route_p50_ms.plan", "ms"},
	{"allocsvc.route_p50_ms.schedule", "ms"},
	{"allocsvc.route_p50_ms.tree", "ms"},
	{"allocsvc.route_p50_ms.recoord", "ms"},
	{"allocsvc.compute_us.coord", "us"},
	{"allocsvc.compute_us.plan", "us"},
	{"allocsvc.compute_us.recoord", "us"},
	{"allocsvc.overhead_us", "us"},
	{"allocsvc.coalesce_rate", "frac"},
	{"allocsvc.rejected", "count"},
	{"allocsvc.table_hit_rate", "frac"},
	{"http_json.cpu_share", "frac"},
	{"decisiontable.lookup_ns", "ns"},
	{"decisiontable.hit_rate", "frac"},
	{"decisiontable.build_s", "s"},
	{"decisiontable.build_sim_runs", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.frame_bytes", "bytes"},
	{"allocclient.call_overhead_us", "us"},
	{"allocclient.retries", "count"},
	{"allocclient.failovers", "count"},
	{"allocclient.degraded", "count"},
	{"powertree.curves_ms", "ms"},
	{"powertree.solve_ms", "ms"},
	{"recoord.run_ms", "ms"},
	{"cluster.schedule_ms", "ms"},
	{"cluster.prewarm_s", "s"},
	{"des.run_s", "s"},
	{"des.events", "count"},
	{"des.jobs", "count"},
	{"des.gc_count", "count"},
	{"des.gc_pause_ms", "ms"},
	{"des.cpu_share", "frac"},
	{"faults.overhead_s", "s"},
	{"faults.alloc_mb", "MB"},
	{"faults.shocks", "count"},
	{"gen.late_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	// latency_p99_ms is an end-to-end figure, kept unbounded here: on a
	// shared host it spreads from run to run by more than any usable
	// bound (README.md, Known gaps). Untraced runs record it in the
	// context line.
	{"latency_p99_ms", "ms"},
	{"error_frac", "frac"},
}

// spanMetrics derive per-layer metrics from span self times: the
// median self time of the named span (the sum for builds), scaled from
// nanoseconds to the metric's unit.
var spanMetrics = []struct {
	metric, span string
	scale        float64
	unit         string
	sum          bool
}{
	{"sim.run_us", "sim.run", 1e-3, "us", false},
	{"profile.us", "profile", 1e-3, "us", false},
	{"coord.decide_us", "coord.decide", 1e-3, "us", false},
	{"dyncoord.plan_us", "dyncoord.plan", 1e-3, "us", false},
	{"allocsvc.route_p50_ms.coord", "load.coord", 1e-6, "ms", false},
	{"allocsvc.route_p50_ms.plan", "load.plan", 1e-6, "ms", false},
	{"allocsvc.route_p50_ms.schedule", "load.schedule", 1e-6, "ms", false},
	{"allocsvc.route_p50_ms.tree", "load.tree", 1e-6, "ms", false},
	{"allocsvc.route_p50_ms.recoord", "load.recoord", 1e-6, "ms", false},
	{"allocsvc.compute_us.coord", "compute.coord", 1e-3, "us", false},
	{"allocsvc.compute_us.plan", "compute.plan", 1e-3, "us", false},
	{"allocsvc.compute_us.recoord", "compute.recoord", 1e-3, "us", false},
	{"decisiontable.lookup_ns", "decisiontable.lookup", 1.0 / lookupBatch, "ns", false},
	{"decisiontable.build_s", "decisiontable.build", 1e-9, "s", true},
	{"wire.encode_ns", "wire.encode", 1.0 / lookupBatch, "ns", false},
	{"wire.decode_ns", "wire.decode", 1.0 / lookupBatch, "ns", false},
	{"powertree.curves_ms", "powertree.curves", 1e-6, "ms", false},
	{"powertree.solve_ms", "powertree.solve", 1e-6, "ms", false},
	{"recoord.run_ms", "recoord.run", 1e-6, "ms", false},
	{"cluster.schedule_ms", "cluster.schedule", 1e-6, "ms", false},
	{"cluster.prewarm_s", "cluster.prewarm", 1e-9, "s", false},
}

// setDefault sets a metric the workload did not set itself.
func (b *bench) setDefault(name string, v float64, unit string) {
	if _, ok := b.metrics[name]; !ok {
		b.set(name, v, unit)
	}
}

// finishTrace completes a traced run: package CPU shares from the
// workload's profiles, the sweep for the layers the workload bypassed,
// span-derived layer times, and the trace written to disk.
func finishTrace(b *bench, tr *tracer, profiles []string) error {
	shares, err := cpuShares(profiles)
	if err != nil {
		return err
	}
	for name := range cpuShareGroups {
		b.set(name, shares[name], "frac")
	}
	if err := sweep(b, tr); err != nil {
		return err
	}
	self := tr.selfByName()
	for _, m := range spanMetrics {
		ds := self[m.span]
		if len(ds) == 0 {
			continue
		}
		xs := make([]float64, len(ds))
		total := 0.0
		for i, d := range ds {
			xs[i] = float64(d) * m.scale
			total += xs[i]
		}
		if m.sum {
			b.setDefault(m.metric, total, m.unit)
		} else {
			b.setDefault(m.metric, median(xs), m.unit)
		}
	}
	b.context["trace_file"] = traceFile(b.opts, "trace") + ".jsonl"
	b.context["cpu_profiles"] = profiles
	return tr.write(traceFile(b.opts, "trace") + ".jsonl")
}

// finishMetrics keeps exactly the metrics of the run's kind, failing
// the run when one is missing or has the wrong unit.
func finishMetrics(b *bench) {
	defs := endToEnd
	if b.opts.trace {
		b.set("error_frac", ratio(float64(b.failed), float64(b.attempted)), "frac")
		defs = perLayer
	}
	out := map[string]metric{}
	for _, d := range defs {
		m, ok := b.metrics[d.name]
		if !ok || m.Unit != d.unit {
			b.fail("metric %s missing or not in %s (got %+v)", d.name, d.unit, m)
			m = metric{Unit: d.unit}
		}
		out[d.name] = m
	}
	b.metrics = out
}
