package main

import "time"

// Per-layer metrics. Every workload reports every one of them; a layer the
// workload does not exercise reports 0. Counts and busy times are per traced
// campaign (for serve-mixed: per in-process reference search of the spec
// mix); latencies are percentiles over all units of the traced campaigns.

// regTotal sums a registry metric over the campaigns' registries: a
// counter's value, or a histogram's sum of observations.
func regTotal(cs []*campaign, name string) float64 {
	t := 0.0
	for _, c := range cs {
		if c.o == nil {
			continue
		}
		for _, m := range c.o.Metrics.Snapshot() {
			if m.Name != name {
				continue
			}
			if m.Kind == "histogram" {
				t += float64(m.Sum)
			} else {
				t += float64(m.Value)
			}
		}
	}
	return t
}

// layerSearch reports the fol, smt, concolic and search layers of traced
// campaigns from their dispatchers, spans, stats and registries.
func layerSearch(rep *report, cs []*campaign, rec *recorder) {
	n := float64(len(cs))
	var prove, exec []float64
	var proveBusy, execBusy, solveBusy, pcLen, samples float64
	var proved, solves, sats float64
	var batches, width, idle float64
	var hits, lookups, tests, runs, bugs float64
	for _, c := range cs {
		for _, u := range c.disp.units {
			us := float64(u.dur) / float64(time.Microsecond)
			switch u.layer {
			case "exec":
				exec = append(exec, us)
				execBusy += u.dur.Seconds()
				pcLen += float64(u.pcLen)
				samples += float64(u.samples)
			case "prove":
				prove = append(prove, us)
				proveBusy += u.dur.Seconds()
				if u.proved {
					proved++
				}
			case "solve":
				solves++
				solveBusy += u.dur.Seconds()
				if u.sat {
					sats++
				}
			}
		}
		for _, b := range c.disp.batches {
			batches++
			width += float64(b.width)
			idle += (time.Duration(b.slots)*b.wall - b.busy).Seconds()
		}
		hits += float64(c.st.ProofCacheHits)
		lookups += float64(c.st.ProofCacheHits + c.st.ProofCacheMisses)
		tests += float64(c.st.TestsGenerated)
		runs += float64(c.st.Runs)
		bugs += float64(len(c.st.Bugs))
	}
	self := selfTimes(rec.snapshot())
	var searchSelf float64
	for _, s := range rec.snapshot() {
		if s.Name == "search.campaign" {
			searchSelf += self[s.ID].Seconds()
		}
	}

	proveTail, provePct := tailOrMedian(prove)
	execTail, execPct := tailOrMedian(exec)
	rep.set("fol.prove_n", float64(len(prove))/n, "count")
	rep.set("fol.prove_busy_s", proveBusy/n, "s")
	rep.set("fol.prove_p50_us", median(prove), "us")
	rep.set("fol.prove_tail_us", proveTail, "us")
	rep.set("fol.proved_ratio", ratio(proved, float64(len(prove))), "ratio")
	rep.set("fol.nodes", regTotal(cs, "fol.prove.nodes")/n, "count")
	rep.set("smt.solve_n", solves/n, "count")
	rep.set("smt.solve_busy_s", solveBusy/n, "s")
	rep.set("smt.sat_ratio", ratio(sats, solves), "ratio")
	rep.set("smt.checks", (regTotal(cs, "smt.ctx.checks")+regTotal(cs, "smt.solve.calls"))/n, "count")
	rep.set("smt.theory_conflicts", regTotal(cs, "smt.theory_conflicts")/n, "count")
	rep.set("concolic.exec_n", float64(len(exec))/n, "count")
	rep.set("concolic.exec_busy_s", execBusy/n, "s")
	rep.set("concolic.exec_p50_us", median(exec), "us")
	rep.set("concolic.exec_tail_us", execTail, "us")
	rep.set("concolic.pc_len_mean", ratio(pcLen, float64(len(exec))), "count")
	rep.set("concolic.samples_new_n", samples/n, "count")
	rep.set("search.self_s", searchSelf/n, "s")
	rep.set("search.batch_n", batches/n, "count")
	rep.set("search.batch_width_mean", ratio(width, batches), "count")
	rep.set("search.fanout_idle_s", idle/n, "s")
	rep.set("search.cache_hit_ratio", ratio(hits, lookups), "ratio")
	rep.set("search.cache_lookups", lookups/n, "count")
	rep.set("search.tests_per_run", ratio(tests, runs), "ratio")
	rep.set("search.bugs", bugs/n, "count")
	rep.details["layer_samples"] = map[string]any{
		"campaigns": len(cs), "proofs": len(prove), "execs": len(exec), "solves": solves,
		"prove_tail_pct": provePct, "exec_tail_pct": execPct,
	}
}

// layerGo reports the Go runtime's allocation and GC figures per campaign.
func layerGo(rep *report, g goMetrics, campaigns float64) {
	rep.set("go.alloc_mb", g.allocBytes/(1<<20)/campaigns, "MB")
	rep.set("go.alloc_objects", g.allocObjects/campaigns, "count")
	rep.set("go.gc_cpu_s", g.gcCPU/campaigns, "s")
	rep.set("go.gc_n", g.gcCycles/campaigns, "count")
}

// serveLayers lists the serve and campaign-store metrics with their units.
var serveLayers = []struct{ name, unit string }{
	{"serve.submit_ms_p50", "ms"}, {"serve.submit_ms_tail", "ms"}, {"serve.refused_n", "count"},
	{"serve.queue_wait_ms_p50", "ms"}, {"serve.run_ms_p50", "ms"}, {"serve.poll_ms_p50", "ms"},
	{"serve.first_test_ms_p50", "ms"}, {"serve.result_ms_p50", "ms"}, {"serve.small_session_ms_p50", "ms"},
	{"campaign.bytes_per_session", "bytes"}, {"campaign.files_per_session", "count"},
	{"campaign.index_bytes", "bytes"}, {"campaign.resumed_ratio", "ratio"},
}

// layerServeAbsent reports the serve layers as unused (the lexer workloads
// run no server).
func layerServeAbsent(rep *report) {
	for _, m := range serveLayers {
		rep.set(m.name, 0, m.unit)
	}
}

// overhead reports the traced campaigns' median wall time minus the
// untraced ones'.
func overhead(rep *report, plain, traced []*campaign) {
	var p, t []float64
	for _, c := range plain {
		p = append(p, c.wall.Seconds())
	}
	for _, c := range traced {
		t = append(t, c.wall.Seconds())
	}
	d := median(t) - median(p)
	rep.set("trace.overhead_s", d, "s")
	rep.set("trace.overhead_ratio", ratio(d, median(p)), "ratio")
}
