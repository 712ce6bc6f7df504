package main

// perLayer computes the per-layer metrics of a --trace 1 run. Counters the
// program exposes (TotalFired, Rounds, NetStats, Stats, the ledger, PM())
// are deterministic for a seed, so they are read from the first traced
// episode; host times are medians over the traced episodes, except the Go
// runtime figures, which come from the untraced episodes so tracing does
// not distort them. Every metric is printed on every workload: one that
// does not apply reads 0, which is the prediction for that workload.
func perLayer(untraced, traced []*outcome) []metric {
	o := traced[0]
	ops := float64(o.completed)
	mig := float64(o.migOK)
	med := func(eps []*outcome, f func(*outcome) float64) float64 {
		var xs []float64
		for _, e := range eps {
			xs = append(xs, f(e))
		}
		return median(xs)
	}
	tr := func(f func(*outcome, map[string]agg) float64) float64 {
		return med(traced, func(e *outcome) float64 { return f(e, e.tr.merged()) })
	}
	eventNs := func(name string) float64 {
		return tr(func(_ *outcome, m map[string]agg) float64 { return meanNs(m, name) })
	}
	share := func(layerOrName string, byLayer bool) float64 {
		return tr(func(e *outcome, m map[string]agg) float64 {
			if byLayer {
				return e.tr.layerShare(m, layerOrName)
			}
			return ratio(float64(m[layerOrName].SelfNs), e.tr.busyNs())
		})
	}
	opsPerS := func(e *outcome) float64 { return float64(e.completed) / e.runS }
	// The runtime refreshes its CPU classes only at GC ends, and a short
	// episode may see none: sum over the untraced episodes instead.
	var gcCPU, totalCPU float64
	for _, e := range untraced {
		gcCPU += e.rtRun.gcCPU
		totalCPU += e.rtRun.totalCPU
	}
	return []metric{
		{"sim.events", "count", float64(o.events)},
		{"sim.rounds", "count", float64(o.rounds)},
		{"sim.events_per_round", "count", ratio(float64(o.events), float64(o.rounds))},
		{"sim.barrier_wait_share", "ratio", med(traced, func(e *outcome) float64 { return e.tr.barrierShare() })},

		{"core.new_s", "s", med(traced, func(e *outcome) float64 { return e.newS })},
		{"core.new_bytes", "bytes", med(traced, func(e *outcome) float64 { return float64(e.newBytes) })},
		{"core.new_allocs", "count", med(traced, func(e *outcome) float64 { return float64(e.newAllocs) })},

		{"obs.metrics_registered", "count", float64(o.obsMetrics)},
		{"obs.snapshot_s", "s", med(traced, func(e *outcome) float64 { return e.obsSnapS })},

		{"kernel.spawn_ns", "ns", eventNs("kernel:Spawn")},
		{"kernel.spawns", "count", float64(o.spawns)},
		{"kernel.spawn_failed", "count", float64(o.spawnFailed)},
		{"kernel.slice_ns", "ns", eventNs("kernel:slice")},
		{"kernel.timer_ns", "ns", eventNs("kernel:timer")},
		{"kernel.local_deliver_ns", "ns", eventNs("kernel:local-deliver")},
		{"kernel.load_report_ns", "ns", eventNs("kernel:load-report")},
		{"kernel.data_packet_ns", "ns", eventNs("kernel:data-packet")},
		{"kernel.migrations_done", "count", mig},
		{"kernel.migration_ok_ratio", "ratio", ratio(mig, float64(o.migIssued))},
		{"kernel.freeze_p99_us", "us", o.freezeP99},
		{"kernel.forwards_per_op", "ratio", ratio(float64(o.forwards), ops)},
		{"kernel.link_updates_per_migration", "ratio", ratio(float64(o.linkUpdates), mig)},

		{"netw.frames_per_op", "frames/op", ratio(float64(o.frames), ops)},
		{"netw.bytes_per_op", "B/op", ratio(float64(o.bytes), ops)},
		{"netw.pump_ns", "ns", eventNs("netw:pump")},
		{"netw.sink_ns", "ns", eventNs("netw:sink")},
		{"netw.retransmit_ratio", "ratio", ratio(float64(o.retrans), float64(o.frames))},
		{"netw.retrans_check_ns", "ns", eventNs("netw:retrans-check")},
		{"netw.orphan_dropped", "count", float64(o.orphan)},

		{"chaos.checkpoint_ns", "ns", eventNs("chaos:checkpoint")},
		{"chaos.checkpoint_share", "ratio", share("chaos:checkpoint", false)},
		{"chaos.kills", "count", float64(o.kills)},
		{"chaos.lost_procs", "count", float64(o.lostProcs)},
		{"chaos.audit_s", "s", med(traced, func(e *outcome) float64 { return e.auditS })},

		{"policy.decide_ns", "ns", eventNs("policy:Decide")},
		{"policy.decisions_per_sweep", "ratio", ratio(float64(o.decisions), float64(o.decideCalls))},

		{"procmgr.sweeps", "count", float64(o.pmSweeps)},
		{"procmgr.order_ok_ratio", "ratio", ratio(mig, float64(o.pmOrdered))},

		{"bench.driver_share", "ratio", share("bench", true)},
		{"bench.op_samples", "count", float64(o.samples)},

		{"runtime.gc_peak_live_mb", "MB", med(untraced, func(e *outcome) float64 { return float64(e.gcPeakLive) / 1e6 })},
		{"runtime.gc_cpu_share", "ratio", ratio(gcCPU, totalCPU)},
		{"runtime.alloc_bytes_per_event", "B/event", med(untraced, func(e *outcome) float64 { return ratio(float64(e.rtRun.allocBytes), float64(e.events)) })},
		{"runtime.allocs_per_event", "count/event", med(untraced, func(e *outcome) float64 { return ratio(float64(e.rtRun.allocObjs), float64(e.events)) })},

		{"trace_overhead", "ratio", 1 - ratio(med(traced, opsPerS), med(untraced, opsPerS))},
	}
}
