package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"demosmp/internal/addr"
	"demosmp/internal/chaos"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/msg"
	"demosmp/internal/policy"
	"demosmp/internal/sim"
)

// env is what a workload builder receives: the seed, the runtime shape and
// the size scale (1 in the benchmark; the self-test shrinks it). tr is set
// between set-up and run for a traced episode, so drivers read it when
// their events fire, never while arming.
type env struct {
	seed   int64
	shards int
	scale  float64
	tr     *tracer

	// Filled by newCluster: the timed core.New call.
	newS                float64
	newBytes, newAllocs uint64
}

// scaled returns n × scale, at least min.
func (e *env) scaled(n, min int) int {
	v := int(float64(n) * e.scale)
	if v < min {
		v = min
	}
	return v
}

// newCluster is the benchmark's only core.New call site: it fixes the
// runtime shape every workload shares and times the build.
func newCluster(e *env, o core.Options) (*core.Cluster, error) {
	o.Seed = e.seed
	o.Shards = e.shards
	o.ShardParallel = true
	o.TraceCap = 64 // kernels trace as real configurations do, into a tiny ring
	before := readRuntime()
	start := time.Now()
	c, err := core.New(o)
	e.newS = time.Since(start).Seconds()
	after := readRuntime()
	e.newBytes = after.allocBytes - before.allocBytes
	e.newAllocs = after.allocObjs - before.allocObjs
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	return c, nil
}

// instance is one armed workload: run drives it to its end, finish reads
// the results (operations, latencies, workload gates) into the outcome.
type instance struct {
	c      *core.Cluster
	run    func()
	finish func(o *outcome)
	// pol, when set, is the timing wrapper passed as Options.Policy.
	pol *timedPolicy
	// inj, when set, is the chaos injector (kills and losses are read
	// from it, and its audits are part of the gates).
	inj *chaos.Injector
}

// outcome is everything one episode measured.
type outcome struct {
	// Operations (filled by the workload's finish).
	attempted, completed, failed uint64
	lats                         []uint64 // simulated latency of each completed op, µs; released after summary
	samples                      uint64   // the latency summary an episode keeps
	p50, p99                     float64
	violations                   []string
	spawns, spawnFailed          uint64
	migIssued                    uint64 // migration orders the driver issued
	auditS                       float64

	// Host time.
	setupS, runS, newS  float64
	newBytes, newAllocs uint64
	// endLive is the live heap at the forced GC that closes the run, with
	// the whole cluster still reachable; gcPeakLive the largest live heap
	// seen at any GC end during set-up and run.
	endLive, gcPeakLive uint64
	rtRun               rtSample // runtime counters over the run (deltas)
	obsSnapS            float64
	obsMetrics          int

	// Public counters after the run.
	events, rounds                 uint64
	frames, bytes, retrans, orphan uint64
	forwards, linkUpdates          uint64
	migOK                          uint64
	freezeP99                      float64 // µs, over OK ledger records
	kills, lostProcs               uint64
	pmSweeps, pmOrdered            uint64
	decideCalls, decisions         uint64

	tr *tracer // non-nil for a traced episode
}

// fingerprint holds the simulated figures that must be identical across
// every episode of one seed.
func (o *outcome) fingerprint() string {
	return fmt.Sprintf("n=%d p50=%v p99=%v attempted=%d failed=%d events=%d frames=%d migOK=%d",
		o.samples, o.p50, o.p99, o.attempted, o.failed, o.events, o.frames, o.migOK)
}

// runEpisode builds, runs and audits one workload instance.
func runEpisode(w *workloadDef, seed int64, shards int, scale float64, traced bool) (*outcome, error) {
	runtime.GC() // start every episode from a collected heap
	hw := startHeapWatch()
	e := &env{seed: seed, shards: shards, scale: scale}

	start := time.Now()
	inst, err := w.build(e)
	if err != nil {
		hw.stop()
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	o := &outcome{setupS: time.Since(start).Seconds(), newS: e.newS,
		newBytes: e.newBytes, newAllocs: e.newAllocs}

	if traced {
		e.tr = newTracer(inst.c)
		o.tr = e.tr
		if inst.pol != nil {
			inst.pol.tr = e.tr
		}
	}
	before := readRuntime()
	runStart := time.Now()
	inst.run()
	o.runS = time.Since(runStart).Seconds()
	after := readRuntime()
	if e.tr != nil {
		e.tr.finish(int64(time.Since(runStart)))
	}
	o.rtRun = rtSample{
		allocBytes: after.allocBytes - before.allocBytes,
		allocObjs:  after.allocObjs - before.allocObjs,
		gcCPU:      after.gcCPU - before.gcCPU,
		totalCPU:   after.totalCPU - before.totalCPU,
	}

	inst.finish(o)
	collect(inst, o)
	// Keep only the summary: earlier episodes' samples must not inflate
	// later episodes' peak heap.
	sort.Slice(o.lats, func(i, j int) bool { return o.lats[i] < o.lats[j] })
	o.samples, o.p50, o.p99 = uint64(len(o.lats)), percentile(o.lats, 50), percentile(o.lats, 99)
	o.lats = nil
	if o.attempted != o.completed+o.failed {
		o.violations = append(o.violations, fmt.Sprintf(
			"operation accounting: attempted %d != completed %d + failed %d", o.attempted, o.completed, o.failed))
	}
	o.gcPeakLive, o.endLive = hw.stop()
	runtime.KeepAlive(inst)
	return o, nil
}

// collect reads the public counters every workload shares and applies the
// §6 ledger gate.
func collect(inst *instance, o *outcome) {
	c := inst.c
	o.events = c.TotalFired()
	o.rounds = c.Rounds()
	ns := c.NetStats()
	o.frames, o.bytes, o.retrans, o.orphan = ns.Frames, ns.Bytes, ns.Retransmits, ns.OrphanDropped
	for m := 1; m <= c.Machines(); m++ {
		ks := c.Kernel(m).Stats()
		o.forwards += ks.Forwarded
		o.linkUpdates += ks.LinkUpdatesSent
		o.lostProcs += ks.CrashLostProcs
	}

	// §6: every completed migration moved its state in 3 transfers and
	// cost 9 administrative messages of 6–12 bytes. The ledger counts the
	// messages the source sent or received by step 7. On a lossy network
	// one of them, the destination's accept, can still be in retransmission
	// then: the source does not wait for it (the destination drives steps
	// 4–5 by pulling), so there a record may close with 8.
	minAdmin := 9
	if c.NetLossy() {
		minAdmin = 8
	}
	var freezes []uint64
	for _, r := range c.Ledger().Records() {
		if !r.OK {
			continue
		}
		o.migOK++
		freezes = append(freezes, uint64(r.FreezeMicros()))
		if r.MoveDataTransfers != 3 || r.AdminMsgs < minAdmin || r.AdminMsgs > 9 ||
			r.AdminMinBytes < 6 || r.AdminMaxBytes > 12 {
			o.violations = append(o.violations, fmt.Sprintf(
				"§6: migration of %v %d->%d: %d transfers, %d admin msgs of %d-%d B (want 3, 9, 6-12 B)",
				r.PID, r.From, r.To, r.MoveDataTransfers, r.AdminMsgs, r.AdminMinBytes, r.AdminMaxBytes))
		}
	}
	sort.Slice(freezes, func(i, j int) bool { return freezes[i] < freezes[j] })
	o.freezeP99 = percentile(freezes, 99)

	start := time.Now()
	snap := c.ObsSnapshot()
	o.obsSnapS = time.Since(start).Seconds()
	o.obsMetrics = len(snap.Metrics)

	if pm := c.PM(); pm != nil {
		o.pmSweeps, o.pmOrdered = pm.PolicySweeps, pm.MigrationsOrdered
	}
	if p := inst.pol; p != nil {
		o.decideCalls, o.decisions = p.calls, p.decisions
	}
	if inst.inj != nil {
		o.kills = uint64(inst.inj.Kills())
	}
}

// timedPolicy wraps the policy passed as Options.Policy. It counts calls
// and decisions; in a traced episode it also times every Decide call and
// charges it to the policy layer.
type timedPolicy struct {
	policy.Policy
	tr               *tracer
	shard            int // shard of the process manager's machine
	calls, decisions uint64
}

func (p *timedPolicy) Decide(now sim.Time, loads []msg.LoadReport) []policy.Decision {
	var t0 int64
	if p.tr != nil {
		t0 = p.tr.now()
	}
	d := p.Policy.Decide(now, loads)
	if p.tr != nil {
		p.tr.call(p.shard, "policy:Decide", t0, 0)
	}
	p.calls++
	p.decisions += uint64(len(d))
	return d
}

// exitOf finds pid's exit record, trying its home machine first (most
// processes never move) before scanning the cluster.
func exitOf(c *core.Cluster, home int, pid addr.ProcessID) (kernel.ExitInfo, bool) {
	if e, ok := c.Kernel(home).Exit(pid); ok {
		return e, true
	}
	e, _, ok := c.ExitOf(pid)
	return e, ok
}
