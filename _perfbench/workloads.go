package main

import (
	"fmt"
	"time"

	"demosmp/internal/addr"
	"demosmp/internal/chaos"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/netw"
	"demosmp/internal/policy"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// workloadDef is one named workload. why is the one-line reason it exists,
// op names the operation its metrics count.
type workloadDef struct {
	name  string
	why   string
	op    string
	build func(e *env) (*instance, error)
}

// workloads lists every workload, in the order BENCHMARK.json names them.
// All run on Shards: 2, ShardParallel: true — one process, at most two
// goroutines running at once. Each definition below says why it was
// chosen; README.md holds the metric-to-layer table.
var workloads = []*workloadDef{
	{
		name: "churn-1k",
		// 1000 machines, open loop in simulated time: 300k short timer
		// jobs spawned by timed Kernel.Spawn calls, plus sparse chatter.
		// Process lifecycle, the event heap and the 1000-machine build
		// and obs registration do most of the work; netw almost none.
		// Prototype facts: obs registers 61 metrics per machine, and
		// core.New allocation grows 5.4x from 1000 to 4000 machines
		// (36 -> 195 MB), so set-up cost is a first-class metric here.
		why:   "1000-machine open-loop job churn: spawn/exit, event heap, cluster build and obs registration dominate; netw is idle",
		op:    "job",
		build: buildChurn,
	},
	{
		name: "rpc-migrate",
		// 64 machines, 256 closed-loop client <-> workload.Echo pairs
		// across shards; a seeded schedule bounces every server between
		// two machines so stale client links force §4 forwarding and §5
		// link updates. Canonical delivery, migration and round barriers
		// dominate, with almost no spawns.
		why:   "256 closed-loop RPC pairs on 64 machines while servers migrate: canonical delivery, migration, §4 forwarding, §5 updates, barriers",
		op:    "rpc",
		build: buildRPC,
	},
	{
		name: "chaos-lossy",
		// 64 machines, 4% loss with the machine-anchored ARQ, the full
		// chaos.Config schedule (kills at kill-points, partitions, bursts,
		// duplicates, delays, checkpoint pulses), a migrating fleet,
		// open-loop jobs and Recorder-audited chatter. The only workload
		// with crash/restart and checkpoints; checkpoint pulses dominate
		// its traced time (58% in the prototype).
		why:   "64 machines, 4% loss ARQ and the full chaos schedule (kills, partitions, bursts, dups, delays, checkpoints) under open-loop jobs",
		op:    "audited job",
		build: buildChaos,
	},
	{
		name: "policy-balance",
		// The policy tournament's H1 shape: Spin jobs, PM on,
		// LoadReportEvery 10ms, QueueDepth policy, bimodal load with hot
		// machines. The only workload where policy, procmgr and load
		// reports run; its sim_p99_us is the number a policy change claims.
		// 128 machines, not 256: at 256 the PM's machine spends 12.8ms per
		// 10ms on load reports and the jobs born there starve.
		why:   "tournament H1 shape: CPU-bound bimodal jobs on 128 machines with hot spots, PM and QueueDepth policy moving load",
		op:    "job",
		build: buildPolicy,
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func machineRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for m := lo; m <= hi; m++ {
		out = append(out, m)
	}
	return out
}

// chatterPairs spawns n sparse Chatter -> Counter pipelines spread over the
// cluster. The returned counters must each have seen msgs messages.
func chatterPairs(c *core.Cluster, n, msgs int, gap uint32) ([]*workload.Counter, error) {
	machines := c.Machines()
	step := machines / n
	var sinks []*workload.Counter
	for i := 0; i < n; i++ {
		src := 1 + i*step
		dst := 1 + (i*step+step/2+1)%machines
		sink := &workload.Counter{}
		spid, err := spawnAt(c, dst, kernel.SpawnSpec{Body: sink})
		if err != nil {
			return nil, err
		}
		if _, err := spawnAt(c, src, kernel.SpawnSpec{
			Body:  &workload.Chatter{N: msgs, Interval: gap},
			Links: []link.Link{{Addr: addr.At(spid, addr.MachineID(dst))}},
		}); err != nil {
			return nil, err
		}
		sinks = append(sinks, sink)
	}
	return sinks, nil
}

func checkChatter(sinks []*workload.Counter, msgs int, o *outcome) {
	for i, s := range sinks {
		if s.Seen != msgs {
			o.violations = append(o.violations, fmt.Sprintf("chatter pipeline %d: %d of %d messages delivered", i, s.Seen, msgs))
		}
	}
}

// --- churn-1k ------------------------------------------------------------------

func buildChurn(e *env) (*instance, error) {
	const machines = 1000
	c, err := newCluster(e, core.Options{Machines: machines})
	if err != nil {
		return nil, err
	}
	js := startJobs(e, c, workload.OpenLoop{
		MeanGap: 600, PerMachine: e.scaled(300, 4),
		ShortService: 200, LongService: 5_000, LongFraction: 0.1,
	}, machineRange(1, machines))
	const chatMsgs = 20
	sinks, err := chatterPairs(c, 8, chatMsgs, 1500)
	if err != nil {
		return nil, err
	}
	return &instance{c: c, run: c.Run, finish: func(o *outcome) {
		collectJobs(c, js, o)
		checkChatter(sinks, chatMsgs, o)
	}}, nil
}

// --- rpc-migrate ---------------------------------------------------------------

func buildRPC(e *env) (*instance, error) {
	const machines, pairs = 64, 256
	horizon := sim.Time(e.scaled(2_000_000, 50_000))
	// A seeded heterogeneous topology (symmetric pair latencies of
	// 400-600µs) so round trips, and their percentiles, vary with the seed.
	lat := make([]sim.Time, (machines+1)*(machines+1))
	rng := newSplitmix(e.seed, 0x1a7)
	for a := 1; a <= machines; a++ {
		for b := a; b <= machines; b++ {
			l := sim.Time(400 + rng.intn(201))
			lat[a*(machines+1)+b], lat[b*(machines+1)+a] = l, l
		}
	}
	c, err := newCluster(e, core.Options{Machines: machines, Net: netw.Config{
		PairLatency: func(a, b addr.MachineID) sim.Time { return lat[int(a)*(machines+1)+int(b)] },
	}})
	if err != nil {
		return nil, err
	}
	clients := make([]*rpcClient, pairs)
	cpids := make([]addr.ProcessID, pairs)
	cms := make([]int, pairs)
	bs := make([]bounce, pairs)
	for i := 0; i < pairs; i++ {
		cm := 1 + i%machines
		// An odd offset puts the server on the other shard of the pair.
		sm := 1 + (cm-1+2*rng.intn(machines/2)+1)%machines
		alt := 1 + (sm-1+1+rng.intn(machines-1))%machines
		cl := &rpcClient{id: uint32(i), until: horizon, think: 2_000, rng: newSplitmix(e.seed, 0xc1<<32|uint64(i))}
		cpid, err := spawnAt(c, cm, kernel.SpawnSpec{Body: cl})
		if err != nil {
			return nil, err
		}
		spid, err := spawnAt(c, sm, kernel.SpawnSpec{Body: &workload.Echo{},
			Links: []link.Link{{Addr: addr.At(cpid, addr.MachineID(cm))}}})
		if err != nil {
			return nil, err
		}
		if cl.srv, err = c.Kernel(cm).MintLinkTo(link.Link{Addr: addr.At(spid, addr.MachineID(sm))}, cpid); err != nil {
			return nil, err
		}
		clients[i], cpids[i], cms[i] = cl, cpid, cm
		bs[i] = bounce{pid: spid, machines: [2]int{sm, alt}}
	}
	logs := make([]orderLog, machines+1)
	scheduleBounces(e, c, bs, 25_000, horizon-10_000, logs)
	return &instance{c: c, run: c.Run, finish: func(o *outcome) {
		o.migIssued = sumOrders(logs)
		for i, cl := range clients {
			o.attempted += cl.sent
			o.completed += cl.answered
			o.failed += cl.sent - cl.answered
			o.lats = append(o.lats, cl.rtts...)
			if cl.unexpected > 0 {
				o.violations = append(o.violations, fmt.Sprintf("rpc client %d: %d replies not matching its outstanding request", i, cl.unexpected))
			}
			if cl.waiting {
				o.violations = append(o.violations, fmt.Sprintf("rpc client %d: request %d never answered", i, cl.seq))
			}
			if _, ok := c.Kernel(cms[i]).Exit(cpids[i]); !ok {
				o.violations = append(o.violations, fmt.Sprintf("rpc client %d did not finish", i))
			}
		}
	}}, nil
}

// --- chaos-lossy ---------------------------------------------------------------

func buildChaos(e *env) (*instance, error) {
	const machines, span = 64, 8
	horizon := sim.Time(e.scaled(3_000_000, 200_000))
	c, err := newCluster(e, core.Options{Machines: machines,
		Net:    netw.Config{LossRate: 0.04, RetransTimeout: 3000, MaxRetries: 200},
		Kernel: kernel.Config{MigrateTimeout: 400_000, CheckpointOnArrival: true},
	})
	if err != nil {
		return nil, err
	}
	// The migrating fleet lives on machines 1..span, so kills (which fire
	// at migration kill-points) only ever hit those machines. Open-loop
	// jobs run on the rest; that is what makes every job auditable.
	recPID, err := spawnAt(c, 1, kernel.SpawnSpec{Body: &workload.Recorder{}})
	if err != nil {
		return nil, err
	}
	rng := newSplitmix(e.seed, 0xc4a05)
	bs := []bounce{{pid: recPID, machines: [2]int{1, 2 + rng.intn(span-1)}}}
	for i := 0; i < 6; i++ {
		home := 1 + i%span
		pid, err := spawnAt(c, home, kernel.SpawnSpec{Body: &workload.Null{}})
		if err != nil {
			return nil, err
		}
		bs = append(bs, bounce{pid: pid, machines: [2]int{home, 1 + (home-1+1+rng.intn(span-1))%span}})
	}
	logs := make([]orderLog, machines+1)
	scheduleBounces(e, c, bs, 30_000, horizon, logs)

	// Recorder-audited chatter: sequence-stamped sends from every machine
	// to the recorder's birth address, however stale it is by then.
	sends := int(horizon / 4_500)
	for i := 0; i < sends; i++ {
		seq := uint32(i)
		src := 1 + i%machines
		k := c.Kernel(src)
		c.EngineOf(src).At(sim.Time(3_000+i*4_500), "bench:send", func() {
			body := []byte{byte(seq), byte(seq >> 8), byte(seq >> 16), byte(seq >> 24)}
			k.GiveMessageTo(addr.At(recPID, 1), addr.KernelAddr(addr.MachineID(src)), body)
		})
	}

	js := startJobs(e, c, workload.OpenLoop{
		MeanGap: 1_000, PerMachine: int(horizon / 1_000),
		ShortService: 300, LongService: 5_000, LongFraction: 0.1,
	}, machineRange(span+1, machines))

	inj := chaos.New(c, chaos.Config{
		Seed:            e.seed + 7,
		MaxKills:        8,
		RestartAfter:    60_000,
		KillAfter:       80_000,
		KillEvery:       60_000,
		PartitionEvery:  60_000,
		PartitionFor:    40_000,
		BurstEvery:      90_000,
		BurstFor:        30_000,
		BurstRate:       0.6,
		DupEvery:        45_000,
		DelayEvery:      35_000,
		DelayExtra:      2_000,
		CheckpointEvery: 30_000,
	})
	run := func() {
		c.RunFor(horizon + 50_000)
		inj.Stop()
		c.Run()
	}
	return &instance{c: c, inj: inj, run: run, finish: func(o *outcome) {
		o.migIssued = sumOrders(logs)
		collectJobs(c, js, o)
		start := time.Now()
		o.violations = append(o.violations, chaos.CheckInvariants(c)...)
		var rec *workload.Recorder
		for m := 1; m <= span && rec == nil; m++ {
			if b, ok := c.Kernel(m).BodyOf(recPID); ok {
				rec, _ = b.(*workload.Recorder)
			}
		}
		switch {
		case rec != nil:
			o.violations = append(o.violations, chaos.CheckDelivery(c, rec.Seen, uint32(sends))...)
		case !lostByCrash(c, recPID):
			o.violations = append(o.violations, fmt.Sprintf("recorder %v vanished without a crash-loss record", recPID))
		}
		o.auditS = time.Since(start).Seconds()
	}}, nil
}

func lostByCrash(c *core.Cluster, pid addr.ProcessID) bool {
	for m := 1; m <= c.Machines(); m++ {
		for _, p := range c.Kernel(m).LostPIDs() {
			if p == pid {
				return true
			}
		}
	}
	return false
}

// --- policy-balance ------------------------------------------------------------

func buildPolicy(e *env) (*instance, error) {
	const machines = 128
	pol := &timedPolicy{Policy: policy.NewQueueDepth(3, 2, 100_000)}
	c, err := newCluster(e, core.Options{Machines: machines, PM: true,
		LoadReportEvery: 10_000, Policy: pol})
	if err != nil {
		return nil, err
	}
	pol.shard = c.ShardOf(1) // the process manager runs on machine 1
	js := startJobs(e, c, workload.OpenLoop{
		MeanGap: 10_000, PerMachine: e.scaled(80, 4),
		ShortService: 400, LongService: 20_000, LongFraction: 0.3,
		HotEvery: 4, HotFactor: 3, Spin: true,
	}, machineRange(1, machines))
	// Run until every job has exited, checked every 50ms of simulated
	// time. Run() would go on while any strong timer is pending — a
	// failed migration's 30 s watchdog keeps the periodic load reports
	// (and the PM's sweeps) going long after the last job, and how long
	// depends on the seed. The policy tournament likewise bounds its runs.
	run := func() {
		for c.Now() < 10_000_000 {
			c.RunFor(50_000)
			if allExited(c, js) {
				return
			}
		}
	}
	return &instance{c: c, pol: pol, run: run, finish: func(o *outcome) {
		collectJobs(c, js, o)
		o.migIssued = c.PM().MigrationsOrdered
	}}, nil
}
