package main

import (
	"fmt"

	"demosmp/internal/addr"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// The benchmark's own drivers. Each schedules its events on the engine of
// the machine whose state the event touches (Cluster.EngineOf), and keeps
// its records in per-machine slots written only from that machine's shard,
// so the drivers are race-free under ShardParallel and land identically for
// every shard count.

// jobs is an open-loop job stream on one machine: seeded Poisson arrivals
// from workload.NewArrivals, each spawned by a timed Kernel.Spawn call.
// One pending event per machine; fire is bound once, so an arrival costs
// the driver no allocation beyond the job body itself.
type jobs struct {
	e     *env
	k     *kernel.Kernel
	eng   *sim.Engine
	st    *workload.Arrivals
	rng   splitmix
	m     int
	shard int
	spin  bool
	fire  func()
	// perMachine is the stream's length.
	perMachine int

	nextSvc sim.Time
	nextAt  sim.Time

	pids    []addr.ProcessID
	due     []sim.Time
	failed  uint64
	arrived uint64
}

// startJobs arms an arrival stream on every machine in ms.
func startJobs(e *env, c *core.Cluster, cfg workload.OpenLoop, ms []int) []*jobs {
	cfg.Seed = e.seed
	out := make([]*jobs, 0, len(ms))
	for _, m := range ms {
		j := &jobs{e: e, k: c.Kernel(m), eng: c.EngineOf(m), st: workload.NewArrivals(cfg, m),
			rng: newSplitmix(e.seed, uint64(m)), m: m, shard: c.ShardOf(m), spin: cfg.Spin,
			perMachine: cfg.PerMachine}
		j.fire = j.spawn
		j.arm()
		out = append(out, j)
	}
	return out
}

func (j *jobs) arm() {
	at, svc, ok := j.st.Next()
	if !ok {
		return
	}
	// Spread each service mode by ±25% so latencies are continuous: the
	// mix stays bimodal, and percentiles differ from seed to seed.
	j.nextSvc = sim.Time(float64(svc) * (0.75 + 0.5*j.rng.float64()))
	if j.nextSvc < 1 {
		j.nextSvc = 1
	}
	j.nextAt = at
	j.eng.At(at, "bench:arrival", j.fire)
}

func (j *jobs) spawn() {
	var body proc.Body
	if j.spin {
		// The kernel's default modelled instruction costs 2µs, so a
		// spinner burns the service demand as CPU time.
		work := int(j.nextSvc / 2)
		if work < 1 {
			work = 1
		}
		body = &workload.Spinner{Work: work}
	} else {
		body = &workload.Job{Service: j.nextSvc}
	}
	j.arrived++
	tr := j.e.tr
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	pid, err := j.k.Spawn(kernel.SpawnSpec{Body: body})
	if tr != nil {
		tr.call(j.shard, "kernel:Spawn", t0, uint64(j.m)<<32|j.arrived)
	}
	if err != nil {
		j.failed++
	} else {
		j.pids = append(j.pids, pid)
		j.due = append(j.due, j.nextAt)
	}
	j.arm()
}

// collectJobs fills the outcome from finished job streams: a job completes
// when its exit is recorded; latency runs from its due time to its exit.
func collectJobs(c *core.Cluster, js []*jobs, o *outcome) {
	for _, j := range js {
		o.attempted += j.arrived
		o.spawns += uint64(len(j.pids))
		o.spawnFailed += j.failed
		o.failed += j.failed
		for i, pid := range j.pids {
			ex, ok := exitOf(c, j.m, pid)
			if !ok {
				o.failed++
				continue
			}
			o.completed++
			o.lats = append(o.lats, uint64(ex.At-j.due[i]))
		}
	}
}

// allExited reports whether every job stream has run dry and every job
// it spawned has exited. Call between runs only.
func allExited(c *core.Cluster, js []*jobs) bool {
	var spawned, exited uint64
	for _, j := range js {
		if j.st.Emitted() < j.perMachine {
			return false
		}
		spawned += uint64(len(j.pids))
	}
	for m := 1; m <= c.Machines(); m++ {
		exited += c.Kernel(m).Stats().Exited
	}
	return exited >= spawned
}

// bounce is one process's migration schedule: it alternates between two
// machines, and each order is one event on the machine the schedule says
// holds the process. If an order finds the process elsewhere (an earlier
// migration failed), it is skipped, and the next order — on the other
// machine — finds it again, so the schedule heals itself.
type bounce struct {
	pid      addr.ProcessID
	machines [2]int
}

// order is one scheduled migration request.
type order struct {
	e     *env
	log   *orderLog
	k     *kernel.Kernel
	pid   addr.ProcessID
	from  int
	dest  addr.MachineID
	shard int
	id    uint64
}

// orderLog counts the orders one machine issued; written only by its shard.
type orderLog struct{ issued uint64 }

// scheduleBounces arms every process's alternating schedule: orders at
// phase, phase+period, ... before until, starting on machines[0].
func scheduleBounces(e *env, c *core.Cluster, bs []bounce, period, until sim.Time, logs []orderLog) {
	rng := newSplitmix(e.seed, 0xb0)
	var id uint64
	for _, b := range bs {
		at := period/2 + sim.Time(rng.intn(int(period)))
		for k := 0; at < until; k++ {
			from, to := b.machines[k%2], b.machines[(k+1)%2]
			id++
			o := &order{e: e, log: &logs[from], k: c.Kernel(from), pid: b.pid, from: from,
				dest: addr.MachineID(to), shard: c.ShardOf(from), id: id}
			c.EngineOf(from).At(at, "bench:migrate", o.fire)
			at += period
		}
	}
}

func (o *order) fire() {
	if o.k.Crashed() {
		return
	}
	if info, ok := o.k.Process(o.pid); !ok || info.State == kernel.StateForwarder {
		return
	}
	o.log.issued++
	tr := o.e.tr
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	o.k.RequestMigrationOf(addr.At(o.pid, addr.MachineID(o.from)), o.dest)
	if tr != nil {
		tr.call(o.shard, "kernel:RequestMigrationOf", t0, 1<<63|o.id)
	}
}

func sumOrders(logs []orderLog) (issued uint64) {
	for _, l := range logs {
		issued += l.issued
	}
	return issued
}

// spawnAt spawns a process from set-up code, outside any event.
func spawnAt(c *core.Cluster, m int, spec kernel.SpawnSpec) (addr.ProcessID, error) {
	pid, err := c.Kernel(m).Spawn(spec)
	if err != nil {
		return pid, fmt.Errorf("spawn on machine %d: %w", m, err)
	}
	return pid, nil
}
