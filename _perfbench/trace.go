package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"demosmp/internal/core"
	"demosmp/internal/sim"
)

// spanCap bounds the raw span sample kept per shard.
const spanCap = 1024

// tracer is the traced pass's recorder. It sees the program only from
// outside: the public sim.Engine.OnFire hook on every shard engine, and
// the benchmark's own timed calls into public functions (Kernel.Spawn,
// Kernel.RequestMigrationOf, Policy.Decide). Spans stay in memory and are
// aggregated per (layer, name); they are written out after the run.
//
// Self time of an event is the host time from its OnFire to the next
// OnFire on the same shard engine, minus the timed calls made inside it
// (those are charged to the called layer). A gap that spans a change of
// Cluster.Rounds() contains a round barrier, so it is charged to the sim
// layer's barrier wait instead of to the event.
type tracer struct {
	c      *core.Cluster
	base   time.Time
	shards []shardTrace
	runNs  int64 // wall time of the traced run
}

type shardTrace struct {
	lastName  string
	lastNs    int64
	lastRound uint64
	lastOp    uint64
	childNs   int64
	barrierNs int64
	aggs      map[string]*agg
	spans     []span
	// pad keeps two shards' hot fields off one cache line.
	_ [64]byte
}

// agg is one (layer, name) row: count, self time and the largest sample.
type agg struct {
	Count  uint64 `json:"count"`
	SelfNs int64  `json:"self_ns"`
	MaxNs  int64  `json:"max_ns"`
}

// span is one raw sample. Spans that belong to one operation (a job's
// arrival and its Spawn call, a migration order and its request) share Op.
type span struct {
	Name    string `json:"name"`
	Shard   int    `json:"shard"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Op      uint64 `json:"op,omitempty"`
}

// newTracer hooks every shard engine of c. Call before the run starts.
func newTracer(c *core.Cluster) *tracer {
	t := &tracer{c: c, base: time.Now(), shards: make([]shardTrace, c.Shards())}
	for s := range t.shards {
		s := s
		t.shards[s].aggs = make(map[string]*agg)
		c.EngineOfShard(s).OnFire = func(name string, _ sim.Time) { t.fire(s, name) }
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (st *shardTrace) add(name string, ns int64) {
	a := st.aggs[name]
	if a == nil {
		a = &agg{}
		st.aggs[name] = a
	}
	a.Count++
	a.SelfNs += ns
	if ns > a.MaxNs {
		a.MaxNs = ns
	}
}

func (st *shardTrace) sample(sp span) {
	if len(st.spans) < spanCap {
		st.spans = append(st.spans, sp)
	}
}

// fire closes the previous event on shard s and opens the next one.
func (t *tracer) fire(s int, name string) {
	now := t.now()
	round := t.c.Rounds()
	st := &t.shards[s]
	t.close(s, now, round)
	st.lastName, st.lastNs, st.lastRound, st.lastOp, st.childNs = name, now, round, 0, 0
}

func (t *tracer) close(s int, now int64, round uint64) {
	st := &t.shards[s]
	if st.lastName == "" {
		return
	}
	gap := now - st.lastNs
	if round != st.lastRound {
		st.barrierNs += gap
		return
	}
	self := gap - st.childNs
	st.add(st.lastName, self)
	st.sample(span{Name: st.lastName, Shard: s, StartNs: st.lastNs, DurNs: gap, Op: st.lastOp})
}

// call records a timed public call made from inside an event on shard s:
// it is charged to name (layer:Call) and subtracted from the event.
func (t *tracer) call(s int, name string, start int64, op uint64) {
	d := t.now() - start
	st := &t.shards[s]
	st.childNs += d
	st.lastOp = op // the enclosing event's span carries the same id
	st.add(name, d)
	st.sample(span{Name: name, Shard: s, StartNs: start, DurNs: d, Op: op})
}

// finish closes every shard's last event (the run's end is a barrier),
// detaches the hooks and lets go of the cluster, which the episode's
// outcome must not keep alive.
func (t *tracer) finish(runNs int64) {
	t.runNs = runNs
	now := t.now()
	for s := range t.shards {
		st := &t.shards[s]
		if st.lastName != "" {
			st.barrierNs += now - st.lastNs
			st.lastName = ""
		}
		t.c.EngineOfShard(s).OnFire = nil
	}
	t.c = nil
}

// merged returns the per-name aggregate over all shards.
func (t *tracer) merged() map[string]agg {
	out := map[string]agg{}
	for s := range t.shards {
		for name, a := range t.shards[s].aggs {
			m := out[name]
			m.Count += a.Count
			m.SelfNs += a.SelfNs
			if a.MaxNs > m.MaxNs {
				m.MaxNs = a.MaxNs
			}
			out[name] = m
		}
	}
	return out
}

// busyNs is shards × run wall time, the denominator of every share.
func (t *tracer) busyNs() float64 { return float64(len(t.shards)) * float64(t.runNs) }

func (t *tracer) barrierShare() float64 {
	var b int64
	for s := range t.shards {
		b += t.shards[s].barrierNs
	}
	return ratio(float64(b), t.busyNs())
}

// meanNs is the mean self time per event (or call) of name.
func meanNs(m map[string]agg, name string) float64 {
	a := m[name]
	return ratio(float64(a.SelfNs), float64(a.Count))
}

// layerShare is the self time of every name in layer over shards × wall.
func (t *tracer) layerShare(m map[string]agg, layer string) float64 {
	var ns int64
	for name, a := range m {
		if layerOf(name) == layer {
			ns += a.SelfNs
		}
	}
	return ratio(float64(ns), t.busyNs())
}

// layerOf maps an event or call name ("netw:pump", "kernel:Spawn") to its
// layer: the prefix before the colon.
func layerOf(name string) string {
	if i := strings.IndexByte(name, ':'); i > 0 {
		return name[:i]
	}
	return name
}

// traceFile is the written-out form of one traced episode.
type traceFile struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Shards       int            `json:"shards"`
	RunNs        int64          `json:"run_ns"`
	BarrierShare float64        `json:"barrier_wait_share"`
	Layers       map[string]agg `json:"layers"`
	Spans        []span         `json:"spans"`
}

// write stores the aggregate and the raw span sample under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	f := traceFile{Workload: workload, Seed: seed, Shards: len(t.shards), RunNs: t.runNs,
		BarrierShare: t.barrierShare(), Layers: t.merged()}
	for s := range t.shards {
		f.Spans = append(f.Spans, t.shards[s].spans...)
	}
	sort.SliceStable(f.Spans, func(i, j int) bool { return f.Spans[i].StartNs < f.Spans[j].StartNs })
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+"-seed"+strconv.FormatInt(seed, 10)+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
