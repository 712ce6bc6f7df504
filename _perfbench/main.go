// Command perfbench is the repository's benchmark. It runs one named
// workload of the sharded DEMOS/MP runtime from a seed, checks that the
// outputs are correct, and prints every metric by name and unit; the last
// line of standard output is one JSON object for tools that compare runs.
//
//	go run . --workload churn-1k --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced episodes;
// --trace 1 alternates untraced and traced episodes and reports the
// per-layer metrics. See README.md for the workloads, the metric table and
// how each metric is measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// Seeds recorded in BENCHMARK.json: the default, and a held-out seed that
// a later performance claim must also hold on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// traceDir is where the traced pass writes its spans, inside the build
// directory run.sh uses.
const traceDir = ".bench_build/traces"

// shards is the runtime shape of every workload: 2 shard engines running in
// parallel, one per CPU of the 2-CPU reference host.
const shards = 2

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := flag.Float64("seconds", 30, "how long to measure, in host seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := measure(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *trace == 1 && len(res.traced) > 0 {
		path, err := res.traced[0].tr.write(traceDir, w.name, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Println("spans:", path)
	}
	report(w, *seed, res, *trace == 1)
	if !res.correct() {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result holds every episode of one run.
type result struct {
	untraced, traced []*outcome
	violations       []string
}

func (r *result) correct() bool { return len(r.violations) == 0 }

// minEpisodes is the fewest episodes of each kind a run measures, so every
// reported host figure is a median of at least three.
const minEpisodes = 3

// measure runs episodes of w until the time budget is spent. Every episode
// uses the same seed, so all of them must agree exactly on every simulated
// figure; the first disagreement (or any gate violation) marks the run
// incorrect.
func measure(w *workloadDef, seed int64, seconds float64, traced bool) (*result, error) {
	r := &result{}
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		tracedEp := traced && i%2 == 1
		n := len(r.untraced)
		if tracedEp {
			n = len(r.traced)
		}
		elapsed := time.Since(start)
		if n >= minEpisodes && elapsed+last > time.Duration(seconds*float64(time.Second)) {
			break
		}
		t0 := time.Now()
		o, err := runEpisode(w, seed, shards, 1, tracedEp)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		if tracedEp {
			r.traced = append(r.traced, o)
		} else {
			r.untraced = append(r.untraced, o)
		}
		for _, v := range o.violations {
			r.violations = append(r.violations, fmt.Sprintf("episode %d: %s", i, v))
		}
		if len(o.violations) > 0 {
			break // a failed gate ends the run
		}
		if ref := r.untraced[0]; o.fingerprint() != ref.fingerprint() {
			r.violations = append(r.violations, fmt.Sprintf(
				"episode %d is not deterministic: %s, first episode %s", i, o.fingerprint(), ref.fingerprint()))
			break
		}
	}
	return r, nil
}

// metric is one printed figure.
type metric struct {
	name, unit string
	value      float64
}

// endToEnd computes the end-to-end metrics from the untraced episodes.
func endToEnd(eps []*outcome) []metric {
	var setup, ops, heap []float64
	for _, o := range eps {
		setup = append(setup, o.setupS)
		ops = append(ops, float64(o.completed)/o.runS)
		heap = append(heap, float64(o.endLive)/1e6)
	}
	o := eps[0]
	return []metric{
		{"setup_s", "s", median(setup)},
		{"ops_per_s", "1/s", median(ops)},
		{"peak_heap_mb", "MB", median(heap)},
		{"sim_p50_us", "us", o.p50},
		{"sim_p99_us", "us", o.p99},
	}
}

func report(w *workloadDef, seed int64, r *result, traced bool) {
	eps := r.untraced
	fmt.Printf("workload %s (operation: %s), seed %d, %d shards: %d untraced + %d traced episodes\n",
		w.name, w.op, seed, shards, len(r.untraced), len(r.traced))
	for _, v := range r.violations {
		fmt.Println("GATE FAILED:", v)
	}
	var attempted, failed uint64
	for _, o := range eps {
		attempted += o.attempted
		failed += o.failed
	}
	var ms []metric
	if len(eps) > 0 {
		o := eps[0]
		e2e := endToEnd(eps)
		for _, m := range e2e {
			fmt.Printf("  %-14s %14.6g %-4s\n", m.name, m.value, m.unit)
		}
		fmt.Printf("  %-14s %14.6g      (%d of %d operations failed; latency samples n=%d)\n",
			"failed_ratio", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted, o.samples)
		ms = e2e
		fmt.Print("  per episode:")
		for _, e := range eps {
			fmt.Printf(" %.4gs/%.5g/s/%.4gMB", e.setupS, float64(e.completed)/e.runS, float64(e.endLive)/1e6)
		}
		fmt.Println()
	}
	if traced && len(r.traced) > 0 {
		ms = perLayer(r.untraced, r.traced)
		for _, m := range ms {
			fmt.Printf("  %-34s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted uint64                    `json:"attempted"`
		Failed    uint64                    `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.correct(), attempted, failed, map[string]map[string]any{}}
	if out.Attempted == 0 {
		out.Attempted = 1 // the contract needs at least one; a run with none is incorrect anyway
		out.Correct = false
	}
	for _, m := range ms {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}
