package main

import (
	"encoding/json"
	"os"
	"testing"
)

// testScale shrinks every workload so the self-test stays quick; the code
// paths are the benchmark's own.
const testScale = 0.1

// simFigures are the numbers that must not depend on how the run was
// measured or scheduled.
type simFigures struct {
	p50, p99          float64
	samples           uint64
	attempted, failed uint64
	events            uint64
	framesPerOp       float64
	migrationsDone    uint64
	forwards, spawns  uint64
}

func figures(o *outcome) simFigures {
	return simFigures{
		p50: o.p50, p99: o.p99, samples: o.samples,
		attempted: o.attempted, failed: o.failed, events: o.events,
		framesPerOp:    ratio(float64(o.frames), float64(o.completed)),
		migrationsDone: o.migOK, forwards: o.forwards, spawns: o.spawns,
	}
}

func episode(t *testing.T, w *workloadDef, shards int, traced bool) *outcome {
	t.Helper()
	o, err := runEpisode(w, defaultSeed, shards, testScale, traced)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range o.violations {
		t.Errorf("%s (shards=%d traced=%v): gate failed: %s", w.name, shards, traced, v)
	}
	if o.completed == 0 {
		t.Errorf("%s: no operation completed", w.name)
	}
	return o
}

// TestDeterminism runs every workload three ways for one seed — untraced,
// traced, and on a single shard — and demands identical simulated figures.
// Identity with the traced run proves the traced pass measures the same
// program; identity with one shard proves no figure depends on goroutine
// interleaving or on the shard layout. The single-shard comparison leaves
// out sim.events: the round barrier's gate events (netw:pump) and the
// chaos plane's per-shard pulse replicas are counted once per shard.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := figures(episode(t, w, shards, false))
			if got := figures(episode(t, w, shards, true)); got != base {
				t.Errorf("traced run differs from untraced:\n traced   %+v\n untraced %+v", got, base)
			}
			one := figures(episode(t, w, 1, false))
			one.events = base.events
			if one != base {
				t.Errorf("1-shard run differs from %d shards:\n 1 shard  %+v\n %d shards %+v", shards, one, shards, base)
			}
		})
	}
}

// TestManifestMatches checks BENCHMARK.json against what the benchmark
// prints: the same workloads, and exactly the metrics of each pass.
func TestManifestMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	o := &outcome{completed: 1, runS: 1, tr: &tracer{}}
	check := func(pass string, want []struct{ Name, Unit string }, got []metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", pass, len(want), len(got))
			return
		}
		for i := range want {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
					pass, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd([]*outcome{o}))
	check("per_layer", m.PerLayer, perLayer([]*outcome{o}, []*outcome{o}))
}
