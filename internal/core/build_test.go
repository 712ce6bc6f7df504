package core_test

import (
	"runtime"
	"testing"

	"demosmp/internal/core"
)

// TestClusterBuildAllocs gates cluster build cost at the churn-1k shape
// (1000 machines, 2 shards, a 64-record trace ring per shard): core.New
// must make at most 40 allocations per machine. Obs registration is one
// source per kernel, so it adds a constant per machine, not one closure and
// one name per metric; the shared read-only machine list keeps the
// kernels' configs from growing with machines².
func TestClusterBuildAllocs(t *testing.T) {
	const machines, perMachine = 1000, 40
	opts := core.Options{Machines: machines, Shards: 2, Seed: 1, TraceCap: 64}
	build := func() {
		if _, err := core.New(opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, build)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	t.Logf("core.New(%d machines, 2 shards): %.1f allocs/machine, %.2f MB live after build",
		machines, allocs/machines, float64(after.HeapAlloc-before.HeapAlloc)/(1<<20))

	// One source per kernel plus the summed networks' (no PM, so no policy
	// source).
	if n := c.ObsSources(); n != machines+1 {
		t.Errorf("obs registry holds %d sources, want %d (one per kernel + netw)", n, machines+1)
	}
	if allocs > machines*perMachine {
		t.Fatalf("core.New made %.0f allocations (%.1f per machine), budget %d per machine",
			allocs, allocs/machines, perMachine)
	}
}
