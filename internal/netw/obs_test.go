package netw

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"demosmp/internal/obs"
	"demosmp/internal/sim"
)

// TestObsSourceCoversStats is the drift guard for the network's obs
// source: every numeric Stats field — scalars, per-kind entries and
// per-machine rows — set to a distinct value, must appear in a snapshot
// under "netw.". A field added to Stats without a row in writeObs fails
// here.
func TestObsSourceCoversStats(t *testing.T) {
	n := New(sim.NewEngine(1), Config{})
	reg := obs.NewRegistry()
	RegisterObs(reg, n)
	n.stats.PerMachine = make([]MachineStats, 3) // machines 1 and 2; entry 0 unused

	want := map[string]uint64{}
	next := uint64(1_000_003)
	set := func(f reflect.Value, name string) {
		f.SetUint(next)
		want[name] = next
		next += 7919
	}
	sv := reflect.ValueOf(&n.stats).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f, name := sv.Field(i), sv.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				set(f.Index(j), fmt.Sprintf("%s[%d]", name, j))
			}
		case reflect.Slice:
			for m := 1; m < f.Len(); m++ {
				row := f.Index(m)
				for j := 0; j < row.NumField(); j++ {
					set(row.Field(j), fmt.Sprintf("%s[%d].%s", name, m, row.Type().Field(j).Name))
				}
			}
		default:
			set(f, name)
		}
	}

	got := map[uint64]bool{}
	for _, m := range reg.Snapshot(0).Metrics {
		if strings.HasPrefix(m.Name, "netw.") {
			got[m.Value] = true
		}
	}
	for field, v := range want {
		if !got[v] {
			t.Errorf("Stats.%s = %d is not exported under netw.", field, v)
		}
	}
}
