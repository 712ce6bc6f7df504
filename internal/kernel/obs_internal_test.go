package kernel

import (
	"reflect"
	"strings"
	"testing"

	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/sim"
)

// TestObsSourceCoversStats is the drift guard for the kernel's obs source:
// every numeric Stats field, set to a distinct value, must appear in a
// snapshot under the kernel's prefix. A field added to Stats without a row
// in writeObs fails here.
func TestObsSourceCoversStats(t *testing.T) {
	eng := sim.NewEngine(1)
	k := New(1, eng, netw.New(eng, netw.Config{}), Config{})
	reg := obs.NewRegistry()
	k.SetObs(reg, nil)

	want := map[string]uint64{}
	next := uint64(1_000_003)
	sv := reflect.ValueOf(&k.stats).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f, name := sv.Field(i), sv.Type().Field(i).Name
		if f.Kind() == reflect.Array {
			// AdminSent: sendAdmin only ever counts the admin ops.
			for _, op := range adminOps {
				f.Index(int(op)).SetUint(next)
				want[name+"["+op.String()+"]"] = next
				next += 7919
			}
			continue
		}
		f.SetUint(next)
		want[name] = next
		next += 7919
	}

	got := map[uint64]bool{}
	for _, m := range reg.Snapshot(0).Metrics {
		if strings.HasPrefix(m.Name, "kernel.m1.") {
			got[m.Value] = true
		}
	}
	for field, v := range want {
		if !got[v] {
			t.Errorf("Stats.%s = %d is not exported under kernel.m1.", field, v)
		}
	}
	if v := reg.Snapshot(0).Value("kernel.m1.admin_total"); v != k.stats.AdminTotal() {
		t.Errorf("admin_total = %d, want %d", v, k.stats.AdminTotal())
	}
}
