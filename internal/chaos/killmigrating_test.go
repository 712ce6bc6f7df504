package chaos_test

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/chaos"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/msg"
	"demosmp/internal/workload"
)

// TestKillWhileMigratingInvariants lands an OpKill on a process while a
// migration holds it — frozen on the source (the destination refuses, so
// the kill is redelivered by the abort) or incoming on the destination
// (the kill runs in step 8's drain) — with a user message queued behind
// the kill. Either way the process dies exactly once, nothing is
// restarted, and the cluster audits clean. The in-package record checks
// are in internal/kernel/pool_safety_test.go.
func TestKillWhileMigratingInvariants(t *testing.T) {
	for _, tc := range []struct {
		name   string
		at     int // machine whose kill-point injects the kill
		kp     kernel.KillPoint
		refuse bool
	}{
		{"source-frozen-refused", 1, kernel.KPSourceAsked, true},
		{"destination-incoming", 2, kernel.KPDestAllocated, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.New(core.Options{Machines: 2, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			pid, err := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Null{}})
			if err != nil {
				t.Fatal(err)
			}
			c.Run()
			if tc.refuse {
				c.Kernel(2).SetAccept(func(msg.MigrateAsk, int) bool { return false })
			}
			k := c.Kernel(tc.at)
			fired := false
			k.SetFaultHook(func(kp kernel.KillPoint, p addr.ProcessID) {
				if kp != tc.kp || p != pid || fired {
					return
				}
				fired = true
				here := addr.MachineID(tc.at)
				k.GiveControl(pid, msg.OpKill, nil)
				k.GiveMessageTo(addr.At(pid, here), addr.At(addr.ProcessID{Creator: 2, Local: 99}, 2), []byte("behind the kill"))
			})
			if err := c.Migrate(pid, 2); err != nil {
				t.Fatal(err)
			}
			c.Run()

			if !fired {
				t.Fatalf("kill-point %v never reached", tc.kp)
			}
			ex, m, ok := c.ExitOf(pid)
			if !ok || ex.Err == nil || m != addr.MachineID(tc.at) {
				t.Fatalf("ExitOf = %+v on m%d (%v), want a kill on m%d", ex, m, ok, tc.at)
			}
			if at, live := c.Locate(pid); live {
				t.Fatalf("killed process still live on m%d", at)
			}
			var held uint64
			for mm := 1; mm <= 2; mm++ {
				held += c.Kernel(mm).Stats().MsgsHeld
			}
			if held < 2 {
				t.Fatalf("kill was not held by the migration (MsgsHeld = %d)", held)
			}
			for _, v := range chaos.CheckInvariants(c) {
				t.Errorf("invariant violated: %s", v)
			}
		})
	}
}
