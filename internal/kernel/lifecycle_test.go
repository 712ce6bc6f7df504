package kernel_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// crashBody fails on its first step with a fixed error.
type crashBody struct{}

var errCrashBody = errors.New("crash-body: deliberate failure")

func (crashBody) Kind() string { return "crash-body" }
func (crashBody) Step(proc.Context, int) (int, proc.Status) {
	return 0, proc.Status{State: proc.Crashed, Err: errCrashBody}
}
func (crashBody) Snapshot() ([]byte, error) { return nil, nil }
func (crashBody) Restore([]byte) error      { return nil }

// exitBody counts deliveries and exits with the count on "die". Its
// snapshot is a fixed 4 bytes, so a migration's duration does not depend
// on gob type ids, which vary with the order tests run in.
type exitBody struct{ n int32 }

func (b *exitBody) Kind() string { return "exit-body" }
func (b *exitBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if string(d.Body) == "die" {
			return 0, proc.Status{State: proc.Exited, ExitCode: b.n}
		}
		b.n++
	}
}
func (b *exitBody) Snapshot() ([]byte, error) {
	return binary.LittleEndian.AppendUint32(nil, uint32(b.n)), nil
}
func (b *exitBody) Restore(data []byte) error {
	if len(data) != 4 {
		return errors.New("exit-body: bad snapshot")
	}
	b.n = int32(binary.LittleEndian.Uint32(data))
	return nil
}

// lifecycleTC is a two-machine harness whose trace ring holds only capN
// records, so a run of a few dozen processes drops its oldest half
// several times.
func lifecycleTC(t *testing.T, capN int) *tc {
	var eng *sim.Engine
	tr := trace.New(func() sim.Time { return eng.Now() }, capN)
	c := newTC(t, 2, func(cfg *kernel.Config) { cfg.Tracer = tr })
	eng, c.tr = c.eng, tr
	return c
}

// TestLifecycleTraceDetailsByteIdentical pins the spawn, exit and crash
// trace details — formatted from the ring's stored arguments when the
// trace is read — to the text the kernel used to format eagerly, both
// directly and after the bounded ring has dropped its oldest halves.
func TestLifecycleTraceDetailsByteIdentical(t *testing.T) {
	for _, capN := range []int{0, 8} {
		t.Run(fmt.Sprintf("cap=%d", capN), func(t *testing.T) {
			c := lifecycleTC(t, capN)
			want := map[string]string{} // event+pid -> detail
			key := func(event string, pid addr.ProcessID) string { return event + " " + pid.String() }
			for i := 0; i < 12; i++ {
				k := c.k(1)
				spec := kernel.SpawnSpec{Body: &counterBody{}, ImageSize: 100 * i}
				for j := 0; j < i%3; j++ {
					spec.Links = append(spec.Links, link.Link{Addr: addr.At(addr.ProcessID{Creator: 2, Local: 9}, 2)})
				}
				pid, err := k.Spawn(spec)
				if err != nil {
					t.Fatal(err)
				}
				info, _ := k.Process(pid)
				img := info.ImageSize
				want[key("spawn", pid)] = fmt.Sprintf("%v kind=%s image=%dB links=%d", pid, "counter", img, i%3)
				switch i % 3 {
				case 0:
					for j := 0; j < i; j++ {
						k.GiveMessage(pid, addr.KernelAddr(1), []byte("tick"))
					}
					k.GiveMessage(pid, addr.KernelAddr(1), []byte("die"))
					want[key("exit", pid)] = fmt.Sprintf("%v code=%d", pid, int32(i))
				case 1:
					k.GiveControl(pid, msg.OpKill, nil)
					want[key("crash", pid)] = fmt.Sprintf("%v: %v", pid,
						fmt.Errorf("killed by %v", addr.KernelAddr(1).ID))
				case 2:
					cpid, err := k.Spawn(kernel.SpawnSpec{Body: crashBody{}})
					if err != nil {
						t.Fatal(err)
					}
					want[key("spawn", cpid)] = fmt.Sprintf("%v kind=%s image=%dB links=%d", cpid, "crash-body", 0, 0)
					want[key("crash", cpid)] = fmt.Sprintf("%v: %v", cpid, errCrashBody)
				}
				c.run()
			}
			recs := c.tr.Records()
			if capN > 0 && len(recs) > capN {
				t.Fatalf("ring holds %d records, cap %d", len(recs), capN)
			}
			var lines strings.Builder
			checked := 0
			for _, r := range recs {
				lines.WriteString(r.String())
				lines.WriteByte('\n')
				if r.Cat != trace.CatProc {
					continue
				}
				pid := strings.SplitN(r.Detail, " ", 2)[0]
				pid = strings.TrimSuffix(pid, ":")
				w, ok := want[r.Event+" "+pid]
				if !ok {
					t.Fatalf("unexpected record %q", r.String())
				}
				if r.Detail != w {
					t.Errorf("%s detail = %q, want %q", r.Event, r.Detail, w)
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no lifecycle records retained")
			}
			if capN == 0 && checked != len(want) {
				t.Fatalf("checked %d lifecycle records, want all %d", checked, len(want))
			}
			if got := c.tr.String(); got != lines.String() {
				t.Fatalf("String() differs from the rendered Records():\n%s\nvs\n%s", got, lines.String())
			}
			// Filter and Find format on read exactly as Records does.
			var procRecs []trace.Record
			for _, r := range recs {
				if r.Cat == trace.CatProc {
					procRecs = append(procRecs, r)
				}
			}
			if got := c.tr.Filter(trace.CatProc); !reflect.DeepEqual(got, procRecs) {
				t.Fatalf("Filter(proc) = %v, want %v", got, procRecs)
			}
			for _, ev := range []string{"spawn", "exit", "crash"} {
				r, ok := c.tr.Find(ev)
				for _, w := range procRecs {
					if w.Event == ev {
						if !ok || r != w {
							t.Fatalf("Find(%q) = %v %v, want %v", ev, r, ok, w)
						}
						break
					}
				}
			}
		})
	}
}

// TestExitInfoAcrossStores pins Exit for every kind of exit record: a
// local error-free exit (dense store), a migrated-in process (foreign pid,
// map), a kill and a body crash (Err set, map), and an exit recorded
// before its kernel crashed and restarted. The values are those the
// kernel reported before exit records were split across two stores.
func TestExitInfoAcrossStores(t *testing.T) {
	registered := false
	c := newTC(t, 2, func(cfg *kernel.Config) {
		if !registered { // one registry serves both kernels
			cfg.Registry.Register("exit-body", func() proc.Body { return &exitBody{} })
			registered = true
		}
	})
	k1, k2 := c.k(1), c.k(2)
	spawn := func(k *kernel.Kernel, b proc.Body) addr.ProcessID {
		t.Helper()
		pid, err := k.Spawn(kernel.SpawnSpec{Body: b})
		if err != nil {
			t.Fatal(err)
		}
		return pid
	}

	local := spawn(k1, &exitBody{})
	k1.GiveMessage(local, addr.KernelAddr(1), []byte("a"))
	k1.GiveMessage(local, addr.KernelAddr(1), []byte("die"))
	migrated := spawn(k1, &exitBody{})
	k1.GiveMessage(migrated, addr.KernelAddr(1), []byte("a"))
	k1.GiveMessage(migrated, addr.KernelAddr(1), []byte("b"))
	killed := spawn(k1, &exitBody{})
	crashed := spawn(k2, crashBody{})
	before := spawn(k1, &exitBody{})
	c.run()
	c.migrate(1, migrated, 1, 2)
	c.run()
	k2.GiveMessage(migrated, addr.KernelAddr(2), []byte("die"))
	k1.GiveControl(killed, msg.OpKill, nil)
	k1.GiveMessage(before, addr.KernelAddr(1), []byte("die"))
	c.run()
	k1.Crash()
	if err := k1.Restart(); err != nil {
		t.Fatal(err)
	}
	c.run()

	cases := []struct {
		name string
		k    *kernel.Kernel
		pid  addr.ProcessID
		code int32
		err  string
		at   sim.Time
	}{
		{"local", k1, local, 1, "", 0},
		{"migrated-in", k2, migrated, 2, "", 5955},
		{"killed", k1, killed, -1, "killed by kernel(m1)", 5985},
		{"crashed", k2, crashed, -1, errCrashBody.Error(), 0},
		{"before-restart", k1, before, 0, "", 5955},
	}
	for _, tc := range cases {
		e, ok := tc.k.Exit(tc.pid)
		if !ok {
			t.Errorf("%s: no exit record for %v", tc.name, tc.pid)
			continue
		}
		errText := ""
		if e.Err != nil {
			errText = e.Err.Error()
		}
		if e.Code != tc.code || errText != tc.err || e.At != tc.at {
			t.Errorf("%s: Exit = {Code:%d Err:%q At:%d}, want {Code:%d Err:%q At:%d}",
				tc.name, e.Code, errText, e.At, tc.code, tc.err, tc.at)
		}
		other := k1
		if tc.k == k1 {
			other = k2
		}
		if _, ok := other.Exit(tc.pid); ok {
			t.Errorf("%s: exit recorded on both machines", tc.name)
		}
	}
}
