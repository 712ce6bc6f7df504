package kernel

import (
	"bytes"
	"encoding/gob"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// These tests are the safety net under the envelope pool: a holder that
// keeps a *msg.Message past its release must be able to detect the
// recycling through a generation-stamped Ref instead of silently reading
// another message's fields. They are in-package because the interesting
// moments — an envelope sitting on a process queue, the kernel's free
// list — are deliberately not part of the public API.

// poolDrainBody consumes everything; migratable.
type poolDrainBody struct {
	Got []string
}

func (b *poolDrainBody) Kind() string { return "pool-drain" }

func (b *poolDrainBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		b.Got = append(b.Got, string(d.Body))
	}
}

func (b *poolDrainBody) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(b)
	return buf.Bytes(), err
}

func (b *poolDrainBody) Restore(data []byte) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(b)
}

// poolSendOnceBody sends one message on link L, then blocks forever.
type poolSendOnceBody struct {
	L    link.ID
	Sent bool
}

func (b *poolSendOnceBody) Kind() string { return "pool-send-once" }

func (b *poolSendOnceBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if !b.Sent {
		b.Sent = true
		ctx.Send(b.L, []byte("pooled payload"))
	}
	return 0, proc.Status{State: proc.Blocked}
}

func (b *poolSendOnceBody) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(b)
	return buf.Bytes(), err
}

func (b *poolSendOnceBody) Restore(data []byte) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(b)
}

func poolTestCluster(t *testing.T, machines int) (*sim.Engine, []*Kernel) {
	t.Helper()
	eng := sim.NewEngine(5)
	nw := netw.New(eng, netw.Config{})
	tr := trace.New(eng.Now, 0)
	reg := proc.NewRegistry()
	reg.Register("pool-drain", func() proc.Body { return &poolDrainBody{} })
	cfg := Config{Tracer: tr, Registry: reg}
	for m := 1; m <= machines; m++ {
		cfg.Machines = append(cfg.Machines, addr.MachineID(m))
	}
	ks := make([]*Kernel, machines)
	for m := 1; m <= machines; m++ {
		ks[m-1] = New(addr.MachineID(m), eng, nw, cfg)
	}
	return eng, ks
}

// popAll empties a pool's free list, returning the envelopes in pop order.
func popAll(p *msg.Pool) []*msg.Message {
	out := make([]*msg.Message, 0, p.Free())
	for p.Free() > 0 {
		out = append(out, p.Get())
	}
	return out
}

// TestPoolRefGoesStaleAfterLocalRecycle pins the core aliasing guarantee:
// a Ref taken while a pooled envelope sits on a process queue goes stale
// the moment the receiver consumes it and the kernel releases the envelope
// — and stays stale when the free list reissues that envelope.
func TestPoolRefGoesStaleAfterLocalRecycle(t *testing.T) {
	e, ks := poolTestCluster(t, 1)
	k := ks[0]
	recvB := &poolDrainBody{}
	rpid, err := k.Spawn(SpawnSpec{Body: recvB})
	if err != nil {
		t.Fatal(err)
	}
	sendB := &poolSendOnceBody{}
	spid, err := k.Spawn(SpawnSpec{Body: sendB})
	if err != nil {
		t.Fatal(err)
	}
	lid, err := k.MintLinkTo(link.Link{Addr: addr.At(rpid, 1)}, spid)
	if err != nil {
		t.Fatal(err)
	}
	sendB.L = lid

	// Step until the sent envelope is parked on the receiver's queue.
	rp := k.procs[rpid]
	for rp.queue.Len() == 0 {
		if !e.Step() {
			t.Fatal("engine went idle before the message reached the receiver's queue")
		}
	}
	held := rp.queue.at(0)
	ref := msg.MakeRef(held)
	if !ref.Valid() {
		t.Fatal("fresh ref over a queued envelope must be valid")
	}

	e.Run()
	if len(recvB.Got) != 1 || recvB.Got[0] != "pooled payload" {
		t.Fatalf("receiver got %v", recvB.Got)
	}
	// The receiver consumed the message; runSlice released the envelope.
	// If ctx.Send had quietly stopped using the pool this would fail too:
	// a heap envelope is never released, so its ref would stay valid.
	if ref.Valid() {
		t.Fatal("ref survived the envelope's release — generation not bumped")
	}

	// Reissue the envelope and check the stale ref does not come back to
	// life: the generation moved on with the release.
	frees := popAll(k.pool)
	reissued := false
	for _, m := range frees {
		if m == held {
			reissued = true
		}
	}
	if !reissued {
		t.Fatal("released envelope never reached the kernel's free list")
	}
	if ref.Valid() {
		t.Fatal("stale ref became valid again after reissue")
	}
	for _, m := range frees {
		k.pool.Put(m)
	}
}

// TestPoolRefAcrossMigrationForwarding holds a Ref to a message that lands
// on a frozen in-migration queue. Step 6 forwards the envelope to the
// destination machine, whose kernel consumes it and releases it into its
// own free list — envelopes migrate between pools with the traffic. The
// source-side holder's Ref must read as stale afterwards.
func TestPoolRefAcrossMigrationForwarding(t *testing.T) {
	e, ks := poolTestCluster(t, 2)
	k1, k2 := ks[0], ks[1]
	body := &poolDrainBody{}
	pid, err := k1.Spawn(SpawnSpec{Body: body})
	if err != nil {
		t.Fatal(err)
	}
	e.Run() // let it block in receive

	k1.RequestMigrationOf(addr.At(pid, 1), 2)
	for k1.procs[pid] == nil || k1.procs[pid].state != StateInMigration {
		if !e.Step() {
			t.Fatal("engine went idle before the migration froze the process")
		}
	}

	// Inject a pooled user message at the source while the process is
	// frozen: it will be held on the queue, then forwarded in step 6.
	env := k1.getMsg()
	env.Kind = msg.KindUser
	env.From = addr.At(addr.ProcessID{Creator: 1, Local: 77}, 1)
	env.To = addr.At(pid, 1)
	env.Body = append(env.Body[:0], "held across migration"...)
	ref := msg.MakeRef(env)
	k1.route(env)

	e.Run()
	nb, ok := k2.BodyOf(pid)
	if !ok {
		t.Fatal("process never arrived on m2")
	}
	got := nb.(*poolDrainBody).Got
	if len(got) != 1 || got[0] != "held across migration" {
		t.Fatalf("forwarded message lost or duplicated: %v", got)
	}
	if ref.Valid() {
		t.Fatal("ref survived the forwarded envelope's release on the destination")
	}
	// The envelope was released by whoever consumed it: the destination.
	frees := popAll(k2.pool)
	landed := false
	for _, m := range frees {
		if m == ref.M {
			landed = true
		}
	}
	if !landed {
		t.Fatal("forwarded envelope not in the destination kernel's free list")
	}
	for _, m := range frees {
		k2.pool.Put(m)
	}
}

// TestPoolDoubleReleasePanics pins the release-matrix discipline: every
// envelope has exactly one releasing site, and a second Put is a bug loud
// enough to fail a test run, not a silent free-list corruption.
func TestPoolDoubleReleasePanics(t *testing.T) {
	p := msg.NewPool()
	m := p.Get()
	p.Put(m)
	defer func() {
		if recover() == nil {
			t.Fatal("double release of a pooled envelope did not panic")
		}
	}()
	p.Put(m)
}

// TestPoolHeapMessagePassesThrough: heap-constructed messages (tests,
// drivers, cold paths) flow through release sites as no-ops, so consumers
// never need to know a message's provenance.
func TestPoolHeapMessagePassesThrough(t *testing.T) {
	p := msg.NewPool()
	m := &msg.Message{Body: []byte("heap")}
	p.Put(m)
	p.Put(m) // and a second time: still a no-op, not a panic
	if p.Free() != 0 {
		t.Fatalf("heap message entered the free list (%d entries)", p.Free())
	}
	if string(m.Body) != "heap" {
		t.Fatalf("heap message mutated by Put: %q", m.Body)
	}
}

// --- process-record and timer pools -------------------------------------------

// poolTimerExitBody arms a timer and exits in the same step, so the timer
// fires for a process that no longer exists.
type poolTimerExitBody struct{}

func (poolTimerExitBody) Kind() string { return "pool-timer-exit" }
func (poolTimerExitBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	ctx.SetTimer(100, 7)
	return 0, proc.Status{State: proc.Exited, ExitCode: 3}
}
func (poolTimerExitBody) Snapshot() ([]byte, error) { return nil, nil }
func (poolTimerExitBody) Restore([]byte) error      { return nil }

// checkPoolKernels is the kernel-level part of chaos.CheckInvariants for a
// quiescent hand-built cluster: no pending migration, at most one live
// copy of pid, and cluster-wide envelope conservation.
func checkPoolKernels(t *testing.T, ks []*Kernel, pid addr.ProcessID) {
	t.Helper()
	live, news, free, held := 0, 0, 0, 0
	for _, k := range ks {
		if n := k.PendingMigrations(); n != 0 {
			t.Errorf("m%d: %d migrations pending at quiescence", k.machine, n)
		}
		if info, ok := k.Process(pid); ok && info.State != StateForwarder {
			live++
		}
		n, f, h := k.PoolStats()
		news, free, held = news+n, free+f, held+h
	}
	if live > 1 {
		t.Errorf("%v has %d live copies", pid, live)
	}
	if news != free+held {
		t.Errorf("envelope conservation: news %d != free %d + held %d", news, free, held)
	}
}

func inProcFree(k *Kernel, p *Process) bool {
	for _, q := range k.procFree {
		if q == p {
			return true
		}
	}
	return false
}

// TestPoolKillWhileFrozenKeepsHeldRecord: a kill held on a source process
// frozen in step 1 is redelivered when the destination refuses. It
// terminates the process while the aborting migration still points at the
// record, so terminate must leave the record alone: the abort's
// MigrateDone carries the real pid, and the message queued behind the
// kill is not popped from the emptied queue.
func TestPoolKillWhileFrozenKeepsHeldRecord(t *testing.T) {
	e, ks := poolTestCluster(t, 2)
	k1, k2 := ks[0], ks[1]
	k2.SetAccept(func(msg.MigrateAsk, int) bool { return false })
	pid, err := k1.Spawn(SpawnSpec{Body: &poolDrainBody{}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	k1.RequestMigrationOf(addr.At(pid, 1), 2)
	for k1.procs[pid].state != StateInMigration {
		if !e.Step() {
			t.Fatal("engine went idle before the freeze")
		}
	}
	rec := k1.procs[pid]
	k1.GiveControl(pid, msg.OpKill, nil)
	k1.GiveMessageTo(addr.At(pid, 1), addr.At(addr.ProcessID{Creator: 2, Local: 5}, 2), []byte("after the kill"))
	for rec.queue.Len() < 2 {
		if !e.Step() || rec.state != StateInMigration {
			t.Fatal("kill not held on the frozen process")
		}
	}
	e.Run()

	ex, ok := k1.Exit(pid)
	if !ok || ex.Err == nil || ex.Code != -1 {
		t.Fatalf("Exit = %+v, %v; want a kill", ex, ok)
	}
	if rec.id != pid || rec.state != StateDead || inProcFree(k1, rec) {
		t.Fatalf("held record recycled: id=%v state=%v free=%v", rec.id, rec.state, inProcFree(k1, rec))
	}
	if rec.migHeld {
		t.Fatal("migration released the record but left it marked held")
	}
	done := k1.DoneMigrations()
	if len(done) != 1 || done[0].PID != pid || done[0].OK {
		t.Fatalf("MigrateDone = %+v, want one failure for %v", done, pid)
	}
	checkPoolKernels(t, ks, pid)
}

// TestPoolKillWhileIncomingKeepsHeldRecord: a kill held on the
// destination's incoming copy runs in step 8's drain. The process dies
// there; it must not be restarted afterwards, and its record stays with
// the committing migration instead of being recycled mid-drain.
func TestPoolKillWhileIncomingKeepsHeldRecord(t *testing.T) {
	e, ks := poolTestCluster(t, 2)
	k1, k2 := ks[0], ks[1]
	pid, err := k1.Spawn(SpawnSpec{Body: &poolDrainBody{}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	k1.RequestMigrationOf(addr.At(pid, 1), 2)
	for k2.procs[pid] == nil {
		if !e.Step() {
			t.Fatal("engine went idle before the destination allocated")
		}
	}
	rec := k2.procs[pid]
	k2.GiveControl(pid, msg.OpKill, nil)
	k2.GiveMessageTo(addr.At(pid, 2), addr.At(addr.ProcessID{Creator: 1, Local: 5}, 1), []byte("after the kill"))
	for rec.queue.Len() < 2 {
		if !e.Step() || rec.state != StateIncoming {
			t.Fatal("kill not held on the incoming process")
		}
	}
	e.Run()

	ex, ok := k2.Exit(pid)
	if !ok || ex.Err == nil || ex.Code != -1 {
		t.Fatalf("Exit = %+v, %v; want a kill on the destination", ex, ok)
	}
	if _, ok := k2.Process(pid); ok {
		t.Fatal("killed process restarted after step 8")
	}
	if k2.runq.Len() != 0 {
		t.Fatal("dead record left on the run queue")
	}
	if rec.id != pid || rec.state != StateDead || inProcFree(k2, rec) {
		t.Fatalf("held record recycled: id=%v state=%v free=%v", rec.id, rec.state, inProcFree(k2, rec))
	}
	if s := k2.Stats(); s.Exited+s.Crashes != 1 || s.MigrationsIn != 1 {
		t.Fatalf("stats: exited %d crashes %d migrations-in %d", s.Exited, s.Crashes, s.MigrationsIn)
	}
	checkPoolKernels(t, ks, pid)
}

// TestPoolSpawnReusesCleanRecord: a record released with every field a
// process can dirty — links, queue backing, per-peer counters, migration
// and forwarder state — comes back from Spawn as a brand-new process.
func TestPoolSpawnReusesCleanRecord(t *testing.T) {
	_, ks := poolTestCluster(t, 1)
	k := ks[0]
	p := k.getProcRec()
	p.id = addr.ProcessID{Creator: 9, Local: 9}
	p.state = StateForwarder
	p.prevState = StateSuspended
	p.kind = "stale"
	p.links = k.getTable()
	for i := 0; i < 5; i++ {
		if _, err := p.links.Insert(link.Link{Addr: addr.At(addr.ProcessID{Creator: 3, Local: addr.LocalUID(i + 1)}, 3)}); err != nil {
			t.Fatal(err)
		}
	}
	oldTable := p.links
	p.queue.push(&msg.Message{})
	p.queue.pop()
	p.privileged = true
	p.cameFrom = 4
	p.timeoutCommit = true
	p.fwdTo = 5
	p.obsRec = &obs.MigrationRecord{}
	p.fwdSenders = map[addr.ProcessID]uint64{{Creator: 3, Local: 1}: 2}
	p.cpuUsed, p.cpuDelta, p.msgsIn, p.msgsOut, p.msgsDelta, p.queueHighWater = 1, 2, 3, 4, 5, 6
	p.newCommDelta()
	p.commDelta[3] = 7
	k.putProcRec(p)

	want := link.Link{Addr: addr.At(addr.ProcessID{Creator: 2, Local: 1}, 2)}
	pid, err := k.Spawn(SpawnSpec{Body: &poolDrainBody{}, Links: []link.Link{want}})
	if err != nil {
		t.Fatal(err)
	}
	q := k.procs[pid]
	if q != p {
		t.Fatal("Spawn did not reuse the released record")
	}
	if q.links != oldTable {
		t.Fatal("Spawn did not reuse the released link table")
	}
	if q.links.Len() != 1 {
		t.Fatalf("reused table holds %d links, want 1", q.links.Len())
	}
	if l, ok := q.links.Get(1); !ok || l != want {
		t.Fatalf("link 1 = %v %v, want %v", l, ok, want)
	}
	for id := link.ID(2); id <= 5; id++ {
		if _, ok := q.links.Get(id); ok {
			t.Fatalf("stale link %v visible after reuse", id)
		}
	}
	if q.queue.Len() != 0 || len(q.commDelta) != 0 {
		t.Fatalf("stale queue (%d) or commDelta (%v)", q.queue.Len(), q.commDelta)
	}
	if q.cameFrom != 0 || q.obsRec != nil || q.fwdSenders != nil || q.timeoutCommit || q.migHeld {
		t.Fatalf("stale migration state: cameFrom=%v obsRec=%v fwdSenders=%v timeoutCommit=%v migHeld=%v",
			q.cameFrom, q.obsRec, q.fwdSenders, q.timeoutCommit, q.migHeld)
	}
	if q.fwdTo != 0 || q.privileged || q.prevState != 0 || q.kind != "pool-drain" || q.state != StateReady {
		t.Fatalf("stale identity: fwdTo=%v privileged=%v prevState=%v kind=%q state=%v",
			q.fwdTo, q.privileged, q.prevState, q.kind, q.state)
	}
	if q.cpuUsed != 0 || q.cpuDelta != 0 || q.msgsIn != 0 || q.msgsOut != 0 || q.msgsDelta != 0 || q.queueHighWater != 0 {
		t.Fatal("stale accounting on the reused record")
	}
}

// TestPoolTimerAfterExit: a timer whose process exited before it fired is
// a dead letter, counted once as before timers were pooled; its record
// returns to the free list and its envelope to the pool.
func TestPoolTimerAfterExit(t *testing.T) {
	e, ks := poolTestCluster(t, 1)
	k := ks[0]
	pid, err := k.Spawn(SpawnSpec{Body: poolTimerExitBody{}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if ex, ok := k.Exit(pid); !ok || ex.Code != 3 {
		t.Fatalf("Exit = %+v, %v", ex, ok)
	}
	s := k.Stats()
	if s.DeadLetters != 1 || s.Exited != 1 || s.MsgsRouted != 1 || s.MsgsEnqueued != 0 {
		t.Fatalf("stats: dead letters %d exited %d routed %d enqueued %d; want 1 1 1 0",
			s.DeadLetters, s.Exited, s.MsgsRouted, s.MsgsEnqueued)
	}
	if k.timerFree == nil || k.timerN != 1 {
		t.Fatalf("timer record not released: free=%v n=%d", k.timerFree, k.timerN)
	}
	if news, free, held := k.PoolStats(); news != free || held != 0 {
		t.Fatalf("timer envelope not released: news %d free %d held %d", news, free, held)
	}
}
