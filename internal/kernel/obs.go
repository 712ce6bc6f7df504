package kernel

// Observability wiring: how one kernel reports into the cluster's obs
// plane. Registration is cold and happens once at boot (core.New) or in a
// test harness: one source per kernel, which writes every Stats field when
// a snapshot is taken. The only hot-path additions anywhere in the kernel
// are the nil-checked Histogram.Observe in enqueue and the nil-checked
// ledgerForward dispatch in forward — both guarded by TestHotPathZeroAlloc
// running with obs attached.

import (
	"strconv"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/obs"
)

// adminOps is the fixed order of the per-op admin rows: the nine
// administrative messages of §3.1 plus the abort used on fault paths.
var adminOps = []msg.Op{
	msg.OpMigrateRequest, msg.OpMigrateAsk, msg.OpMigrateAccept,
	msg.OpMigrateRefuse, msg.OpMoveDataReq, msg.OpMigrateEstablished,
	msg.OpMigrateCleanup, msg.OpMigrateDone, msg.OpMigrateAbort,
}

// SetObs attaches the observability plane to this kernel: reg (if non-nil)
// gains one source writing every Stats counter, the pool gauges and the
// kernel-owned delivery-latency histogram under "kernel.m<id>." (Stats
// stays the single owner; the source reads it live at snapshot time), and
// led (if non-nil) receives one MigrationRecord per completed outbound
// migration with post-completion forward/link-update attribution.
//
// Call at most once per registry: metric names are unique per machine.
func (k *Kernel) SetObs(reg *obs.Registry, led *obs.Ledger) {
	k.led = led
	if reg == nil {
		return
	}
	k.hLat = new(obs.Histogram)
	reg.Source(k.writeObs)
}

// writeObs is the kernel's obs source. Names are built here, at snapshot
// time, so registration allocates nothing per metric.
func (k *Kernel) writeObs(w *obs.Writer) {
	p := "kernel.m" + strconv.Itoa(int(k.machine)) + "."
	s := &k.stats
	for _, r := range []struct {
		name string
		v    uint64
	}{
		// Lifecycle and scheduling.
		{"spawned", s.Spawned},
		{"exited", s.Exited},
		{"crashes", s.Crashes},
		{"kills", s.Kills},
		{"slices", s.Slices},
		{"ctx_switches", s.CtxSwitches},
		{"cpu_busy_us", uint64(s.CPUBusy)},

		// Messaging.
		{"msgs_routed", s.MsgsRouted},
		{"msgs_enqueued", s.MsgsEnqueued},
		{"msgs_held", s.MsgsHeld},
		{"dead_letters", s.DeadLetters},

		// Forwarding (§4).
		{"forwarded", s.Forwarded},
		{"forwarded_pending", s.ForwardedPending},
		{"forwarders_installed", s.ForwardersInstalled},
		{"forwarders_reclaimed", s.ForwardersReclaimed},

		// Link updating (§5), coalesced batches included.
		{"link_updates_sent", s.LinkUpdatesSent},
		{"link_updates_applied", s.LinkUpdatesApplied},
		{"links_fixed", s.LinksFixed},
		{"link_update_batches_sent", s.LinkUpdateBatchesSent},
		{"link_updates_batched", s.LinkUpdatesBatched},
		{"link_update_batches_applied", s.LinkUpdateBatchesApplied},
		{"eager_updates_sent", s.EagerUpdatesSent},

		// Migration (§3, §6).
		{"migrations_out", s.MigrationsOut},
		{"migrations_in", s.MigrationsIn},
		{"migrations_refused", s.MigrationsRefused},
		{"migrations_failed", s.MigrationsFailed},
		{"revived", s.Revived},
		{"admin_bytes", s.AdminBytes},
		{"admin_total", s.AdminTotal()},

		// Move-data streams (protocol-level; netw owns the wire-level kinds).
		{"data_packets_sent", s.DataPacketsSent},
		{"data_bytes_sent", s.DataBytesSent},
		{"acks_sent", s.AcksSent},
		{"acks_received", s.AcksReceived},

		// Return-to-sender baseline and bounded buffers: the drop counters
		// surface here so capped-buffer overflow is never silent.
		{"bounced", s.Bounced},
		{"locate_requests", s.LocateRequests},
		{"resubmitted", s.Resubmitted},
		{"locate_dropped", s.LocateDropped},
		{"console_dropped", s.ConsoleDropped},

		// Fault plane.
		{"restarts", s.Restarts},
		{"crash_wiped_msgs", s.CrashWipedMsgs},
		{"crash_lost_procs", s.CrashLostProcs},
		{"checkpoints_saved", s.CheckpointsSaved},
		{"undeliverable", s.Undeliverable},
		{"dropped_while_crashed", s.DroppedWhileCrashed},
		{"search_forwards", s.SearchForwards},
		{"searches_sent", s.SearchesSent},
	} {
		w.Counter(p+r.name, r.v)
	}
	for _, op := range adminOps {
		w.Counter(p+"admin_sent."+op.String(), s.AdminSent[op])
	}
	w.Gauge(p+"forwarder_bytes", s.ForwarderBytes)

	// Envelope pool levels: the registry view of the conservation law
	// (news == free + held) the chaos invariant checker audits.
	news, free, held := k.PoolStats()
	w.Gauge(p+"pool_news", uint64(news))
	w.Gauge(p+"pool_free", uint64(free))
	w.Gauge(p+"pool_held", uint64(held))

	// User-message delivery latency (SentAt stamp to queue insertion) in
	// simulated µs.
	w.Histogram(p+"deliver_latency_us", k.hLat)
}

// ledgerRecord converts a completed source-side MigrationReport into the
// ledger's record form. The residual-dependency fields start at zero and
// grow through the pointer the forwarder keeps.
func ledgerRecord(rep MigrationReport) obs.MigrationRecord {
	return obs.MigrationRecord{
		PID: rep.PID, From: rep.From, To: rep.To,
		Start: rep.Start, End: rep.End,
		MoveDataTransfers: rep.MoveDataTransfers,
		ProgramBytes:      rep.ProgramBytes,
		ResidentBytes:     rep.ResidentBytes,
		SwappableBytes:    rep.SwappableBytes,
		DataPackets:       rep.DataPackets,
		AdminMsgs:         rep.AdminMsgs,
		AdminBytes:        rep.AdminBytes,
		AdminMinBytes:     rep.AdminMinBytes,
		AdminMaxBytes:     rep.AdminMaxBytes,
		PendingForwarded:  rep.PendingForwarded,
		OK:                rep.OK,
	}
}

// ledgerForward is the cold attribution half of forward: it charges a §4
// forward (and the §5 link update it will trigger) to the migration that
// left this forwarding address behind, and tracks the per-sender stale-send
// run length whose maximum is the §6 "convergence after 1–2 forwards"
// measurement. A sender's run stops growing once its link-update lands,
// because repaired senders stop arriving here at all.
func (k *Kernel) ledgerForward(f *Process, m *msg.Message) {
	rec := f.obsRec
	rec.ForwardsAbsorbed++
	if !k.shouldSendLinkUpdate(m) {
		return
	}
	rec.LinkUpdatesSent++
	if f.fwdSenders == nil {
		f.fwdSenders = make(map[addr.ProcessID]uint64)
	}
	f.fwdSenders[m.From.ID]++
	if n := f.fwdSenders[m.From.ID]; n > rec.ConvergenceForwards {
		rec.ConvergenceForwards = n
	}
}
