package netw

// Observability wiring for the network: the flat counter arrays stay the
// single owner of every wire-level number (frames, wire bytes, drops,
// retransmits — see the ownership note on kernel.Stats); RegisterObs makes
// the registry read them live at snapshot time through sampler closures.
// The one registry-owned metric is the frame-size histogram fed from
// account behind a nil check, so an un-instrumented network pays nothing
// and an instrumented one pays a bits.Len64.

import (
	"strconv"

	"demosmp/internal/msg"
	"demosmp/internal/obs"
)

// RegisterObs registers the network's wire-level counters under "netw.*"
// and attaches the frame-size histogram. Call once, after every machine
// has been attached: per-machine rows are registered for the machines
// known at call time.
func (n *Network) RegisterObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c := &n.stats
	reg.Sample("netw.frames", func() uint64 { return c.frames })
	reg.Sample("netw.bytes", func() uint64 { return c.bytes })
	reg.Sample("netw.delivered", func() uint64 { return c.delivered })
	reg.Sample("netw.dropped", func() uint64 { return c.dropped })
	reg.Sample("netw.retransmits", func() uint64 { return c.retransmits })
	reg.Sample("netw.duplicates", func() uint64 { return c.duplicates })
	reg.Sample("netw.dead", func() uint64 { return c.dead })
	reg.Sample("netw.send_from_down", func() uint64 { return c.sendFromDown })
	reg.Sample("netw.partition_dropped", func() uint64 { return c.partitionDropped })
	reg.Sample("netw.burst_dropped", func() uint64 { return c.burstDropped })
	reg.Sample("netw.dup_injected", func() uint64 { return c.dupInjected })
	reg.Sample("netw.delay_injected", func() uint64 { return c.delayInjected })
	reg.Sample("netw.orphan_dropped", func() uint64 { return c.orphanDropped })
	for i := 0; i < msg.KindCount; i++ {
		kind := msg.Kind(i)
		reg.Sample("netw.frames."+kind.String(), func() uint64 { return c.byKind[kind] })
		reg.Sample("netw.bytes."+kind.String(), func() uint64 { return c.bytesByKind[kind] })
	}
	// Machine IDs are dense 1..N in a composed cluster; the dense
	// perMachine slice is pre-sized by Attach (and, in a sharded cluster,
	// by SetShard to the whole cluster — a shard accounts FramesIn for
	// remote receivers, so every shard registers every machine's rows and
	// merged snapshots sum to cluster totals). Each sampler still guards
	// its index defensively.
	for m := 1; m < len(n.stats.perMachine); m++ {
		m := m
		mp := "netw.m" + strconv.Itoa(m) + "."
		reg.Sample(mp+"frames_out", func() uint64 {
			if m < len(c.perMachine) {
				return c.perMachine[m].FramesOut
			}
			return 0
		})
		reg.Sample(mp+"frames_in", func() uint64 {
			if m < len(c.perMachine) {
				return c.perMachine[m].FramesIn
			}
			return 0
		})
		reg.Sample(mp+"bytes_out", func() uint64 {
			if m < len(c.perMachine) {
				return c.perMachine[m].BytesOut
			}
			return 0
		})
		reg.Sample(mp+"bytes_in", func() uint64 {
			if m < len(c.perMachine) {
				return c.perMachine[m].BytesIn
			}
			return 0
		})
	}
	n.hFrame = reg.Histogram("netw.frame_bytes")
}
