package netw

// Observability wiring for the network: Stats is the single owner of every
// wire-level number (frames, wire bytes, drops, retransmits — see the
// ownership note on kernel.Stats). RegisterObs adds one source that sums
// the Stats of a set of networks and writes it under "netw.*" at snapshot
// time. Each network owns a frame-size histogram fed from account behind a
// nil check, so an un-instrumented network pays nothing and an
// instrumented one pays a bits.Len64.

import (
	"strconv"

	"demosmp/internal/msg"
	"demosmp/internal/obs"
)

// RegisterObs registers one source writing the summed wire counters and
// frame-size histograms of nets under "netw.*", and arms each network's
// histogram. A sharded cluster passes every shard's network, so the rows
// are cluster totals; call once per registry.
func RegisterObs(reg *obs.Registry, nets ...*Network) {
	for _, n := range nets {
		n.hFrame = new(obs.Histogram)
	}
	reg.Source(func(w *obs.Writer) {
		var s Stats
		var h obs.Histogram
		for _, n := range nets {
			s.Add(&n.stats)
			h.Add(n.hFrame)
		}
		s.writeObs(w)
		w.Histogram("netw.frame_bytes", &h)
	})
}

// writeObs writes every field of s; names are built here, at snapshot time.
func (s *Stats) writeObs(w *obs.Writer) {
	w.Counter("netw.frames", s.Frames)
	w.Counter("netw.bytes", s.Bytes)
	w.Counter("netw.delivered", s.Delivered)
	w.Counter("netw.dropped", s.Dropped)
	w.Counter("netw.retransmits", s.Retransmits)
	w.Counter("netw.duplicates", s.Duplicates)
	w.Counter("netw.dead", s.Dead)
	w.Counter("netw.send_from_down", s.SendFromDown)
	w.Counter("netw.partition_dropped", s.PartitionDropped)
	w.Counter("netw.burst_dropped", s.BurstDropped)
	w.Counter("netw.dup_injected", s.DupInjected)
	w.Counter("netw.delay_injected", s.DelayInjected)
	w.Counter("netw.orphan_dropped", s.OrphanDropped)
	for k := 0; k < msg.KindCount; k++ {
		kind := msg.Kind(k).String()
		w.Counter("netw.frames."+kind, s.ByKind[k])
		w.Counter("netw.bytes."+kind, s.BytesByKind[k])
	}
	// Machine ids are dense 1..N; a sharded network's slice is pre-sized
	// to the whole cluster (SetShard), so every machine has a row.
	for m := 1; m < len(s.PerMachine); m++ {
		ms := &s.PerMachine[m]
		p := "netw.m" + strconv.Itoa(m) + "."
		w.Counter(p+"frames_out", ms.FramesOut)
		w.Counter(p+"frames_in", ms.FramesIn)
		w.Counter(p+"bytes_out", ms.BytesOut)
		w.Counter(p+"bytes_in", ms.BytesIn)
	}
}
