// Package netw simulates the inter-machine communication of DEMOS/MP.
//
// The paper assumes that "reliable message delivery is provided by some
// lower level mechanism, for example, published communications". This
// package is that lower level: frames between kernels experience a base
// latency plus a per-byte transmission cost, may be lost (when a loss rate
// is configured), and are recovered by a per-frame acknowledge/retransmit
// scheme with receiver-side deduplication, so the guarantee the kernels see
// is the paper's: "any message sent will eventually be delivered".
//
// Every frame, lossless or lossy, takes one path: a per-network pending
// min-heap drained by a gate pump (canon.go), so delivery order at equal
// timestamps is canonical and identical for any shard layout. The lossless
// send path is allocation-free in steady state: per-kind and per-machine
// counters are fixed-size arrays and a dense slice in the plain-value Stats,
// and the pending heap reuses its backing array — see bench_hotpath_test.go
// for the zero-alloc guards.
package netw

import (
	"fmt"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/obs"
	"demosmp/internal/sim"
)

// Config sets the network model parameters. Defaults approximate the
// paper's era: a few-Mbit LAN between Z8000-class machines.
type Config struct {
	// Latency is the fixed per-frame propagation+processing delay.
	Latency sim.Time
	// PerByteNanos is the transmission cost per byte, in nanoseconds.
	PerByteNanos uint32
	// LossRate is the probability a frame (or its network-level ack) is
	// dropped. Zero disables the ARQ machinery entirely.
	LossRate float64
	// RetransTimeout is how long the sender waits for a network-level
	// ack before retransmitting.
	RetransTimeout sim.Time
	// MaxRetries bounds retransmissions; afterwards the frame is handed
	// to the undeliverable callback (e.g. the destination crashed).
	MaxRetries int
	// PairLatency, when set, replaces the uniform Latency with a
	// per-machine-pair propagation delay — a heterogeneous topology
	// (the per-byte transmission cost still applies on top). It must be
	// symmetric if the experiment assumes it, and every pair must be at
	// least 1µs: the minimum is a cluster's conservative lookahead window.
	PairLatency func(a, b addr.MachineID) sim.Time
}

// DefaultConfig returns the standard parameters: 500µs latency,
// ~2.7µs/byte (≈3 Mbit/s), lossless.
func DefaultConfig() Config {
	return Config{
		Latency:        500,
		PerByteNanos:   2700,
		RetransTimeout: 20000,
		MaxRetries:     30,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.Latency == 0 {
		c.Latency = d.Latency
	}
	if c.PerByteNanos == 0 {
		c.PerByteNanos = d.PerByteNanos
	}
	if c.RetransTimeout == 0 {
		c.RetransTimeout = d.RetransTimeout
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = d.MaxRetries
	}
}

// Endpoint receives frames addressed to a machine; kernels implement it.
type Endpoint interface {
	DeliverFrame(m *msg.Message)
}

// Stats aggregates network activity. Per-kind counters let the experiments
// separate administrative traffic from data streams and link updates. It
// is a plain value and the live counters themselves: the send path bumps
// fixed arrays and a dense per-machine slice, Network.Stats returns a copy.
type Stats struct {
	Frames      uint64
	Bytes       uint64
	Delivered   uint64
	Dropped     uint64 // frames lost to the configured loss rate
	Retransmits uint64
	Duplicates  uint64 // retransmissions suppressed at the receiver
	Dead        uint64 // frames abandoned after MaxRetries

	// Fault-injection accounting (see fault.go). Every dropped frame is
	// both counted here and handed to the undeliverable sink, so dead
	// letters balance cluster-wide.
	SendFromDown     uint64 // sends attempted by a crashed machine
	PartitionDropped uint64 // lossless frames severed by a partition
	BurstDropped     uint64 // lossless frames lost to a loss burst
	DupInjected      uint64 // duplicate wire copies injected
	DelayInjected    uint64 // frames given extra transit (reordering)
	OrphanDropped    uint64 // abandoned frames with no reachable owner (sharded: sender on another shard)

	ByKind      [msg.KindCount]uint64 // frames, indexed by msg.Kind
	BytesByKind [msg.KindCount]uint64 // wire bytes, indexed by msg.Kind
	PerMachine  []MachineStats        // indexed by machine id; entry 0 unused
}

// MachineStats counts a single machine's network activity.
type MachineStats struct {
	FramesOut, FramesIn uint64
	BytesOut, BytesIn   uint64
}

// machine returns the dense slot for m, growing the slice on first sight.
func (s *Stats) machine(m addr.MachineID) *MachineStats {
	if int(m) >= len(s.PerMachine) {
		grown := make([]MachineStats, int(m)+1)
		copy(grown, s.PerMachine)
		s.PerMachine = grown
	}
	return &s.PerMachine[m]
}

// Add sums o into s, field by field. Per-machine rows sum too: in a sharded
// cluster a shard accounts FramesIn for the remote machines it sends to, so
// only the sum over every shard's network is the cluster's row.
func (s *Stats) Add(o *Stats) {
	s.Frames += o.Frames
	s.Bytes += o.Bytes
	s.Delivered += o.Delivered
	s.Dropped += o.Dropped
	s.Retransmits += o.Retransmits
	s.Duplicates += o.Duplicates
	s.Dead += o.Dead
	s.SendFromDown += o.SendFromDown
	s.PartitionDropped += o.PartitionDropped
	s.BurstDropped += o.BurstDropped
	s.DupInjected += o.DupInjected
	s.DelayInjected += o.DelayInjected
	s.OrphanDropped += o.OrphanDropped
	for k := range o.ByKind {
		s.ByKind[k] += o.ByKind[k]
		s.BytesByKind[k] += o.BytesByKind[k]
	}
	if len(o.PerMachine) > 0 {
		s.machine(addr.MachineID(len(o.PerMachine) - 1))
	}
	for m, ms := range o.PerMachine {
		agg := &s.PerMachine[m]
		agg.FramesOut += ms.FramesOut
		agg.FramesIn += ms.FramesIn
		agg.BytesOut += ms.BytesOut
		agg.BytesIn += ms.BytesIn
	}
}

// dedupWindow bounds the per-pair receiver dedup state. A duplicate can
// only arrive within MaxRetries*RetransTimeout of the original, so a window
// of recent ids is enough; anything older has aged out of the ring.
const dedupWindow = 1024

// dedup is a bounded ring of the most recently delivered frame ids for one
// (from, to) pair, with a set for O(1) membership. Insertion past the
// window evicts the oldest id, so the state can never grow beyond
// dedupWindow entries per pair no matter how long loss is sustained.
//
// Pairs are sparse: state is created on a pair's first arrival, stamped on
// every use, and evicted back to a free pool once the pair has been idle
// longer than any duplicate could survive (sweepDedup). On a 1000-machine
// topology the map therefore tracks O(active pairs), never O(n²) — see
// TestDedupStateBoundedLargeTopology.
type dedup struct {
	ring [dedupWindow]uint64
	n    int // filled entries, ≤ dedupWindow
	pos  int // next overwrite position once full
	set  map[uint64]struct{}
	last sim.Time // sim time of the pair's most recent arrival
	next *dedup   // free-pool linkage while evicted
}

func newDedup() *dedup {
	return &dedup{set: make(map[uint64]struct{}, dedupWindow)}
}

// reset clears the ring and set in place (no reallocation) so the struct
// can be recycled for a different pair. The ring's first n slots hold
// exactly the set's members, so the set is emptied without ranging over it.
func (d *dedup) reset() {
	for i := 0; i < d.n; i++ {
		delete(d.set, d.ring[i])
	}
	d.n, d.pos, d.last = 0, 0, 0
}

func (d *dedup) seen(id uint64) bool {
	_, dup := d.set[id]
	return dup
}

func (d *dedup) add(id uint64) {
	if d.n < dedupWindow {
		d.ring[d.n] = id
		d.n++
	} else {
		delete(d.set, d.ring[d.pos])
		d.ring[d.pos] = id
		d.pos++
		if d.pos == dedupWindow {
			d.pos = 0
		}
	}
	d.set[id] = struct{}{}
}

// size reports the tracked-id count (tests assert boundedness).
func (d *dedup) size() int { return len(d.set) }

// Network connects the machines of a cluster. A network built by New treats
// every attached machine as local; SetShard joins it to a sharded cluster,
// whose other machines it reaches through a ship hook.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	eps   []Endpoint // indexed by machine id; nil = not attached here
	down  map[addr.MachineID]bool
	stats Stats

	// ARQ receiver state, only used when LossRate > 0. delivered is
	// sparse (first arrival creates a pair's state) and bounded (idle
	// pairs are swept back into dedupFree), so long runs on large
	// topologies stay O(active pairs).
	delivered map[pair]*dedup
	dedupFree *dedup // pool of evicted, reset dedup states
	arrivals  uint64 // arrive() calls, drives the amortized sweep

	// Delivery state — canon.go. Every frame goes through the pending
	// heap + gate pump (attached targets) or the ship hook (machines on
	// other shards of a sharded cluster).
	total   addr.MachineID    // cluster size when sharded; 0 = standalone
	ship    func(RemoteFrame) // cross-shard hook; nil = standalone
	sendSeq []uint64          // per-sending-machine dense frame sequence
	pend    []pendEnt         // binary min-heap keyed (at, to, from, seq, class, attempt)
	pumpFn  func()            // bound once; fires pending deliveries due now

	// Machine-anchored ARQ state (arq.go), armed when LossRate > 0.
	// inflight is keyed by shard-invariant frame id (sender machine << 48
	// | per-sender seq); every flight lives on the sending machine's own
	// network. arqSeed keys the hash-based loss draws (SetShard).
	arqOn    bool
	arqSeed  uint64
	inflight map[uint64]*arqFlight

	// Fault-injection state (fault.go). faulty is the single hot-path
	// guard: it is true only while some injected condition could alter a
	// send, so the annotated fast path pays one boolean test when the
	// fault plane is idle.
	faulty    bool
	parts     map[pair]struct{} // severed pairs, normalized from<to
	burstRate float64
	burstEnd  sim.Time
	dupNext   map[pair]int      // directional: duplicate the next n frames
	delayNext map[pair]sim.Time // directional: extra transit for next frame

	// Frame ownership (fault.go): per-machine sinks that receive released
	// and undeliverable envelopes, captured at Attach time.
	owners    map[addr.MachineID]FrameOwner
	sinkQ     []sinkItem
	sinkArmed bool
	sinkFn    func()

	// OnDead receives frames abandoned after MaxRetries (typically
	// because the destination machine is down). When nil, abandoned
	// frames go to the sending machine's FrameOwner instead (fault.go).
	OnDead func(to addr.MachineID, m *msg.Message)

	// Observability (obs.go): the network-owned frame-size histogram, nil
	// until RegisterObs; account touches it behind one nil check.
	hFrame *obs.Histogram
}

type pair struct{ from, to addr.MachineID }

// New creates a standalone network driven by eng: every attached machine
// is local. With LossRate > 0 the machine-anchored ARQ is armed.
func New(eng *sim.Engine, cfg Config) *Network {
	cfg.fillDefaults()
	n := &Network{
		eng:       eng,
		cfg:       cfg,
		down:      make(map[addr.MachineID]bool),
		delivered: make(map[pair]*dedup),
		parts:     make(map[pair]struct{}),
		dupNext:   make(map[pair]int),
		delayNext: make(map[pair]sim.Time),
		owners:    make(map[addr.MachineID]FrameOwner),
	}
	n.sinkFn = n.runSink
	n.pumpFn = n.pump
	if cfg.LossRate > 0 {
		n.arqOn = true
		n.inflight = make(map[uint64]*arqFlight)
	}
	return n
}

// Config returns the active configuration.
func (n *Network) Config() Config { return n.cfg }

// Lossy reports whether frames can be dropped and retransmitted (the ARQ
// is armed). Pooled envelopes are safe on a lossy network: the ARQ never
// retains them — Send copies a pooled envelope to the heap for delivery
// and retransmission and retires the original to its owner (fault.go).
func (n *Network) Lossy() bool { return n.cfg.LossRate > 0 }

// Attach registers the endpoint for machine m. An endpoint that also
// implements FrameOwner becomes the sink for envelopes this machine sent
// that the network consumed (retired pooled originals) or abandoned
// (partition, crash, retries exhausted).
func (n *Network) Attach(m addr.MachineID, ep Endpoint) {
	if n.attached(m) {
		panic(fmt.Sprintf("netw: machine %v attached twice", m))
	}
	n.grow(m)
	n.eps[m] = ep
	if o, ok := ep.(FrameOwner); ok {
		n.owners[m] = o
	}
	n.stats.machine(m) // pre-size the dense per-machine counters
}

// grow sizes the dense per-machine slices to hold machine m.
func (n *Network) grow(m addr.MachineID) {
	if int(m) >= len(n.eps) {
		eps := make([]Endpoint, int(m)+1)
		copy(eps, n.eps)
		n.eps = eps
	}
	if int(m) >= len(n.sendSeq) {
		seq := make([]uint64, int(m)+1)
		copy(seq, n.sendSeq)
		n.sendSeq = seq
	}
}

// attached reports whether machine m's endpoint lives on this network.
func (n *Network) attached(m addr.MachineID) bool {
	return int(m) < len(n.eps) && n.eps[m] != nil
}

// SetDown marks a machine as crashed (true) or recovered (false). Frames to
// a down machine are lost; the ARQ keeps retrying until MaxRetries.
func (n *Network) SetDown(m addr.MachineID, down bool) { n.down[m] = down }

// Down reports whether machine m is marked crashed.
func (n *Network) Down(m addr.MachineID) bool { return n.down[m] }

// Stats returns a copy of the accumulated counters.
func (n *Network) Stats() Stats {
	s := n.stats
	s.PerMachine = append([]MachineStats(nil), n.stats.PerMachine...)
	return s
}

// TransitTime returns the modeled one-way time for a frame of size bytes
// over a default-latency hop (pair-specific latency, if configured, is
// applied at Send time).
func (n *Network) TransitTime(size int) sim.Time {
	return n.cfg.Latency + sim.Time(uint64(size)*uint64(n.cfg.PerByteNanos)/1000)
}

// transit returns the one-way time between a specific pair.
func (n *Network) transit(from, to addr.MachineID, size int) sim.Time {
	lat := n.cfg.Latency
	if n.cfg.PairLatency != nil {
		lat = n.cfg.PairLatency(from, to)
	}
	return lat + sim.Time(uint64(size)*uint64(n.cfg.PerByteNanos)/1000)
}

// Send transmits m from machine 'from' to machine 'to'. Delivery is
// asynchronous; with a configured loss rate the frame is retransmitted
// until acknowledged. Sending from a down machine drops the frame into the
// undeliverable accounting path (a crashed kernel cannot transmit, but the
// loss must not be silent).
//
//demos:hotpath — the lossless path must stay allocation-free: checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send and BenchmarkNetwSend in bench_hotpath_test.go.
func (n *Network) Send(from, to addr.MachineID, m *msg.Message) {
	if from == to {
		panicLocalSend(from, to)
	}
	if !n.attached(to) && (to == 0 || to > n.total) {
		// Machines on other shards have no local endpoint; any id within
		// a sharded cluster is routable.
		panicNoEndpoint(to)
	}
	if n.down[from] {
		n.dropFromDown(from, to, m)
		return
	}
	if n.faulty {
		n.sendFaulty(from, to, m)
		return
	}
	size := m.WireSize()
	n.account(from, to, m, size)
	if n.arqOn {
		n.canonSendARQ(from, to, m, size, 0, false)
		return
	}
	n.canonSend(from, to, m, size, 0)
}

// panicLocalSend and panicNoEndpoint keep fmt's formatting machinery (and
// its interface boxing) off the annotated Send hot path; they run only on
// programming errors.
func panicLocalSend(from, to addr.MachineID) {
	panic(fmt.Sprintf("netw: local send %v->%v must not use the network", from, to))
}

func panicNoEndpoint(to addr.MachineID) {
	panic(fmt.Sprintf("netw: no endpoint for machine %v", to))
}

//demos:hotpath — flat-array counters, no map writes: checked by demoslint (hotpathalloc) and TestHotPathZeroAlloc/netw-send.
func (n *Network) account(from, to addr.MachineID, m *msg.Message, size int) {
	c := &n.stats
	c.Frames++
	c.Bytes += uint64(size)
	if k := int(m.Kind); k < msg.KindCount {
		c.ByKind[k]++
		c.BytesByKind[k] += uint64(size)
	}
	fs := c.machine(from)
	fs.FramesOut++
	fs.BytesOut += uint64(size)
	ts := c.machine(to)
	ts.FramesIn++
	ts.BytesIn += uint64(size)
	if n.hFrame != nil {
		n.hFrame.Observe(uint64(size))
	}
}

//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send in bench_hotpath_test.go.
func (n *Network) deliver(to addr.MachineID, m *msg.Message) {
	if n.down[to] {
		n.dropToDown(to, m)
		return
	}
	n.stats.Delivered++
	n.eps[to].DeliverFrame(m)
}

// dedupSize reports the receiver dedup state tracked for a pair (test hook).
func (n *Network) dedupSize(from, to addr.MachineID) int {
	if d := n.delivered[pair{from, to}]; d != nil {
		return d.size()
	}
	return 0
}

// dedupPairs reports how many pairs currently hold dedup state (test hook
// for the O(active pairs) bound).
func (n *Network) dedupPairs() int { return len(n.delivered) }

// dedupPooled reports how many evicted dedup states sit in the free pool
// (test hook).
func (n *Network) dedupPooled() int {
	c := 0
	for d := n.dedupFree; d != nil; d = d.next {
		c++
	}
	return c
}

// dedupSweepEvery amortizes idle-pair eviction: one sweep per this many
// arrivals keeps the scan cost negligible against delivery work.
const dedupSweepEvery = 256

// dedupRetention is how long an idle pair's dedup state must be kept: no
// duplicate can trail the original by more than the full retry budget, so
// twice that is a safe eviction horizon.
func (n *Network) dedupRetention() sim.Time {
	return 2 * n.cfg.RetransTimeout * sim.Time(n.cfg.MaxRetries)
}

// sweepDedup evicts dedup state for pairs idle past the retention horizon,
// recycling the structs through the free pool. Keys are collected and
// sorted before mutation so the pool's ordering stays deterministic.
func (n *Network) sweepDedup() {
	ret := n.dedupRetention()
	now := n.eng.Now()
	if now <= ret {
		return
	}
	cutoff := now - ret
	var idle []pair
	for k, d := range n.delivered {
		if d.last < cutoff {
			idle = append(idle, k)
		}
	}
	if len(idle) == 0 {
		return
	}
	sort.Slice(idle, func(i, j int) bool {
		if idle[i].from != idle[j].from {
			return idle[i].from < idle[j].from
		}
		return idle[i].to < idle[j].to
	})
	for _, k := range idle {
		d := n.delivered[k]
		d.reset()
		d.next = n.dedupFree
		n.dedupFree = d
		delete(n.delivered, k)
	}
}

// getDedup pops a recycled dedup state or builds a fresh one.
func (n *Network) getDedup() *dedup {
	if d := n.dedupFree; d != nil {
		n.dedupFree = d.next
		d.next = nil
		return d
	}
	return newDedup()
}

// arrive lands one ARQ frame copy at the receiver, suppressing duplicate
// ids (retransmissions and injected duplicates alike). Returns whether the
// frame was actually delivered.
func (n *Network) arrive(from, to addr.MachineID, m *msg.Message, id uint64) bool {
	n.arrivals++
	if n.arrivals%dedupSweepEvery == 0 {
		n.sweepDedup()
	}
	key := pair{from, to}
	seen := n.delivered[key]
	if seen == nil {
		seen = n.getDedup()
		n.delivered[key] = seen
	}
	seen.last = n.eng.Now()
	if seen.seen(id) {
		n.stats.Duplicates++
		return false
	}
	seen.add(id)
	n.deliver(to, m)
	return true
}
