// Package obs is the cluster observability plane: a deterministic metrics
// registry, the per-migration cost ledger (§6), and exporters (text/JSON
// snapshots, Chrome trace_event timelines).
//
// Design rules, in priority order:
//
//  1. Zero allocations on the hot path. Owners count in plain uint64
//     fields and fixed arrays, and histogram buckets are a fixed array
//     updated by pointer; no maps, no locks, no interfaces anywhere a
//     per-message code path can reach. Everything else — registration,
//     snapshotting, export — is cold and may allocate freely.
//  2. Exactly one source per value. The kernel and netw stats structs are
//     plain values and the only live copy of their counters; each owner
//     registers one Source that writes all of its metrics when a snapshot
//     is taken, with names built at that point, so a number can never
//     drift between "the struct" and "the registry", and registration
//     costs O(owners), not O(owners × fields).
//  3. Deterministic output. Snapshots are sorted by metric name and
//     rendered through explicit structs — no map iteration feeds an
//     exporter (demoslint maporder), so two same-seed runs emit
//     byte-identical bytes.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"

	"demosmp/internal/sim"
)

// HistBuckets is the number of power-of-two histogram buckets: bucket 0
// counts observations of exactly 0, bucket i (1..64) counts observations
// whose bit length is i, i.e. values in [2^(i-1), 2^i).
const HistBuckets = 65

// Histogram is a fixed-size power-of-two-bucket histogram. Observe is a
// bits.Len64 plus three increments — cheap enough for per-message paths.
// The histogram's owner holds it and writes it out from its Source.
type Histogram struct {
	count   uint64
	sum     uint64
	buckets [HistBuckets]uint64
}

// Observe records one value.
//
//demos:hotpath — fixed-array bucketing via bits.Len64, no bounds math on the heap: checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip and /netw-send with obs attached.
func (h *Histogram) Observe(v uint64) {
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Add folds o's observations into h (cold; sources merge per-shard
// histograms with it).
func (h *Histogram) Add(o *Histogram) {
	h.count += o.count
	h.sum += o.sum
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
}

// Writer receives the metrics of every Source during one Snapshot.
type Writer struct {
	metrics []Metric
}

// Counter writes a monotonic count.
func (w *Writer) Counter(name string, v uint64) {
	w.metrics = append(w.metrics, Metric{Name: name, Kind: "counter", Value: v})
}

// Gauge writes a level (pool occupancy, live forwarder bytes).
func (w *Writer) Gauge(name string, v uint64) {
	w.metrics = append(w.metrics, Metric{Name: name, Kind: "gauge", Value: v})
}

// Histogram writes h with its non-empty buckets; its value is the
// observation count.
func (w *Writer) Histogram(name string, h *Histogram) {
	out := Metric{Name: name, Kind: "histogram", Value: h.count, Count: h.count, Sum: h.sum}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		le := uint64(0)
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		out.Buckets = append(out.Buckets, Bucket{Le: le, N: n})
	}
	w.metrics = append(w.metrics, out)
}

// Registry is the cluster's list of metric sources: one per owner. It is
// built once at boot; registration and snapshots must not run concurrently
// with each other or with the simulation that mutates the owners (a
// cluster snapshots between rounds).
type Registry struct {
	sources []func(*Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Source registers fn, which writes every metric of one owner each time a
// snapshot is taken. The owner keeps the only live copy of each value.
func (r *Registry) Source(fn func(*Writer)) { r.sources = append(r.sources, fn) }

// Sources returns the number of registered sources.
func (r *Registry) Sources() int { return len(r.sources) }

// Bucket is one histogram bucket in a snapshot: N observations with
// values <= Le (Le = 2^i - 1; the zero bucket has Le = 0).
type Bucket struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// Metric is one rendered metric in a snapshot.
type Metric struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Value   uint64   `json:"value"`
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time rendering of every registered metric, sorted
// by name. It is plain data: safe to hold across further simulation.
type Snapshot struct {
	AtMicros uint64   `json:"at_us"`
	Metrics  []Metric `json:"metrics"`
}

// Snapshot runs every source (cold) and returns a name-sorted snapshot
// stamped with the given simulated time. Two sources writing one name is a
// wiring bug and panics.
func (r *Registry) Snapshot(at sim.Time) Snapshot {
	var w Writer
	for _, src := range r.sources {
		src(&w)
	}
	ms := w.metrics
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for i := 1; i < len(ms); i++ {
		if ms[i].Name == ms[i-1].Name {
			panic("obs: duplicate metric name " + ms[i].Name)
		}
	}
	return Snapshot{AtMicros: uint64(at), Metrics: ms}
}

// Get returns the metric with the given name, if present.
func (s Snapshot) Get(name string) (Metric, bool) {
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Name >= name })
	if i < len(s.Metrics) && s.Metrics[i].Name == name {
		return s.Metrics[i], true
	}
	return Metric{}, false
}

// Value returns the named metric's value, or 0 if absent.
func (s Snapshot) Value(name string) uint64 {
	m, _ := s.Get(name)
	return m.Value
}

// WriteText renders the snapshot as stable "name kind value" lines, one
// metric per line, histograms with count/sum/bucket columns.
func (s Snapshot) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# obs snapshot at t=%dus metrics=%d\n", s.AtMicros, len(s.Metrics))
	for _, m := range s.Metrics {
		if m.Kind == "histogram" {
			fmt.Fprintf(bw, "%s histogram count=%d sum=%d", m.Name, m.Count, m.Sum)
			for _, b := range m.Buckets {
				fmt.Fprintf(bw, " le%d=%d", b.Le, b.N)
			}
			fmt.Fprintln(bw)
			continue
		}
		fmt.Fprintf(bw, "%s %s %d\n", m.Name, m.Kind, m.Value)
	}
	return bw.Flush()
}

// WriteJSON renders the snapshot as indented JSON. Field order comes from
// the struct definitions and metric order from the name sort, so the bytes
// are deterministic.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
