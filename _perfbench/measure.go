package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
)

// Go runtime counters the benchmark reads. All are cumulative except
// heapLive, which the runtime refreshes at the end of every GC cycle.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mHeapLive   = "/gc/heap/live:bytes"
)

// rtSample is one read of the runtime counters above.
type rtSample struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func heapLive() uint64 {
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch records the largest /gc/heap/live:bytes seen at GC ends. A
// sentinel object with a finalizer is collected by every cycle; its
// finalizer reads the live-heap figure the cycle just published and arms
// the next sentinel, so the watch costs one small allocation per GC.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

// sentinel holds a pointer so it never lands in the tiny allocator, whose
// shared blocks would delay its finalizer.
type sentinel struct{ w *heapWatch }

func startHeapWatch() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{w: w}, func(s *sentinel) {
		s.w.note(heapLive())
		if !s.w.stopped.Load() {
			s.w.arm()
		}
	})
}

func (w *heapWatch) note(v uint64) {
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop ends the watch. It returns the largest live heap seen at a GC end
// since the start, and the live heap marked by one last forced collection
// with the world quiet. The first includes objects allocated while a
// concurrent cycle was marking, so it moves with GC timing; the second is
// exact for a deterministic program.
func (w *heapWatch) stop() (peak, final uint64) {
	w.stopped.Store(true)
	runtime.GC()
	final = heapLive()
	w.note(final)
	return w.peak.Load(), final
}

// median of xs (which it sorts); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the p-th percentile of sorted samples of a whole
// number of µs. Each sample stands for the interval [v-0.5, v+0.5), and the
// percentile is interpolated inside the interval holding rank p/100 × n.
// With hundreds of thousands of samples, a nearest-rank median lands on
// the same whole µs for every seed; the interpolated one still shows how
// the samples moved.
func percentile(sorted []uint64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := p / 100 * float64(n)
	i := int(math.Ceil(r)) - 1
	if i < 0 {
		i = 0
	}
	v := sorted[i]
	lo := sort.Search(n, func(j int) bool { return sorted[j] >= v })
	hi := sort.Search(n, func(j int) bool { return sorted[j] > v })
	return float64(v) - 0.5 + (r-float64(lo))/float64(hi-lo)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix is the benchmark's own seeded generator: inputs must depend only
// on --seed, never on the simulation's engine RNG (which is per shard).
type splitmix struct{ s uint64 }

func newSplitmix(seed int64, salt uint64) splitmix {
	return splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 ^ salt*0xda942042e4dd58b5}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (r *splitmix) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }
