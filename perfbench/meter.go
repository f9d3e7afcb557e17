package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// Runtime metrics the meter reads. All are cumulative except the heap
// goal and the live heap.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mIdleCPU  = "/cpu/classes/idle:cpu-seconds"
	mGoal     = "/gc/heap/goal:bytes"
	mLive     = "/gc/heap/live:bytes"
)

// counters is one reading of the process-wide figures a meter
// differences.
type counters struct {
	cpu            time.Duration // user + system CPU of the whole process
	allocBytes     uint64
	gcCPU, busyCPU float64 // seconds; busy excludes the scheduler's idle time
}

func readRuntime(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func readCounters() counters {
	var ru syscall.Rusage
	//thorlint:allow no-unchecked-error Getrusage(RUSAGE_SELF) cannot fail with a valid pointer
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := readRuntime(mAllocs, mGCCPU, mTotalCPU, mIdleCPU)
	return counters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		busyCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// meter accumulates wall time, CPU, allocation and GC CPU over one or
// more timed segments, and the largest GC heap goal seen while a segment
// is open.
type meter struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	gcCPU   float64
	busyCPU float64

	t0 time.Time
	c0 counters
	gc *gcWatch
}

func newMeter() *meter { return &meter{gc: watchGC()} }

func (m *meter) begin() {
	m.gc.active.Store(true)
	m.gc.sample()
	m.c0 = readCounters()
	m.t0 = time.Now()
}

func (m *meter) end() {
	wall := time.Since(m.t0)
	c := readCounters()
	m.gc.sample()
	m.gc.active.Store(false)
	m.wall += wall
	m.cpu += c.cpu - m.c0.cpu
	m.alloc += c.allocBytes - m.c0.allocBytes
	m.gcCPU += c.gcCPU - m.c0.gcCPU
	m.busyCPU += c.busyCPU - m.c0.busyCPU
}

// close stops the GC watch.
func (m *meter) close() { m.gc.stop.Store(true) }

// peakHeapMB is the largest GC heap goal seen in the timed segments. The
// pacer schedules each GC cycle to end as the heap reaches the goal, so
// the largest goal is the heap's peak; it is read once per GC cycle, not
// on a timer.
func (m *meter) peakHeapMB() float64 { return float64(m.gc.maxGoal.Load()) / (1 << 20) }

// gcShare is the GC's share of the CPU the process used while timed.
func (m *meter) gcShare() float64 { return ratio(m.gcCPU, m.busyCPU) }

// opMetrics renders the per-operation cost metrics shared by every
// workload.
func (m *meter) opMetrics(ops int) []metric {
	return []metric{
		{Name: "cpu_ms_per_op", Value: ratio(float64(m.cpu)/1e6, float64(ops)), Unit: "ms", Samples: ops, Note: "process user+sys CPU"},
		{Name: "alloc_kb_per_op", Value: ratio(float64(m.alloc)/1024, float64(ops)), Unit: "KiB", Samples: ops, Note: "heap bytes allocated, whole process"},
		{Name: "heap_peak_mb", Value: m.peakHeapMB(), Unit: "MiB", Samples: 1, Note: "largest GC heap goal while timed"},
	}
}

// gcWatch samples the heap goal at the end of every GC cycle through a
// finalizer that re-arms itself.
type gcWatch struct {
	active  atomic.Bool
	stop    atomic.Bool
	maxGoal atomic.Uint64
}

// gcSentinel is large enough to bypass the tiny allocator, whose blocks
// batch several objects and delay their finalizers.
type gcSentinel struct{ _ [32]byte }

func watchGC() *gcWatch {
	w := &gcWatch{}
	w.arm()
	return w
}

func (w *gcWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		if w.active.Load() {
			w.sample()
		}
		if !w.stop.Load() {
			w.arm()
		}
	})
}

func (w *gcWatch) sample() {
	g := readRuntime(mGoal)[0].Value.Uint64()
	for {
		cur := w.maxGoal.Load()
		if g <= cur || w.maxGoal.CompareAndSwap(cur, g) {
			return
		}
	}
}

// liveHeapMB forces a GC and returns the live heap it found.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readRuntime(mLive)[0].Value.Uint64()) / (1 << 20)
}

// hostRef times two fixed kernels: SHA-256 over 256 MiB, which stays in
// the core, and a dependent random walk of 2^21 steps over 32 MiB, which
// waits on memory. They are printed before and after each run so a slow
// run can be told apart from a slow host state; they never enter a
// metric.
func hostRef() (shaMS, walkMS float64) {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	t0 := time.Now()
	h := sha256.New()
	for i := 0; i < 256; i++ {
		//thorlint:allow no-unchecked-error hash.Hash writes never fail
		h.Write(buf)
	}
	h.Sum(nil)
	shaMS = float64(time.Since(t0)) / 1e6

	// One random cycle through all slots (Sattolo's shuffle): every load
	// depends on the one before it.
	const n = 1 << 22 // 32 MiB of int64
	next := make([]int64, n)
	for i := range next {
		next[i] = int64(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	t0 = time.Now()
	p := int64(0)
	for i := 0; i < 1<<21; i++ {
		p = next[p]
	}
	walkMS = float64(time.Since(t0)) / 1e6
	sink.Store(p)
	return shaMS, walkMS
}

// sink keeps the walk's result live.
var sink atomic.Int64
