package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Process-level measurement of one phase, read from outside the program:
// getrusage for CPU, runtime/metrics for allocations, GC, the scheduler
// and the heap.

const (
	mAllocs     = "/gc/heap/allocs:objects"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mSchedLat   = "/sched/latencies:seconds"
	mLiveHeap   = "/gc/heap/live:bytes"
	mGoroutines = "/sched/goroutines:goroutines"
)

// sampleEvery is the period of the peak samplers.
const sampleEvery = 5 * time.Millisecond

// usage is what a meter saw over one phase.
type usage struct {
	CPU           time.Duration // user + system, whole process
	Allocs        uint64        // heap objects allocated
	GCCycles      uint64
	GCCPUShare    float64 // GC CPU over all CPU the runtime accounted
	SchedP99      time.Duration
	PeakLiveBytes uint64
	MaxGoroutines uint64
}

type rtSnap struct {
	allocs, gcCycles uint64
	gcCPU, totalCPU  float64
	sched            *metrics.Float64Histogram
}

func readRT() rtSnap {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mSchedLat}}
	metrics.Read(s)
	return rtSnap{
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
		sched:    s[4].Value.Float64Histogram(),
	}
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: mAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter measures one phase. Sample hooks run on the sampler goroutine
// every sampleEvery, for stats that only have a current value.
type meter struct {
	cpu0 time.Duration
	rt0  rtSnap

	hooks []func()
	stop  chan struct{}
	done  chan struct{}

	mu            sync.Mutex
	peakLive      uint64
	maxGoroutines uint64
}

func startMeter(hooks ...func()) *meter {
	m := &meter{hooks: hooks, stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	m.rt0 = readRT()
	m.cpu0 = cpuTime()
	go m.run()
	return m
}

func (m *meter) run() {
	defer close(m.done)
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.sample()
		}
	}
}

func (m *meter) sample() {
	s := []metrics.Sample{{Name: mLiveHeap}, {Name: mGoroutines}}
	metrics.Read(s)
	m.mu.Lock()
	m.peakLive = max(m.peakLive, s[0].Value.Uint64())
	m.maxGoroutines = max(m.maxGoroutines, s[1].Value.Uint64())
	m.mu.Unlock()
	for _, h := range m.hooks {
		h()
	}
}

// end stops the samplers and returns the phase's usage.
func (m *meter) end() usage {
	cpu := cpuTime() - m.cpu0
	rt := readRT()
	close(m.stop)
	<-m.done
	m.sample()
	u := usage{
		CPU:      cpu,
		Allocs:   rt.allocs - m.rt0.allocs,
		GCCycles: rt.gcCycles - m.rt0.gcCycles,
		SchedP99: histDeltaQuantile(m.rt0.sched, rt.sched, 0.99),
	}
	if d := rt.totalCPU - m.rt0.totalCPU; d > 0 {
		u.GCCPUShare = (rt.gcCPU - m.rt0.gcCPU) / d
	}
	m.mu.Lock()
	u.PeakLiveBytes, u.MaxGoroutines = m.peakLive, m.maxGoroutines
	m.mu.Unlock()
	return u
}

// histDeltaQuantile is the q-quantile of the samples a runtime histogram
// gained between a and b, read as the upper edge of the bucket that holds
// it (the lower edge for the open last bucket).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) time.Duration {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= rank {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}
