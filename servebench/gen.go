package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's load generators. Inputs come from the seed alone; the
// program sees only the generated requests.

// newRand returns the generator for one input stream of a seed. Streams
// separate independent draws (payloads, arrivals, per-caller choices) so
// that adding draws to one stream leaves the others unchanged.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// poissonDue draws the due times of n Poisson arrivals at rate req/s,
// offset from the start of the phase. The process is conditioned on its
// count: n arrivals in exactly n/rate seconds are n sorted uniform
// times, so every seed offers exactly the stated rate.
func poissonDue(rng *rand.Rand, rate float64, n int) []time.Duration {
	span := float64(n) / rate * float64(time.Second)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * span)
	}
	slices.Sort(due)
	return due
}

// logSpaced returns the point at fraction f of [lo, hi] on a log scale.
func logSpaced(lo, hi int, f float64) int {
	n := int(float64(lo) * math.Pow(float64(hi)/float64(lo), f))
	return min(max(n, lo), hi)
}

// openResult is one open-loop phase, indexed by arrival.
type openResult struct {
	Lat  []time.Duration // due time to completion
	Lag  []time.Duration // due time to issue: how late the generator ran
	Errs []error
	Wall time.Duration
}

// failures counts the requests that returned an error.
func (r *openResult) failures() (n int, first error) {
	for _, err := range r.Errs {
		if err != nil {
			if first == nil {
				first = err
			}
			n++
		}
	}
	return n, first
}

// openLoop issues request i at its due time, whether or not earlier
// requests have completed, and waits for every completion. issue must
// not wait for the response: it arranges for done to be called when
// request i completes. Only the first call of done for a request counts,
// so a transport that reports one failure on two paths (a callback and a
// returned error) still counts the request once. Latency runs from the
// due time, so a stall that delays later requests is charged to them.
func openLoop(due []time.Duration, issue func(i int, done func(i int, err error))) *openResult {
	n := len(due)
	res := &openResult{Lat: make([]time.Duration, n), Lag: make([]time.Duration, n), Errs: make([]error, n)}
	finished := make([]atomic.Bool, n)
	var wg sync.WaitGroup
	wg.Add(n)
	start := time.Now()
	done := func(i int, err error) {
		if finished[i].Swap(true) {
			return
		}
		res.Lat[i] = time.Since(start.Add(due[i]))
		res.Errs[i] = err
		wg.Done()
	}
	for i, d := range due {
		target := start.Add(d)
		if w := time.Until(target); w > 0 {
			time.Sleep(w)
		}
		res.Lag[i] = time.Since(target)
		issue(i, done)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

// closedResult is one closed-loop phase.
type closedResult struct {
	Lat    []time.Duration // per completed request, all callers
	Calls  int
	Failed int
	First  error
	Wall   time.Duration
}

// closedLoop runs callers goroutines, each issuing call back to back
// until the phase has lasted d. call receives the caller's index and its
// request sequence number, and returns the request's error.
func closedLoop(callers int, d time.Duration, call func(w, k int) error) *closedResult {
	type part struct {
		lat    []time.Duration
		failed int
		first  error
	}
	parts := make([]part, callers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			p.lat = make([]time.Duration, 0, 1<<16)
			for k := 0; ; k++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				if err := call(w, k); err != nil {
					p.failed++
					if p.first == nil {
						p.first = err
					}
					continue
				}
				p.lat = append(p.lat, time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	res := &closedResult{Wall: time.Since(start)}
	for _, p := range parts {
		res.Lat = append(res.Lat, p.lat...)
		res.Failed += p.failed
		if res.First == nil {
			res.First = p.first
		}
	}
	res.Calls = len(res.Lat) + res.Failed
	return res
}

// closedSegments is how many separately metered slices a closed-loop
// phase is measured in; end-to-end metrics are medians over them.
const closedSegments = 10

// measureClosed runs a closed loop for d in closedSegments slices, each
// metered on its own, and returns the slices and the phase's totals.
func measureClosed(callers int, d time.Duration, call func(w, k int) error) ([]segment, *closedResult) {
	var segs []segment
	total := &closedResult{}
	for i := 0; i < closedSegments; i++ {
		m := startMeter()
		r := closedLoop(callers, d/closedSegments, call)
		segs = append(segs, segment{Lat: sortedMillis(r.Lat), Wall: r.Wall, U: m.end()})
		total.Calls += r.Calls
		total.Failed += r.Failed
		if total.First == nil {
			total.First = r.First
		}
	}
	return segs, total
}
