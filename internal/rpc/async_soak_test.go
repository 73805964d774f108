package rpc

import (
	"context"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernels"
)

// Async soak: park ASYNC_SOAK_N (default 100k) requests on a simulated
// accelerator simultaneously — every one of them in flight at once, no
// completions until the device is flushed — and pin the property the
// completion-queue engine exists for:
//
//   - peak goroutine count while N requests are parked is a small
//     constant (engine workers + conn loops), not O(N): measured at N/10
//     and N, the two peaks must match within a fixed slack;
//   - parked state is pooled: allocations per request stay under a fixed
//     budget (the precise allocs/op gate lives in BenchmarkAsyncParkResume
//     and BENCH_async.json; the soak bound catches O(N) regressions like
//     an un-pooled continuation or a goroutine per offload).
//
// scripts/check.sh runs this under -race; scripts/bench_async.sh runs it
// standalone as the CI goroutine-ceiling gate.

// soakN returns the configured soak size.
func soakN(t *testing.T) int {
	t.Helper()
	if s := os.Getenv("ASYNC_SOAK_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1000 {
			t.Fatalf("invalid ASYNC_SOAK_N=%q (want integer >= 1000)", s)
		}
		return n
	}
	return 100_000
}

// runParkSoak parks n requests at once and returns the goroutine count
// observed while all n were parked, minus the pre-soak baseline, plus the
// heap allocations per request over the issue phase.
func runParkSoak(t *testing.T, n int) (peakDelta int, allocsPerReq float64) {
	t.Helper()
	dev, err := kernels.NewSimAccel(kernels.SimAccelConfig{Latency: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	eng, err := NewEngine(EngineConfig{Workers: 8, Queue: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := NewAsyncServer(parkingHandler(dev), eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis) //modelcheck:ignore errdrop — Serve's error is the normal shutdown path
	defer srv.Close()                       // errors swallowed per the teardown rule
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewMuxClient(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close() // errors swallowed per the teardown rule

	return soakIssueAndMeasure(t, client, dev, eng, n)
}

// soakIssueAndMeasure issues n fire-and-callback calls, waits for all of
// them to be parked, samples the goroutine peak, then flushes the device
// and waits for every response.
func soakIssueAndMeasure(t *testing.T, client *MuxClient, dev *kernels.SimAccel, eng *Engine, n int) (int, float64) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	var failures atomic.Int64
	wg.Add(n)
	cb := func(_ Message, err error) {
		if err != nil {
			failures.Add(1)
		}
		wg.Done()
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	baseline := runtime.NumGoroutine()

	payload := []byte("soak")
	for i := 0; i < n; i++ {
		if err := client.Go(ctx, Message{Method: "park", Payload: payload}, cb); err != nil {
			t.Fatalf("issue %d/%d: %v", i, n, err)
		}
	}
	// Every request must be parked inside the device simultaneously. The
	// wait is on the device's own queue, not the engine's Parked counter:
	// the engine counts a park before dev.Submit lands, so flushing on that
	// counter can miss the last submits and strand them behind the device
	// latency.
	deadline := time.Now().Add(2 * time.Minute)
	for dev.InFlight() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests submitted to the device in time (engine %+v, device %+v)",
				dev.InFlight(), n, eng.Stats(), dev.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	peak := runtime.NumGoroutine()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	allocsPerReq := float64(after.Mallocs-before.Mallocs) / float64(n)

	dev.Flush()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("flushed responses did not drain: engine %+v, client in-flight %d",
			eng.Stats(), client.InFlight())
	}
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d soak calls failed", f, n)
	}
	return peak - baseline, allocsPerReq
}

// TestAsyncSoak100kInFlight is the headline soak (see file comment).
func TestAsyncSoak100kInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	n := soakN(t)

	smallPeak, smallAllocs := runParkSoak(t, n/10)
	time.Sleep(50 * time.Millisecond) // let the first run's conn loops unwind
	bigPeak, bigAllocs := runParkSoak(t, n)
	t.Logf("parked %d: +%d goroutines, %.1f allocs/req; parked %d: +%d goroutines, %.1f allocs/req",
		n/10, smallPeak, smallAllocs, n, bigPeak, bigAllocs)

	// Ceiling: the engine pool (8) + server conn loop + client reader +
	// device dispatcher + test scaffolding. 64 leaves room for runtime
	// helper goroutines without ever tolerating O(N).
	const ceiling = 64
	if bigPeak > ceiling {
		t.Fatalf("%d in-flight offloads cost +%d goroutines, want <= %d (O(workers), not O(N))",
			n, bigPeak, ceiling)
	}
	// Constant in offload count: 10x the in-flight requests must not move
	// the goroutine peak by more than scheduler noise.
	if diff := bigPeak - smallPeak; diff > 16 && bigPeak > 2*smallPeak {
		t.Fatalf("goroutine peak grew with offload count: +%d at n=%d vs +%d at n=%d",
			bigPeak, n, smallPeak, n/10)
	}
	// Pooled continuation state: the soak bound is deliberately loose
	// (it includes client-side registration and both codecs); the tight
	// per-request gate is BenchmarkAsyncParkResume via BENCH_async.json.
	const allocBudget = 96
	if bigAllocs > allocBudget {
		t.Fatalf("parked requests cost %.1f allocs each, budget %d — continuation state no longer pooled?",
			bigAllocs, allocBudget)
	}
}
