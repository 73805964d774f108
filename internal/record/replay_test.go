package record

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestReplaySimValidation(t *testing.T) {
	if _, err := ReplaySim(nil, SimReplayConfig{}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := ReplaySim(&Trace{Services: []string{"a"}}, SimReplayConfig{}); err == nil {
		t.Error("empty trace accepted")
	}
	tr, err := Synthesize("steady", 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaySim(tr, SimReplayConfig{Dilate: -1}); err == nil {
		t.Error("negative dilation accepted")
	}
	bad := &Trace{Services: []string{"a"}, Events: []Event{{Service: 9}}}
	if _, err := ReplaySim(bad, SimReplayConfig{}); err == nil {
		t.Error("invalid trace accepted")
	}
}

// The tentpole determinism claim: the same trace replayed twice through
// the simulator yields byte-identical aggregates.
func TestReplaySimDeterministic(t *testing.T) {
	for _, sc := range Scenarios {
		tr, err := Synthesize(sc, 11, 800)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ReplaySim(tr, SimReplayConfig{})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		b, err := ReplaySim(tr, SimReplayConfig{})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: replaying the same trace twice diverged", sc)
		}
		if a.Aggregate.Completed != len(tr.Events) {
			t.Errorf("%s: completed %d of %d recorded events", sc, a.Aggregate.Completed, len(tr.Events))
		}
		if len(a.PerService) != len(tr.Services) {
			t.Errorf("%s: %d per-service results for %d services", sc, len(a.PerService), len(tr.Services))
		}
		for i := 1; i < len(a.PerService); i++ {
			if a.PerService[i-1].Service >= a.PerService[i].Service {
				t.Errorf("%s: per-service results not in canonical order", sc)
			}
		}
	}
}

// An encode/decode round trip through the on-disk format preserves the
// replay outcome exactly.
func TestReplaySimSurvivesSerialization(t *testing.T) {
	tr, err := Synthesize("diurnal-burst", 5, 600)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ReplaySim(tr, SimReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	roundTripped, err := ReplaySim(decoded, SimReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, roundTripped) {
		t.Error("serialization changed the replay result")
	}
}

// Dilation stretches the offered stream: replaying at 10x dilation cuts
// the offered rate, so queueing — and with it mean latency — drops, on
// a trace dense enough to queue at recorded speed.
func TestReplaySimDilation(t *testing.T) {
	tr, err := Synthesize("retry-storm", 9, 1200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimReplayConfig{Cores: 1, Threads: 1}
	recorded, err := ReplaySim(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slowCfg := cfg
	slowCfg.Dilate = 10
	dilated, err := ReplaySim(tr, slowCfg)
	if err != nil {
		t.Fatal(err)
	}
	if dilated.Aggregate.MeanLatency >= recorded.Aggregate.MeanLatency {
		t.Errorf("10x dilation did not reduce queueing: mean latency %v -> %v",
			recorded.Aggregate.MeanLatency, dilated.Aggregate.MeanLatency)
	}
}

// Acceleration changes replay results the way the paper predicts: an
// accelerator on the same recorded arrivals completes the run no slower.
func TestReplaySimAcceleratedAB(t *testing.T) {
	tr, err := Synthesize("steady", 21, 800)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReplaySim(tr, SimReplayConfig{Cores: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	accel, err := ReplaySim(tr, SimReplayConfig{
		Cores: 1, Threads: 1,
		Accel: &sim.Accel{A: 8, O0: 200, L: 500, Servers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if accel.Aggregate.Offloads == 0 {
		t.Fatal("accelerated replay performed no offloads")
	}
	if accel.Aggregate.ElapsedCycles > base.Aggregate.ElapsedCycles {
		t.Errorf("accelerated replay slower: %v > %v cycles",
			accel.Aggregate.ElapsedCycles, base.Aggregate.ElapsedCycles)
	}
}

// replayServer serves an echo handler over net.Pipe and returns the
// connected client.
func replayServer(t *testing.T, handler rpc.Handler) *rpc.Client {
	t.Helper()
	srv, err := rpc.NewServer(handler, nil)
	if err != nil {
		t.Fatal(err)
	}
	clientConn, serverConn := net.Pipe()
	go srv.ServeConn(context.Background(), serverConn)
	client, err := rpc.NewClient(clientConn, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

func TestReplayRPCValidation(t *testing.T) {
	ctx := context.Background()
	call := func(context.Context, rpc.Message) (rpc.Message, error) { return rpc.Message{}, nil }
	if _, err := ReplayRPC(ctx, &Trace{}, call, RPCReplayConfig{}); err == nil {
		t.Error("empty trace accepted")
	}
	tr, err := Synthesize("steady", 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayRPC(ctx, tr, nil, RPCReplayConfig{}); err == nil {
		t.Error("nil call accepted")
	}
	if _, err := ReplayRPC(ctx, tr, call, RPCReplayConfig{Dilate: -2}); err == nil {
		t.Error("negative dilation accepted")
	}
}

// An open-loop replay against a live echo server issues every recorded
// event with its service name and payload size, and reports latency.
func TestReplayRPCIssuesRecordedStream(t *testing.T) {
	tr, err := Synthesize("steady", 13, 200)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	var badMethods atomic.Int64
	client := replayServer(t, func(_ context.Context, req rpc.Message) (rpc.Message, error) {
		calls.Add(1)
		if len(req.Method) < len(".replay") {
			badMethods.Add(1)
		}
		return rpc.Message{Method: req.Method}, nil
	})
	lat := telemetry.NewHistogram("replay_lat", "")
	// Compress hard: the trace spans ~4ms of recorded time; no reason
	// for the test to sleep through it at full length.
	stats, err := ReplayRPC(context.Background(), tr, client.CallContext, RPCReplayConfig{
		Dilate:  0.1,
		Latency: lat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Issued != len(tr.Events) {
		t.Errorf("issued %d of %d events", stats.Issued, len(tr.Events))
	}
	if got := calls.Load(); got != int64(len(tr.Events)) {
		t.Errorf("server saw %d calls, want %d", got, len(tr.Events))
	}
	if badMethods.Load() != 0 {
		t.Errorf("%d calls had malformed methods", badMethods.Load())
	}
	if stats.Errors != 0 {
		t.Errorf("%d errors from the echo server", stats.Errors)
	}
	if snap := lat.Snapshot(); snap.Count != uint64(len(tr.Events)) {
		t.Errorf("latency histogram recorded %d of %d calls", snap.Count, len(tr.Events))
	}
	if stats.Duration <= 0 {
		t.Error("zero replay duration")
	}
}

func TestReplayRPCCountsErrors(t *testing.T) {
	tr, err := Synthesize("steady", 17, 50)
	if err != nil {
		t.Fatal(err)
	}
	client := replayServer(t, func(_ context.Context, req rpc.Message) (rpc.Message, error) {
		return rpc.Message{}, errors.New("always fails")
	})
	stats, err := ReplayRPC(context.Background(), tr, client.CallContext, RPCReplayConfig{Dilate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != stats.Issued || stats.Errors == 0 {
		t.Errorf("errors = %d, issued = %d; want all failed", stats.Errors, stats.Issued)
	}
}

// Cancellation stops the replay between issues instead of draining the
// whole trace.
func TestReplayRPCCancellation(t *testing.T) {
	// A long trace with real gaps so cancellation lands mid-replay.
	tr := &Trace{Services: []string{"slow"}}
	for i := 0; i < 1000; i++ {
		tr.Events = append(tr.Events, Event{ArrivalNanos: int64(i) * int64(10*time.Millisecond), PayloadBytes: 8})
	}
	client := replayServer(t, func(_ context.Context, req rpc.Message) (rpc.Message, error) {
		return rpc.Message{Method: req.Method}, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	stats, err := ReplayRPC(ctx, tr, client.CallContext, RPCReplayConfig{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if stats.Issued == 0 || stats.Issued >= len(tr.Events) {
		t.Errorf("issued %d of %d; want a strict mid-replay prefix", stats.Issued, len(tr.Events))
	}
}

// The batched and unbatched clients are interchangeable CallFuncs — the
// type-level guarantee the A/B harness rests on.
func TestReplayRPCBatcherCompatible(t *testing.T) {
	tr, err := Synthesize("steady", 29, 100)
	if err != nil {
		t.Fatal(err)
	}
	client := replayServer(t, func(_ context.Context, req rpc.Message) (rpc.Message, error) {
		return rpc.Message{Method: req.Method}, nil
	})
	batcher, err := rpc.NewBatcher(client, rpc.BatcherConfig{MaxBatch: 8, Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer batcher.Close()
	stats, err := ReplayRPC(context.Background(), tr, batcher.CallContext, RPCReplayConfig{Dilate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Issued != len(tr.Events) || stats.Errors != 0 {
		t.Errorf("batched replay: %+v", stats)
	}
}
