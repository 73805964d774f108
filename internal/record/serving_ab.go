package record

import (
	"context"
	"fmt"
	"time"

	"repro/internal/kernels"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Paired sync-vs-async serving replay: one recorded trace drives the same
// completion-queue server stack twice through ReplayArm. Both arms use an
// identically configured rpc.Engine (the same bounded worker pool W) and
// an identical simulated accelerator; the only difference is the threading
// design at the offload point. The sync arm's handler waits out the
// offload on the engine worker — the paper's Sync design, where at most W
// offloads make progress — while the async arm parks the continuation and
// frees the worker. Byte-identical arrivals at identical dilated
// timestamps make any p99 difference attributable to the threading design
// alone; a retry-storm trace makes the contrast vivid because its bursts
// stack far more than W requests in flight.

// ServingABConfig configures a sync-vs-async serving replay.
type ServingABConfig struct {
	// Dilate stretches (>1) or compresses (<1) the recorded inter-arrival
	// gaps in both arms; 0 means 1 (real time).
	Dilate float64
	// MaxInFlight bounds concurrently outstanding requests per arm
	// (default: RPCReplayConfig's).
	MaxInFlight int
	// Workers is each arm's engine pool size (default 4) — the W that
	// caps the sync arm's concurrent offloads.
	Workers int
	// OffloadLatency is the simulated accelerator's fixed latency L
	// (default 1ms).
	OffloadLatency time.Duration
	// Trace attaches a per-arm tracer to each arm's server, collecting
	// one span tree per replayed request (queue-wait, handler, park-wait
	// and resume-wait children) in ABArm.Spans — the raw material for
	// the explain mode's attribution delta between the two designs.
	Trace bool
}

// ServingABResult pairs the two serving arms of one replay.
type ServingABResult struct {
	Events      int
	Sync, Async ABArm
}

// servingResume is the async arm's parked continuation: acknowledge the
// completed offload. Package-level so parking allocates no closure.
var servingResume rpc.ResumeFunc = func(_ context.Context, ac *rpc.AsyncCall) (rpc.Message, error) {
	req := ac.Request()
	return rpc.Message{Method: req.Method, Payload: []byte{1}}, nil
}

// ReplayServingAB replays tr through the sync arm then the async arm and
// returns the paired measurements. The arms never run concurrently, so
// they do not contend for CPU with each other.
func ReplayServingAB(ctx context.Context, tr *Trace, cfg ServingABConfig) (*ServingABResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.OffloadLatency <= 0 {
		cfg.OffloadLatency = time.Millisecond
	}

	res := &ServingABResult{Events: len(tr.Events)}
	syncArm, err := runServingArm(ctx, tr, cfg, "sync", blockingOffloadHandler)
	if err != nil {
		return nil, fmt.Errorf("record: sync serving arm: %w", err)
	}
	res.Sync = syncArm
	asyncArm, err := runServingArm(ctx, tr, cfg, "async", parkingOffloadHandler)
	if err != nil {
		return nil, fmt.Errorf("record: async serving arm: %w", err)
	}
	res.Async = asyncArm
	return res, nil
}

// blockingOffloadHandler submits the offload and waits it out on the
// engine worker — the Sync threading design on a bounded pool.
func blockingOffloadHandler(dev rpc.Offloader) rpc.AsyncHandler {
	return func(ctx context.Context, req rpc.Message, _ *rpc.AsyncCall) (rpc.Message, error) {
		done := make(chan error, 1)
		if err := dev.Submit(ctx, uint64(len(req.Payload)), kernels.CompleterFunc(func(err error) { done <- err })); err != nil {
			return rpc.Message{}, err
		}
		if err := <-done; err != nil {
			return rpc.Message{}, err
		}
		return rpc.Message{Method: req.Method, Payload: []byte{1}}, nil
	}
}

// parkingOffloadHandler parks the continuation for the offload's
// duration, freeing the worker — the AsyncSameThread design.
func parkingOffloadHandler(dev rpc.Offloader) rpc.AsyncHandler {
	return func(_ context.Context, req rpc.Message, ac *rpc.AsyncCall) (rpc.Message, error) {
		if err := ac.Park(dev, uint64(len(req.Payload)), servingResume); err != nil {
			return rpc.Message{}, err
		}
		return rpc.Message{}, nil
	}
}

// runServingArm stands up one arm's server stack (device, engine, async
// server), replays the trace through it over a MuxClient, and tears it
// down.
func runServingArm(ctx context.Context, tr *Trace, cfg ServingABConfig, name string,
	mkHandler func(rpc.Offloader) rpc.AsyncHandler) (ABArm, error) {
	dev, err := kernels.NewSimAccel(kernels.SimAccelConfig{Latency: cfg.OffloadLatency})
	if err != nil {
		return ABArm{}, err
	}
	defer dev.Close() //modelcheck:ignore errdrop — arm teardown; replay errors surface per call
	eng, err := rpc.NewEngine(rpc.EngineConfig{Workers: cfg.Workers})
	if err != nil {
		return ABArm{}, err
	}
	defer eng.Close() //modelcheck:ignore errdrop — arm teardown; replay errors surface per call
	srv, err := rpc.NewAsyncServer(mkHandler(dev), eng, nil)
	if err != nil {
		return ABArm{}, err
	}
	defer srv.Close() //modelcheck:ignore errdrop — arm teardown; ReplayArm closed the conn
	var tracer *telemetry.Tracer
	if cfg.Trace {
		tracer = telemetry.NewTracer(name)
		srv.Instrument(&rpc.Instrumentation{Tracer: tracer})
	}
	arm, err := ReplayArm(ctx, tr, srv, DialMux, RPCReplayConfig{Dilate: cfg.Dilate, MaxInFlight: cfg.MaxInFlight})
	if tracer != nil {
		arm.Spans = tracer.Spans()
	}
	return arm, err
}
