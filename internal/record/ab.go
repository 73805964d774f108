package record

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Paired A/B replay over the real RPC stack: one recorded trace drives
// two client stacks against the same in-process echo server — an
// unbatched arm (one rpc.Client, so concurrent requests queue head-of-line
// behind each other on its connection) and a batched arm (rpc.Batcher
// coalescing concurrent requests into envelope frames). Both arms replay
// the identical event list at the identical dilated timestamps with
// identical payload bytes, so any latency or duration difference is
// attributable to the client stack alone — the trace-replay equivalent
// of the paper's paired-experiment methodology (§6).

// ABConfig configures a batched-vs-unbatched paired replay.
type ABConfig struct {
	// Dilate stretches (>1) or compresses (<1) the recorded inter-arrival
	// gaps in both arms; 0 means 1 (real time).
	Dilate float64
	// MaxBatch bounds the batcher arm's coalescing (default 8).
	MaxBatch int
	// Linger is how long the batcher arm waits to fill a batch
	// (default 200µs).
	Linger time.Duration
	// MaxInFlight bounds concurrently outstanding requests per arm
	// (default: RPCReplayConfig's).
	MaxInFlight int
}

// ABArm is one side's measurement.
type ABArm struct {
	Stats   RPCReplayStats
	Latency telemetry.HistogramSnapshot // per-call wall latency, nanoseconds
	// Spans holds the arm's server-side span trees when the replay ran
	// with tracing (ServingABConfig.Trace); nil otherwise.
	Spans []telemetry.SpanData
}

// ABResult pairs the two arms of one replay.
type ABResult struct {
	Events             int
	Unbatched, Batched ABArm
}

// DialFunc wraps the client end of an arm's in-process connection as
// the client a replay drives: it returns the call and the client's
// closer.
type DialFunc func(conn net.Conn) (CallFunc, func() error, error)

// DialClient drives the replay through one rpc.Client: concurrent calls
// queue on its connection, the head-of-line baseline a per-request RPC
// stack pays under bursts.
func DialClient(conn net.Conn) (CallFunc, func() error, error) {
	c, err := rpc.NewClient(conn, nil)
	if err != nil {
		return nil, nil, err
	}
	return c.CallContext, c.Close, nil
}

// DialMux drives the replay through one rpc.MuxClient, which keeps
// every call in flight at once on the connection.
func DialMux(conn net.Conn) (CallFunc, func() error, error) {
	c, err := rpc.NewMuxClient(conn, nil)
	if err != nil {
		return nil, nil, err
	}
	return c.CallContext, c.Close, nil
}

// dialBatcher drives the replay through a Batcher over one rpc.Client,
// coalescing concurrent calls into envelope frames.
func dialBatcher(cfg rpc.BatcherConfig) DialFunc {
	return func(conn net.Conn) (CallFunc, func() error, error) {
		c, err := rpc.NewClient(conn, nil)
		if err != nil {
			return nil, nil, err
		}
		b, err := rpc.NewBatcher(c, cfg)
		if err != nil {
			c.Close() //modelcheck:ignore errdrop — best-effort unwind, the batcher error is reported
			return nil, nil, err
		}
		return b.CallContext, func() error {
			b.Close() //modelcheck:ignore errdrop — drains in-flight batches; errors surface per call
			return c.Close()
		}, nil
	}
}

// ReplayArm replays tr open-loop through one in-process serving stack:
// srv serves one end of a net.Pipe, dial wraps the other end as the
// client, and the replay's stats and per-call latency come back as an
// ABArm. The caller owns srv. An in-process transport keeps kernel TCP
// out of the measurement: a loopback retransmit (200 ms RTO) head-of-line
// blocks a single connection and poisons the tail with transport noise,
// which is not the stack under test. A nil cfg.Latency gets a fresh
// histogram.
func ReplayArm(ctx context.Context, tr *Trace, srv *rpc.Server, dial DialFunc, cfg RPCReplayConfig) (ABArm, error) {
	clientConn, serverConn := net.Pipe()
	serveCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.ServeConn(serveCtx, serverConn)
	call, closeClient, err := dial(clientConn)
	if err != nil {
		clientConn.Close() //modelcheck:ignore errdrop — best-effort unwind, the dial error is reported
		return ABArm{}, err
	}
	defer closeClient() //modelcheck:ignore errdrop — arm teardown; replay errors surface per call
	if cfg.Latency == nil {
		cfg.Latency = telemetry.NewHistogram("replay_latency_nanos", "per-call replay latency in nanoseconds")
	}
	stats, err := ReplayRPC(ctx, tr, call, cfg)
	return ABArm{Stats: stats, Latency: cfg.Latency.Snapshot()}, err
}

// ReplayAB replays tr through both client stacks sequentially (unbatched
// first) against one echo server and returns the paired measurements.
// The arms never run concurrently, so they do not contend for CPU with
// each other.
func ReplayAB(ctx context.Context, tr *Trace, cfg ABConfig) (*ABResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 8
	}
	if cfg.Linger == 0 {
		cfg.Linger = 200 * time.Microsecond
	}
	echo := func(_ context.Context, req rpc.Message) (rpc.Message, error) {
		return rpc.Message{Method: req.Method, Payload: req.Payload}, nil
	}
	srv, err := rpc.NewServer(echo, nil)
	if err != nil {
		return nil, err
	}
	defer srv.Close() //modelcheck:ignore errdrop — in-process server teardown; each arm closed its conn

	replay := RPCReplayConfig{Dilate: cfg.Dilate, MaxInFlight: cfg.MaxInFlight}
	res := &ABResult{Events: len(tr.Events)}
	if res.Unbatched, err = ReplayArm(ctx, tr, srv, DialClient, replay); err != nil {
		return nil, fmt.Errorf("record: unbatched arm: %w", err)
	}
	// Same trace, same timestamps, same payload bytes — only the client
	// stack changes.
	batched := dialBatcher(rpc.BatcherConfig{MaxBatch: cfg.MaxBatch, Linger: cfg.Linger})
	if res.Batched, err = ReplayArm(ctx, tr, srv, batched, replay); err != nil {
		return nil, fmt.Errorf("record: batched arm: %w", err)
	}
	return res, nil
}
