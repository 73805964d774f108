package record

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Replay drives a recorded trace back through the system, two ways:
//
//   - ReplaySim feeds each service's recorded arrivals to the
//     discrete-event simulator as an explicit schedule (sim's
//     Arrivals.Times), so the model is evaluated on the exact offered
//     stream a production run saw instead of a fitted Poisson process.
//     Replay is fully deterministic: the same trace yields
//     byte-identical aggregates on every run.
//
//   - ReplayRPC issues the trace open-loop against a live RPC client at
//     the recorded timestamps (optionally time-dilated), preserving the
//     arrival process — including the bursts that closed-loop load
//     generators destroy — while measuring real client-side latency.

// SimReplayConfig shapes the simulated server each recorded service is
// replayed against.
type SimReplayConfig struct {
	// Cores and Threads shape the per-service server (defaults 4/4).
	Cores   int
	Threads int
	// HostHz converts recorded nanoseconds to cycles (default 1e9).
	HostHz float64
	// ContextSwitch is sim's o1 cost in cycles.
	ContextSwitch float64
	// Accel, when non-nil, attaches an accelerator (the A/B lever).
	Accel *sim.Accel
	// NonKernelCycles is per-request host work beyond the offloadable
	// kernel (default 2000).
	NonKernelCycles float64
	// Kernel converts each event's recorded granularity into host
	// cycles (default core.LinearKernel(5.6), the paper's α shape).
	Kernel core.Kernel
	// Dilate stretches (>1) or compresses (<1) recorded inter-arrival
	// gaps; 0 means 1 (replay at recorded speed).
	Dilate float64
}

func (c *SimReplayConfig) setDefaults() {
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.Threads == 0 {
		c.Threads = c.Cores
	}
	if !(c.HostHz > 0) { // zero/negative/NaN all mean "unset"
		c.HostHz = 1e9
	}
	if !(c.NonKernelCycles > 0) {
		c.NonKernelCycles = 2000
	}
	if !(c.Kernel.Cb > 0) {
		c.Kernel = core.LinearKernel(5.6)
	}
	if !(c.Dilate > 0) {
		c.Dilate = 1
	}
}

// ServiceReplay is one service's replayed result.
type ServiceReplay struct {
	Service  string
	Requests int
	Result   sim.Result
}

// SimReplayResult is a full trace replay: per-service results in
// service-table (canonical) order plus their merged aggregate.
type SimReplayResult struct {
	PerService []ServiceReplay
	Aggregate  sim.Result
}

// traceWorkload replays recorded events as sim requests: each request
// performs the service's fixed non-kernel work plus one kernel
// invocation at the event's recorded offload granularity.
type traceWorkload struct {
	events    []Event
	nonKernel float64
	kernel    core.Kernel
}

// Request implements sim.Workload.
func (w *traceWorkload) Request(i int) sim.Request {
	e := &w.events[i%len(w.events)]
	return sim.Request{
		NonKernelCycles: w.nonKernel,
		Kernels: []sim.Invocation{{
			Bytes:      e.Granularity,
			HostCycles: w.kernel.HostCycles(e.Granularity),
		}},
	}
}

// ReplaySim replays the trace through the simulator, one simulated
// server per recorded service, and merges the results in canonical
// service order — so the aggregate is deterministic and two configs
// replayed over the same trace form a paired comparison on
// byte-identical arrivals.
func ReplaySim(t *Trace, cfg SimReplayConfig) (*SimReplayResult, error) {
	if t == nil || len(t.Events) == 0 {
		return nil, fmt.Errorf("record: nothing to replay")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dilate < 0 {
		return nil, fmt.Errorf("record: negative time dilation %v", cfg.Dilate)
	}
	cfg.setDefaults()

	out := &SimReplayResult{}
	cyclesPerNano := cfg.HostHz * cfg.Dilate / 1e9
	var results []sim.Result
	for svc, events := range t.ServiceEvents() {
		if len(events) == 0 {
			continue
		}
		times := make([]float64, len(events))
		for i, e := range events {
			times[i] = float64(e.ArrivalNanos) * cyclesPerNano
		}
		wl := &traceWorkload{events: events, nonKernel: cfg.NonKernelCycles, kernel: cfg.Kernel}
		s, err := sim.New(sim.Config{
			Cores:         cfg.Cores,
			Threads:       cfg.Threads,
			ContextSwitch: cfg.ContextSwitch,
			HostHz:        cfg.HostHz,
			Accel:         cfg.Accel,
			Requests:      len(events),
			Arrivals:      &sim.Arrivals{Times: times},
		}, wl)
		if err != nil {
			return nil, fmt.Errorf("record: replay %s: %w", t.Services[svc], err)
		}
		res, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("record: replay %s: %w", t.Services[svc], err)
		}
		out.PerService = append(out.PerService, ServiceReplay{
			Service:  t.Services[svc],
			Requests: len(events),
			Result:   res,
		})
		results = append(results, res)
	}
	agg, err := sim.MergeResults(results)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	out.Aggregate = agg
	return out, nil
}

// CallFunc is the client shape ReplayRPC drives — both
// (*rpc.Client).CallContext and (*rpc.Batcher).CallContext satisfy it,
// which is what makes the batched-vs-unbatched A/B a one-line swap.
type CallFunc func(context.Context, rpc.Message) (rpc.Message, error)

// RPCReplayConfig shapes an open-loop replay against a live client.
type RPCReplayConfig struct {
	// Dilate stretches (>1) or compresses (<1) the recorded gaps; 0
	// means 1. Replays against real servers usually dilate >= 1 so the
	// serving stack, not the load generator, is the bottleneck.
	Dilate float64
	// MaxInFlight bounds concurrent calls (default 256). When the bound
	// is hit the replayer blocks — arrivals fall behind schedule rather
	// than overwhelming the client with unbounded goroutines.
	MaxInFlight int
	// MethodSuffix names the replayed calls: service + MethodSuffix
	// (default ".replay").
	MethodSuffix string
	// Latency, when non-nil, records per-call latency in nanoseconds.
	Latency *telemetry.Histogram
}

// RPCReplayStats summarizes one open-loop replay.
type RPCReplayStats struct {
	Issued   int
	Errors   int
	Duration time.Duration
	// MaxLagNanos is the worst observed scheduling lag: how far behind
	// the dilated schedule a request was actually issued. Large lag
	// means the replayer (or the in-flight bound) — not the recorded
	// process — shaped the arrivals.
	MaxLagNanos int64
}

// ReplayRPC issues the trace's events against call at their recorded
// (dilated) timestamps. Calls run open-loop: a slow response delays
// nothing behind it, up to MaxInFlight concurrency. Context
// cancellation stops the replay between issues.
func ReplayRPC(ctx context.Context, t *Trace, call CallFunc, cfg RPCReplayConfig) (RPCReplayStats, error) {
	var stats RPCReplayStats
	if t == nil || len(t.Events) == 0 {
		return stats, fmt.Errorf("record: nothing to replay")
	}
	if err := t.Validate(); err != nil {
		return stats, err
	}
	if call == nil {
		return stats, fmt.Errorf("record: nil call function")
	}
	if cfg.Dilate < 0 {
		return stats, fmt.Errorf("record: negative time dilation %v", cfg.Dilate)
	}
	if !(cfg.Dilate > 0) {
		cfg.Dilate = 1
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MethodSuffix == "" {
		cfg.MethodSuffix = ".replay"
	}

	// One payload buffer per distinct size would still allocate per
	// call inside the stack; sharing one zero-filled backing array and
	// slicing it per event keeps the replayer itself quiet.
	var maxPayload uint64
	for i := range t.Events {
		if t.Events[i].PayloadBytes > maxPayload {
			maxPayload = t.Events[i].PayloadBytes
		}
	}
	const payloadCap = 1 << 20
	if maxPayload > payloadCap {
		maxPayload = payloadCap
	}
	backing := make([]byte, maxPayload)

	sem := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := 0

	dueTimes := t.DueTimes(cfg.Dilate)
	start := time.Now()
	for i := range t.Events {
		e := &t.Events[i]
		due := dueTimes[i]
		if lag := time.Since(start) - due; lag > 0 && int64(lag) > stats.MaxLagNanos {
			stats.MaxLagNanos = int64(lag)
		} else if lag < 0 {
			timer := time.NewTimer(-lag)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				wg.Wait()
				stats.Errors = errs
				stats.Duration = time.Since(start)
				return stats, ctx.Err()
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			stats.Errors = errs
			stats.Duration = time.Since(start)
			return stats, ctx.Err()
		}
		size := e.PayloadBytes
		if size > maxPayload {
			size = maxPayload
		}
		msg := rpc.Message{
			Method:  t.Services[e.Service] + cfg.MethodSuffix,
			Payload: backing[:size],
		}
		stats.Issued++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			callStart := time.Now()
			_, err := call(ctx, msg)
			if cfg.Latency != nil {
				cfg.Latency.Record(float64(time.Since(callStart)))
			}
			if err != nil {
				mu.Lock()
				errs++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stats.Errors = errs
	stats.Duration = time.Since(start)
	return stats, nil
}
