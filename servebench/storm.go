package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/fleetdata"
	"repro/internal/kernels"
	"repro/internal/record"
	"repro/internal/rpc"
	"repro/internal/services"
	"repro/internal/telemetry"
)

// async-storm: the retry-storm scenario, synthesized from the seed and
// dilated against the async path's capacity, served by an async server
// (Cache1's offload handler over an engine and a simulated accelerator)
// and driven open loop through one MuxClient over net.Pipe.

const (
	// stormCapacity is the async path's measured capacity on the
	// reference host, in req/s (see README.md).
	stormCapacity = 39000.0
	// stormBaseRate is retry-storm's undilated base rate: one primary
	// every 30 µs.
	stormBaseRate = 1e9 / 30000.0
	// stormLoad is the base rate's share of capacity after dilation; the
	// storm third runs at about three times it, ~45% of capacity. On the
	// reference host a storm above capacity left a backlog whose p99 moved
	// 3x between runs, and one at ~75% still moved it 4x in one run of
	// five; here queueing still shapes the storm's tail but steadily.
	stormLoad = 0.15
	// stormCycle is the length of one synthesized scenario; a run
	// replays as many back to back as fit.
	stormCycle = 2500 * time.Millisecond
	// stormDeviceLatency is the simulated accelerator's per-offload L:
	// long enough that scheduling jitter on a busy 2-core host does not
	// set the tail (see README.md).
	stormDeviceLatency = 20 * time.Millisecond
	stormBlocks        = 64       // distinct payload sources
	stormBlockBytes    = 32 << 10 // largest retry-storm payload
	stormService       = fleetdata.Cache1
)

// stormInput is one open-loop schedule with its payloads.
type stormInput struct {
	due    []time.Duration
	block  []int // payload source of each request
	size   []int // payload length of each request
	blocks [][]byte
}

func (in *stormInput) payload(i int) []byte { return in.blocks[in.block[i]][:in.size[i]] }

// newStormCycles synthesizes enough retry-storm cycles to last d, each
// from its own seed, dilated so the base rate is stormLoad of capacity.
func newStormCycles(seed uint64, d time.Duration, blocks [][]byte) ([]*stormInput, error) {
	dilate := stormBaseRate / (stormLoad * stormCapacity)
	cycles := max(1, int(math.Round(float64(d)/float64(stormCycle))))
	primaries := int((d / time.Duration(cycles)).Seconds() * stormBaseRate / dilate)
	rng := newRand(seed, 3)
	var out []*stormInput
	for c := 0; c < cycles; c++ {
		tr, err := record.Synthesize("retry-storm", seed*1000+uint64(c), primaries)
		if err != nil {
			return nil, err
		}
		in := &stormInput{due: tr.DueTimes(dilate), blocks: blocks}
		for _, ev := range tr.Events {
			in.block = append(in.block, rng.IntN(len(blocks)))
			in.size = append(in.size, int(min(ev.PayloadBytes, stormBlockBytes)))
		}
		out = append(out, in)
	}
	return out, nil
}

func stormBlockSet(seed uint64) [][]byte {
	rng := newRand(seed, 4)
	out := make([][]byte, stormBlocks)
	for i := range out {
		out[i] = make([]byte, stormBlockBytes)
		for j := range out[i] {
			out[i][j] = byte(rng.Uint32())
		}
	}
	return out
}

// stormStack is one running async deployment.
type stormStack struct {
	dev    *kernels.SimAccel
	eng    *rpc.Engine
	srv    *rpc.Server
	client *rpc.MuxClient
	cancel context.CancelFunc
	served sync.WaitGroup
}

func (s *stormStack) close() error {
	err := errors.Join(s.client.Close(), s.srv.Close())
	s.cancel()
	s.served.Wait()
	return errors.Join(err, s.eng.Close(), s.dev.Close())
}

func startStorm(tracer *telemetry.Tracer) (*stormStack, error) {
	dev, err := kernels.NewSimAccel(kernels.SimAccelConfig{Latency: stormDeviceLatency})
	if err != nil {
		return nil, err
	}
	eng, err := rpc.NewEngine(rpc.EngineConfig{})
	if err != nil {
		return nil, errors.Join(err, dev.Close())
	}
	h, err := services.AsyncOffloadHandler(stormService, dev)
	if err != nil {
		return nil, errors.Join(err, eng.Close(), dev.Close())
	}
	srv, err := rpc.NewAsyncServer(h, eng, nil)
	if err != nil {
		return nil, errors.Join(err, eng.Close(), dev.Close())
	}
	if tracer != nil {
		srv.Instrument(&rpc.Instrumentation{Tracer: tracer})
	}
	cc, sc := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	st := &stormStack{dev: dev, eng: eng, srv: srv, cancel: cancel}
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		srv.ServeConn(ctx, sc)
	}()
	if st.client, err = rpc.NewMuxClient(cc, nil); err != nil {
		cancel()
		st.served.Wait()
		return nil, errors.Join(err, eng.Close(), dev.Close())
	}
	return st, nil
}

// stormPeaks samples the engine, device and client gauges.
type stormPeaks struct {
	mu                                   sync.Mutex
	queueDepth, parked, devInFlight, mux int64
}

func (pk *stormPeaks) hook(st *stormStack) func() {
	return func() {
		es := st.eng.Stats()
		dev := int64(st.dev.InFlight())
		mux := int64(st.client.InFlight())
		pk.mu.Lock()
		pk.queueDepth = max(pk.queueDepth, es.QueueDepth)
		pk.parked = max(pk.parked, es.Parked)
		pk.devInFlight = max(pk.devInFlight, dev)
		pk.mux = max(pk.mux, mux)
		pk.mu.Unlock()
	}
}

// replayStorm drives in through st open loop. Each response digest is
// kept for the check after the phase, so checking costs nothing inside
// the measured window.
func replayStorm(st *stormStack, in *stormInput, bench *telemetry.Tracer) (*openResult, [][32]byte) {
	got := make([][32]byte, len(in.due))
	ctx := context.Background()
	req := rpc.Message{Method: "cache1.req"}
	res := openLoop(in.due, func(i int, done func(int, error)) {
		sp := bench.Start("rpc.MuxClient.Go")
		req.Payload = in.payload(i)
		err := st.client.Go(ctx, req, func(resp rpc.Message, err error) {
			sp.End()
			if err == nil && copy(got[i][:], resp.Payload) != len(got[i]) {
				err = fmt.Errorf("digest of %d bytes", len(resp.Payload))
			}
			done(i, err)
		})
		if err != nil {
			done(i, err)
		}
	})
	return res, got
}

// checkStorm is async-storm's correctness check: every response equals
// kernels.Hash of its payload. It counts the failures.
func checkStorm(in *stormInput, res *openResult, got [][32]byte) (int, error) {
	failed, first := res.failures()
	for i := range got {
		if res.Errs[i] != nil {
			continue
		}
		if got[i] != kernels.Hash(in.payload(i)) {
			failed++
			if first == nil {
				first = fmt.Errorf("request %d: digest does not match its payload", i)
			}
		}
	}
	return failed, first
}

var asyncStorm = &workload{
	Name: "async-storm",
	Run:  runAsyncStorm,
	Sample: func(p params) (*replaySet, error) {
		cycles, err := newStormCycles(p.Seed, stormCycle, stormBlockSet(p.Seed))
		if err != nil {
			return nil, err
		}
		in := cycles[0]
		rs := &replaySet{
			NewPipeline: func() (*rpc.Pipeline, error) { return rpc.NewPipeline() },
			SpanNames:   []string{"rpc.AsyncServer/cache1.req", "queue-wait", "handler", "park-wait", "resume-wait"},
		}
		for i := 0; i < 256; i++ {
			j := i * (len(in.due) / 256)
			sum := kernels.Hash(in.payload(j))
			cid := map[string]string{rpc.HeaderCID: fmt.Sprintf("%x", j+1)}
			rs.Msgs = append(rs.Msgs,
				rpc.Message{Method: "cache1.req", Headers: cid, Payload: in.payload(j)},
				rpc.Message{Method: "cache1.req", Headers: cid, Payload: sum[:]})
		}
		return rs, nil
	},
}

// runAsyncStorm replays the phase's storm cycles back to back; each cycle
// is one measured segment.
func runAsyncStorm(p params) (ph *phase, err error) {
	blocks := stormBlockSet(p.Seed)
	cycles, err := newStormCycles(p.Seed, secs(p.Seconds), blocks)
	if err != nil {
		return nil, err
	}
	requests := 0
	for _, in := range cycles {
		requests += len(in.due)
	}
	var tracer, bench *telemetry.Tracer
	if p.Traced {
		// Head-sample the server's traces so the retained spans (about
		// six per request) cover the whole phase, storm included.
		tracer, bench = telemetry.NewTracer("async"), newBenchTracer()
		tracer.SetCapacity(benchTraceCap)
		tracer.SetSampleRate(1 + 6*requests/benchTraceCap)
	}
	setup, st, err := timeSetups(setupRepeats, func() (*stormStack, error) { return startStorm(tracer) })
	if err != nil {
		return nil, err
	}
	defer closeInto(st, &err)

	// Warm up at the base rate.
	warm := &stormInput{due: poissonDue(newRand(p.Seed, 5), stormLoad*stormCapacity, int(stormLoad*stormCapacity*warmup.Seconds())), blocks: blocks}
	for i := range warm.due {
		warm.block = append(warm.block, i%stormBlocks)
		warm.size = append(warm.size, 64<<(i%9))
	}
	res, got := replayStorm(st, warm, nil)
	ph = &phase{Attempted: len(warm.due)}
	ph.Failed, ph.FirstErr = checkStorm(warm, res, got)

	pk := &stormPeaks{}
	spans0 := countSpans(tracer)
	es0 := st.eng.Stats()
	var segs []segment
	var lag []time.Duration
	for _, in := range cycles {
		m := startMeter(pk.hook(st))
		res, got := replayStorm(st, in, bench)
		segs = append(segs, segment{Lat: sortedMillis(res.Lat), Wall: res.Wall, U: m.end()})
		lag = append(lag, res.Lag...)
		failed, first := checkStorm(in, res, got)
		ph.Attempted += len(in.due)
		ph.Failed += failed
		if ph.FirstErr == nil {
			ph.FirstErr = first
		}
	}
	spans1 := countSpans(tracer)

	// A worker counts a request served just after writing its response,
	// so the last few counts may trail the client's callbacks.
	es1 := st.eng.Stats()
	for wait := time.Now(); es1.Served < uint64(ph.Attempted) && time.Since(wait) < time.Second; es1 = st.eng.Stats() {
		time.Sleep(time.Millisecond)
	}
	if es1.Errors != 0 || es1.Served != uint64(ph.Attempted) {
		return nil, fmt.Errorf("engine served %d of %d requests with %d errors", es1.Served, ph.Attempted, es1.Errors)
	}
	if ph.Failed > 0 {
		return ph, nil
	}
	if ph.E2E, err = endToEnd(setup, segs); err != nil {
		return nil, err
	}
	ph.Layer = map[string]metric{}
	runtimeLayer(ph.Layer, combined(segs), requests)
	genLayer(ph.Layer, lag)
	served := float64(max(es1.Served-es0.Served, 1))
	ph.Layer["rpc.engine.queue_wait_us"] = metric{Value: float64(es1.QueueWaitNanos-es0.QueueWaitNanos) / served / 1e3, Unit: "us", N: int(served)}
	ph.Layer["rpc.engine.park_wait_us"] = metric{Value: float64(es1.ParkWaitNanos-es0.ParkWaitNanos) / served / 1e3, Unit: "us", N: int(served)}
	pk.mu.Lock()
	ph.Layer["rpc.engine.queue_depth_max"] = metric{Value: float64(pk.queueDepth), Unit: "count"}
	ph.Layer["rpc.engine.parked_max"] = metric{Value: float64(pk.parked), Unit: "count"}
	ph.Layer["kernels.simaccel.inflight_max"] = metric{Value: float64(pk.devInFlight), Unit: "count"}
	ph.Layer["rpc.mux.inflight_max"] = metric{Value: float64(pk.mux), Unit: "count"}
	pk.mu.Unlock()
	if p.Traced {
		spanLayer(ph.Layer, spans0, spans1, requests)
		callLayer(ph.Layer, "rpc.call", bench.Spans(), "rpc.MuxClient.Go")
		tailLayer(ph.Layer, tracer.Spans())
	}
	return ph, nil
}
