package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// The two topology workloads: thin-fanout (closed loop on a benchmark-
// owned graph where RPC cost dominates) and fanout-poisson (open-loop
// ladder on the checked-in two-tier graph where spin dominates).

// thinSpec is thin-fanout's graph: two-tier shaped, ~0.1 spin units per
// node, so per-message RPC and driver cost dominate each request.
const thinSpec = `topology thin-fanout
node Front work=0.05 kernel=0.05 -> Leaf1 Leaf2
node Leaf1 work=0.05 kernel=0.05
node Leaf2 work=0.05 kernel=0.05
`

// twoTierPath is fanout-poisson's graph, relative to the checkout root.
const twoTierPath = "testdata/topologies/two-tier.topo"

const (
	setupRepeats = 101                    // set-ups per run; setup_s is their median
	warmup       = 500 * time.Millisecond // traffic before the measured phase
	maxWarmup    = 5 * time.Second        // longest warm-up that waits for full span rings
	thinTraceCap = 1 << 16                // thin-fanout's span ring per tier
)

// topoStack is one running topology.
type topoStack struct {
	r      *topology.Runner
	cancel context.CancelFunc
}

func (s *topoStack) close() error {
	err := s.r.Close()
	s.cancel()
	return err
}

func startTopo(g *topology.Graph, cfg topology.RunnerConfig) (*topoStack, error) {
	r, err := topology.NewRunner(g, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := r.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	return &topoStack{r: r, cancel: cancel}, nil
}

// checkTopo is the topology correctness check: every node served exactly
// the issued count with zero tier errors.
func checkTopo(r *topology.Runner, issued int) error {
	if err := r.ServeErr(); err != nil {
		return err
	}
	for _, t := range r.Report().Tiers {
		if t.Requests != uint64(issued) || t.Errors != 0 {
			return fmt.Errorf("node %s served %d of %d requests with %d errors", t.Node, t.Requests, issued, t.Errors)
		}
	}
	return nil
}

// smallPayloads draws n seeded payloads of 64 B–1 KiB.
func smallPayloads(seed uint64, n int) [][]byte {
	rng := newRand(seed, 1)
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, 64+rng.IntN(1024-64+1))
		for j := range p {
			p[j] = byte(rng.Uint32())
		}
		out[i] = p
	}
	return out
}

// topoLayer reports the topology driver's per-layer metrics from the
// runner's report and the benchmark's own call spans.
func topoLayer(layer map[string]metric, r *topology.Runner, bench []telemetry.SpanData) {
	callLayer(layer, "topology.call", bench, "topology.Runner.Call")
	rep := r.Report()
	leafP99 := 0.0
	for _, t := range rep.Tiers {
		if t.Depth == 0 {
			layer["topology.root_p50_us"] = metric{Value: t.P50Nanos / 1e3, Unit: "us", N: int(t.Requests)}
			layer["topology.tail_amp"] = metric{Value: t.Amplification, Unit: "x", N: int(t.Requests)}
		}
		if len(r.Graph().Node(t.Node).Children) == 0 {
			leafP99 = max(leafP99, t.P99Nanos)
		}
	}
	layer["topology.leaf_p99_us"] = metric{Value: leafP99 / 1e3, Unit: "us"}
	layer["topology.driver_p50_us"] = metric{
		Value: layer["topology.call_p50_us"].Value - layer["topology.root_p50_us"].Value, Unit: "us",
	}
}

// tracedTopoLayers fills the per-layer metrics of a traced topology phase.
func tracedTopoLayers(layer map[string]metric, r *topology.Runner, bench *telemetry.Tracer) {
	topoLayer(layer, r, bench.Spans())
	spans := r.Spans()
	callLayer(layer, "rpc.call", spans, "rpc.Call/")
	tailLayer(layer, spans)
}

// topoTraceCounts sums span retention over the runner's tracers.
func topoTraceCounts(r *topology.Runner) spanCounts {
	ts := r.TraceStats()
	return spanCounts{recorded: uint64(ts.Spans) + ts.Dropped, dropped: ts.Dropped + ts.SampledOut}
}

// topoSample is the replay sample of a topology workload: the root
// request as the runner sends it (trace context attached when tracing)
// and the tier's one-byte response.
func topoSample(payloads [][]byte, traced bool, n int) *replaySet {
	tr := telemetry.NewTracer("replay")
	rs := &replaySet{NewPipeline: func() (*rpc.Pipeline, error) { return rpc.NewPipeline() }}
	for i := 0; i < n; i++ {
		req := rpc.Message{Method: "Front.req", Payload: payloads[i%len(payloads)]}
		if traced {
			sp := tr.Start("topo.request")
			req = rpc.WithTraceContext(req, sp)
			sp.End()
		}
		rs.Msgs = append(rs.Msgs, req, rpc.Message{Method: "Front.req", Payload: []byte{1}})
	}
	rs.SpanNames = []string{"topo.request", "rpc.Call/Front.req", "rpc.Server/Front.req", "topo.work"}
	return rs
}

var thinFanout = &workload{
	Name: "thin-fanout",
	Run:  runThinFanout,
	Sample: func(p params) (*replaySet, error) {
		return topoSample(smallPayloads(p.Seed, 512), true, 256), nil
	},
}

func runThinFanout(p params) (ph *phase, err error) {
	g, err := topology.ParseSpec(thinSpec)
	if err != nil {
		return nil, err
	}
	payloads := smallPayloads(p.Seed, 512)
	cfg := topology.RunnerConfig{PoolSize: p.Nproc, Trace: true, TraceSampleRate: 1, TraceCapacity: thinTraceCap}
	setup, st, err := timeSetups(setupRepeats, func() (*topoStack, error) { return startTopo(g, cfg) })
	if err != nil {
		return nil, err
	}
	defer closeInto(st, &err)

	ctx := context.Background()
	var bench *telemetry.Tracer
	call := func(w, k int) error {
		_, err := st.r.Call(ctx, payloads[(k*p.Nproc+w)%len(payloads)])
		return err
	}
	// Warm up until every tier's span ring is full, so that the measured
	// phase pays the steady-state cost of the retained spans.
	warm := &closedResult{}
	for start := time.Now(); time.Since(start) < maxWarmup; {
		r := closedLoop(p.Nproc, warmup, call)
		warm.Calls += r.Calls
		warm.Failed += r.Failed
		if warm.First == nil {
			warm.First = r.First
		}
		if st.r.TraceStats().Spans >= thinTraceCap*(len(g.Nodes)+1) {
			break
		}
	}
	if p.Traced {
		bench = newBenchTracer()
		call = func(w, k int) error {
			sp := bench.Start("topology.Runner.Call")
			_, err := st.r.Call(ctx, payloads[(k*p.Nproc+w)%len(payloads)])
			sp.End()
			return err
		}
	}
	spans0 := topoTraceCounts(st.r)
	segs, res := measureClosed(p.Nproc, secs(p.Seconds), call)
	spans1 := topoTraceCounts(st.r)

	ph = &phase{Attempted: warm.Calls + res.Calls, Failed: warm.Failed + res.Failed, FirstErr: warm.First}
	if ph.FirstErr == nil {
		ph.FirstErr = res.First
	}
	if err := checkTopo(st.r, ph.Attempted); err != nil {
		return nil, err
	}
	if ph.E2E, err = endToEnd(setup, segs); err != nil {
		return nil, err
	}
	ph.Layer = map[string]metric{}
	runtimeLayer(ph.Layer, combined(segs), res.Calls)
	spanLayer(ph.Layer, spans0, spans1, res.Calls)
	if p.Traced {
		tracedTopoLayers(ph.Layer, st.r, bench)
	}
	return ph, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// The fanout-poisson ladder: absolute offered rates from ~35% to ~115%
// of the workload's capacity on the reference host (~480 req/s, see
// README.md). Arrivals are per rung at ladderRefSeconds and grow with
// longer runs, never shrink: 1000 arrivals is the least that supports a
// p99 with ten samples beyond it. The nominal rung gets twice that, run
// as nominalSegments back-to-back slices of 200 arrivals, each with ten
// samples beyond its p95.
var ladder = []struct {
	Rate     float64
	Arrivals int
}{
	{170, 1000}, {240, 2000}, {340, 1000}, {400, 1000},
	{450, 1000}, {500, 1000}, {560, 1000},
}

const (
	ladderRefSeconds = 25
	nominalRung      = 1 // 240 req/s, ~50% of capacity: the end-to-end metrics are taken here
	// nominalSegments is how many separately metered slices the nominal
	// rung runs in; its end-to-end metrics are medians over them, so one
	// host stall moves one slice, not every figure.
	nominalSegments = closedSegments
	// poissonSLO is fanout-poisson's due-time p99 limit: about three
	// times the unloaded p99 (~8 ms) on the reference host.
	poissonSLO = 25 * time.Millisecond
)

// rungArrivals is the arrival count of ladder rung i in a run of the
// given seconds.
func rungArrivals(i int, seconds float64) int {
	n := ladder[i].Arrivals
	return max(n, int(math.Round(float64(n)*seconds/ladderRefSeconds)))
}

// rungRun is one measured rung.
type rungRun struct {
	rung
	P50      float64
	Lat      []float64 // sorted ms, all slices
	Segs     []segment
	Lag      []time.Duration
	Issued   int
	Failed   int
	FirstErr error
}

var fanoutPoisson = &workload{
	Name: "fanout-poisson",
	Run:  runFanoutPoisson,
	Sample: func(p params) (*replaySet, error) {
		return topoSample(smallPayloads(p.Seed, 512), false, 256), nil
	},
}

// runFanoutPoisson runs the ladder from its lowest rung up to the first
// rung that misses the SLO and interpolates the knee. In a traced run
// each half runs the nominal rung alone, for the half's whole time.
func runFanoutPoisson(p params) (ph *phase, err error) {
	g, err := topology.ParseSpecFile(twoTierPath)
	if err != nil {
		return nil, err
	}
	payloads := smallPayloads(p.Seed, 512)
	cfg := topology.RunnerConfig{PoolSize: p.Nproc, Trace: p.Traced}
	if p.Traced {
		cfg.TraceCapacity = benchTraceCap
	}
	setup, st, err := timeSetups(setupRepeats, func() (*topoStack, error) { return startTopo(g, cfg) })
	if err != nil {
		return nil, err
	}
	defer closeInto(st, &err)

	var bench *telemetry.Tracer
	if p.Traced {
		bench = newBenchTracer()
	}
	ctx := context.Background()
	issue := func(i int, done func(int, error)) {
		go func() {
			sp := bench.Start("topology.Runner.Call")
			_, err := st.r.Call(ctx, payloads[i%len(payloads)])
			sp.End()
			done(i, err)
		}()
	}
	// runRung offers rate in parts back-to-back slices of arrivals/parts
	// Poisson arrivals each, metering each slice on its own.
	runRung := func(rate float64, arrivals, parts int, rng *rand.Rand) *rungRun {
		rr := &rungRun{}
		rr.Rate = rate
		var lat []time.Duration // arrival order, for the backlog test
		for k := 0; k < parts; k++ {
			due := poissonDue(rng, rate, arrivals/parts)
			m := startMeter()
			res := openLoop(due, issue)
			rr.Segs = append(rr.Segs, segment{Lat: sortedMillis(res.Lat), Wall: res.Wall, U: m.end()})
			lat = append(lat, res.Lat...)
			rr.Lag = append(rr.Lag, res.Lag...)
			rr.Issued += len(due)
			n, first := res.failures()
			rr.Failed += n
			if rr.FirstErr == nil {
				rr.FirstErr = first
			}
		}
		rr.Lat = sortedMillis(lat)
		rr.P50 = percentile(rr.Lat, 0.5).Value
		rr.P99 = percentile(rr.Lat, 0.99).Value
		rr.Backlog = backlogGrew(lat, poissonSLO)
		return rr
	}

	issued, failed := 0, 0
	var firstErr error
	account := func(rr *rungRun) {
		issued += rr.Issued
		failed += rr.Failed
		if firstErr == nil {
			firstErr = rr.FirstErr
		}
	}
	account(runRung(ladder[0].Rate, int(ladder[0].Rate*warmup.Seconds()), 1, newRand(p.Seed, 50)))

	var rungs []*rungRun
	var nominal *rungRun
	spans0 := topoTraceCounts(st.r)
	if p.Traced || p.Half {
		l := ladder[nominalRung]
		n := max(l.Arrivals, int(l.Rate*p.Seconds))
		nominal = runRung(l.Rate, n, nominalSegments, newRand(p.Seed, 100+nominalRung))
		account(nominal)
	} else {
		for i, l := range ladder {
			parts := 1
			if i == nominalRung {
				parts = nominalSegments
			}
			rr := runRung(l.Rate, rungArrivals(i, p.Seconds), parts, newRand(p.Seed, uint64(100+i)))
			account(rr)
			rungs = append(rungs, rr)
			if i == nominalRung {
				nominal = rr
			}
			// The nominal rung always runs: it carries the end-to-end metrics.
			if i >= nominalRung && !rr.meets(float64(poissonSLO)/1e6) {
				break
			}
		}
	}
	spans1 := topoTraceCounts(st.r)

	ph = &phase{Attempted: issued, Failed: failed, FirstErr: firstErr}
	if err := checkTopo(st.r, issued); err != nil {
		return nil, err
	}
	if ph.Failed > 0 {
		return ph, nil
	}
	if ph.E2E, err = endToEnd(setup, nominal.Segs); err != nil {
		return nil, fmt.Errorf("nominal rung: %w", err)
	}

	if len(rungs) > 0 {
		ladderRows := make([]rung, len(rungs))
		ph.Notes = append(ph.Notes, fmt.Sprintf("# ladder (due-time latency, SLO p99 <= %v)", poissonSLO))
		for i, rr := range rungs {
			ladderRows[i] = rr.rung
			ph.Notes = append(ph.Notes, fmt.Sprintf("rung %4.0f req/s  p50 %8.3f ms  p99 %8.3f ms  backlog %-5t n=%d",
				rr.Rate, rr.P50, rr.P99, rr.Backlog, len(rr.Lat)))
		}
		for _, rr := range rungs {
			if _, err := supported(rr.Lat, 0.99); err != nil {
				return nil, fmt.Errorf("rung %.0f req/s: %w\n%s", rr.Rate, err, strings.Join(ph.Notes, "\n"))
			}
		}
		// knee_rps is not in the result line, so a ladder that does not
		// bracket the crossing is reported as such rather than failing the
		// run's gated metrics; it is never given a capped value.
		if k, err := knee(ladderRows, float64(poissonSLO)/1e6); err != nil {
			ph.Notes = append(ph.Notes, "knee_rps not measured: "+err.Error())
		} else {
			ph.Notes = append(ph.Notes, fmt.Sprintf("%-38s %14.4f %-9s n=%d", "knee_rps", k, "1/s", len(rungs)))
		}
	}

	ph.Layer = map[string]metric{}
	runtimeLayer(ph.Layer, combined(nominal.Segs), nominal.Issued)
	genLayer(ph.Layer, nominal.Lag)
	spanLayer(ph.Layer, spans0, spans1, issued)
	if p.Traced {
		tracedTopoLayers(ph.Layer, st.r, bench)
	}
	return ph, nil
}
