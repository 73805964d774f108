package topology

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// DefaultUnitIters is the xorshift iteration count per spin unit —
// identical to the single-service measured-vs-model test so unit counts
// mean the same thing in both.
const DefaultUnitIters = 5000

// RunnerConfig shapes a live topology run.
type RunnerConfig struct {
	// Accel, when non-nil, replaces every node's kernel cost with the
	// modeled offload cost (work + O0 + L + kernel/A spin units) — the
	// accelerated arm of an A/B against a baseline Runner.
	Accel *AccelConfig
	// PoolSize is the number of pooled clients per graph edge
	// (default 4); it bounds each edge's concurrent downstream calls.
	PoolSize int
	// CallTimeout bounds each downstream call (default 10s).
	CallTimeout time.Duration
	// UnitIters is the spin cost of one work unit (default
	// DefaultUnitIters); tests shrink it to keep runs fast.
	UnitIters int
	// Async serves every node through a completion-queue engine backed
	// by a per-node simulated accelerator: the handler burns the host
	// share (Work + O0 spin units) on an engine worker, parks while the
	// device covers the offload's wall time (L + Kernel/A units), and
	// the pooled continuation fans out to children — the paper's
	// AsyncSameThread threading design, instead of Accel's sync arm
	// where the whole accelerated cost stays on the serving thread.
	// Requires Accel.
	Async bool
	// AsyncWorkers bounds each node's completion-queue engine pool
	// (default 4). Only meaningful with Async.
	AsyncWorkers int
	// Registry, when non-nil, registers per-node latency histograms
	// (topo_<node>_latency_nanos), error counters and the end-to-end
	// histogram (topo_e2e_latency_nanos) for -metrics-out / -debug-addr
	// export. Without it the Runner keeps standalone histograms.
	Registry *telemetry.Registry
	// Trace collects request-centric spans across every tier: each
	// node's server and outgoing edges share a per-node tracer (span
	// Process = node name), Runner.Call roots a synthetic topo.request
	// span, and handlers plant trace context on mid-request fan-out so
	// one request's spans from all tiers assemble into a single tree
	// (internal/tailtrace).
	Trace bool
	// TraceSampleRate keeps 1 in N traces when tracing (default 1 =
	// all). The verdict is a deterministic hash of the trace ID, so
	// every tier reaches the same keep/drop decision independently.
	TraceSampleRate int
	// TraceCapacity bounds each tier tracer's span ring (default 65536
	// spans); the oldest spans are evicted first on long soaks.
	TraceCapacity int
}

func (c *RunnerConfig) setDefaults() {
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 10 * time.Second
	}
	if c.UnitIters <= 0 {
		c.UnitIters = DefaultUnitIters
	}
	if c.AsyncWorkers <= 0 {
		c.AsyncWorkers = 4
	}
}

// edge is one dialed graph edge: the pooled clients to the target node
// and the method its requests carry, built once at dial time.
type edge struct {
	pool   *rpc.ClientPool
	method string // "<target>.req"
}

// nodeRuntime is one live node: a real rpc.Server on loopback plus the
// edge callers for its children.
type nodeRuntime struct {
	node  *Node
	depth int
	iters int64 // local spin cost per request (host share under Async)

	// Async mode: the node's simulated accelerator covers devIters
	// worth of wall time per request while the continuation parks.
	devIters int64
	dev      *kernels.SimAccel
	eng      *rpc.Engine
	resumeFn rpc.ResumeFunc // bound once so parking allocates no closure

	lis   net.Listener
	srv   *rpc.Server
	edges []edge // index-aligned with node.Children

	latency *telemetry.Histogram
	errors  *telemetry.Counter
	tracer  *telemetry.Tracer // per-node span sink (nil without Trace)

	runner *Runner
}

// Runner drives a Graph as live rpc.Servers on loopback.
type Runner struct {
	graph *Graph
	cfg   RunnerConfig

	nodes  []*nodeRuntime // graph declaration order
	byName map[string]*nodeRuntime
	roots  []edge // index-aligned with graph.Roots()
	e2e    *telemetry.Histogram
	tracer *telemetry.Tracer // the injector's span sink (nil without Trace)

	serveErrs chan error
	closeOnce sync.Once
	closeErr  error
	started   bool
}

// NewRunner validates the configuration against the graph. Call Start
// to bring the servers up.
func NewRunner(g *Graph, cfg RunnerConfig) (*Runner, error) {
	if g == nil || len(g.Nodes) == 0 {
		return nil, fmt.Errorf("topology: runner: empty graph")
	}
	if cfg.Accel != nil {
		if err := cfg.Accel.validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Async && cfg.Accel == nil {
		return nil, fmt.Errorf("topology: runner: Async requires Accel (the offload parameters)")
	}
	cfg.setDefaults()
	r := &Runner{
		graph:     g,
		cfg:       cfg,
		byName:    make(map[string]*nodeRuntime, len(g.Nodes)),
		serveErrs: make(chan error, len(g.Nodes)),
	}
	if cfg.Trace {
		r.tracer = cfg.newTracer("client")
	}
	var err error
	if r.e2e, err = r.histogram("topo_e2e_latency_nanos",
		"end-to-end topology request latency in nanoseconds"); err != nil {
		return nil, err
	}
	for _, n := range g.Nodes {
		units := n.TotalUnits()
		var devUnits float64
		if cfg.Accel != nil {
			units = cfg.Accel.AcceleratedUnits(n)
			if cfg.Async {
				// Split the accelerated cost: Work + O0 stays on the
				// engine worker, L + Kernel/A elapses on the device
				// while the continuation is parked.
				devUnits = cfg.Accel.L + n.Kernel/cfg.Accel.A
				units -= devUnits
			}
		}
		nr := &nodeRuntime{
			node:     n,
			depth:    g.Depth(n.Name),
			iters:    int64(units * float64(cfg.UnitIters)),
			devIters: int64(devUnits * float64(cfg.UnitIters)),
			runner:   r,
		}
		nr.resumeFn = nr.resumeAsync
		if cfg.Trace {
			nr.tracer = cfg.newTracer(n.Name)
		}
		if nr.latency, err = r.histogram("topo_"+metricName(n.Name)+"_latency_nanos",
			"per-request latency at node "+n.Name+" in nanoseconds"); err != nil {
			return nil, err
		}
		if cfg.Registry != nil {
			if nr.errors, err = cfg.Registry.Counter("topo_"+metricName(n.Name)+"_errors_total",
				"failed requests at node "+n.Name); err != nil {
				return nil, err
			}
		} else {
			nr.errors = &telemetry.Counter{}
		}
		r.nodes = append(r.nodes, nr)
		r.byName[n.Name] = nr
	}
	return r, nil
}

// newTracer builds one tier's span sink at the configured ring capacity
// and head-sampling rate.
func (c *RunnerConfig) newTracer(process string) *telemetry.Tracer {
	t := telemetry.NewTracer(process)
	if c.TraceCapacity > 0 {
		t.SetCapacity(c.TraceCapacity)
	}
	t.SetSampleRate(c.TraceSampleRate)
	return t
}

func (r *Runner) histogram(name, help string) (*telemetry.Histogram, error) {
	if r.cfg.Registry != nil {
		return r.cfg.Registry.Histogram(name, help)
	}
	return telemetry.NewHistogram(name, help), nil
}

// metricName lowers a node name into the Prometheus charset.
func metricName(node string) string {
	return strings.ToLower(strings.ReplaceAll(node, "-", "_"))
}

// Graph returns the topology under the runner.
func (r *Runner) Graph() *Graph { return r.graph }

// Start brings every node's server up on its own loopback listener,
// then dials the graph's edges (child servers must be accepting before
// parents connect). Cancelling ctx force-closes all connections; use
// Close for a graceful drain.
func (r *Runner) Start(ctx context.Context) error {
	if r.started {
		return fmt.Errorf("topology: runner already started")
	}
	r.started = true
	var perIter float64 // calibrated nanoseconds per spin iteration
	if r.cfg.Async {
		perIter = calibrateSpinNanos()
	}
	for _, nr := range r.nodes {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.Close() //modelcheck:ignore errdrop — best-effort unwind, the listen error is reported
			return fmt.Errorf("topology: node %s: %w", nr.node.Name, err)
		}
		nr.lis = lis
		var srv *rpc.Server
		if r.cfg.Async {
			srv, err = nr.startAsync(perIter)
		} else {
			srv, err = rpc.NewServer(nr.handle, nil)
		}
		if err != nil {
			r.Close() //modelcheck:ignore errdrop — best-effort unwind, the server error is reported
			return fmt.Errorf("topology: node %s: %w", nr.node.Name, err)
		}
		if nr.tracer != nil {
			srv.Instrument(&rpc.Instrumentation{Tracer: nr.tracer})
		}
		nr.srv = srv
		go func(nr *nodeRuntime) {
			if err := nr.srv.Serve(ctx, nr.lis); err != nil && ctx.Err() == nil {
				select {
				case r.serveErrs <- fmt.Errorf("topology: node %s: %w", nr.node.Name, err):
				default:
				}
			}
		}(nr)
	}
	for _, nr := range r.nodes {
		for _, child := range nr.node.Children {
			// The edge's spans (rpc.Call and its stages) belong to the
			// calling node's timeline, so the parent's tracer rides along.
			e, err := r.dialEdge(r.byName[child], nr.tracer)
			if err != nil {
				r.Close() //modelcheck:ignore errdrop — best-effort unwind, the dial error is reported
				return fmt.Errorf("topology: edge %s -> %s: %w", nr.node.Name, child, err)
			}
			nr.edges = append(nr.edges, e)
		}
	}
	for _, root := range r.graph.Roots() {
		e, err := r.dialEdge(r.byName[root], r.tracer)
		if err != nil {
			r.Close() //modelcheck:ignore errdrop — best-effort unwind, the dial error is reported
			return fmt.Errorf("topology: root %s: %w", root, err)
		}
		r.roots = append(r.roots, e)
	}
	return nil
}

// dialEdge connects an upstream caller to a node's listener; tracer
// (optional) instruments every pooled client so each downstream call
// produces a joined rpc.Call span on the caller's timeline.
func (r *Runner) dialEdge(target *nodeRuntime, tracer *telemetry.Tracer) (edge, error) {
	addr := target.lis.Addr().String()
	pool, err := rpc.NewClientPool(r.cfg.PoolSize, func() (*rpc.Client, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		c, err := rpc.NewClient(conn, nil)
		if err != nil {
			return nil, err
		}
		if tracer != nil {
			c.Instrument(&rpc.Instrumentation{Tracer: tracer})
		}
		return c, nil
	})
	return edge{pool: pool, method: target.node.Name + ".req"}, err
}

// handle is every node's rpc.Handler: burn the node's local spin cost,
// then fan out to all children concurrently and wait for each response.
// Per-node latency (handler entry to return, i.e. including the whole
// downstream subtree) is recorded on success.
func (nr *nodeRuntime) handle(ctx context.Context, req rpc.Message) (rpc.Message, error) {
	start := time.Now()
	sp := telemetry.SpanFromContext(ctx) // the server span, when traced
	spinIters(nr.iters)
	sp.ChildDoneCat("topo.work", telemetry.CatWork, start, time.Since(start))
	if err := nr.fanOut(ctx, req, sp); err != nil {
		nr.errors.Inc()
		return rpc.Message{}, err
	}
	nr.latency.Record(float64(time.Since(start)))
	return rpc.Message{Method: req.Method, Payload: []byte{1}}, nil
}

// fanOut issues req to every child and waits for all of them. sp
// (optional) is the node's server-side span: its trace context rides the
// downstream requests so each child tier joins the same trace.
func (nr *nodeRuntime) fanOut(ctx context.Context, req rpc.Message, sp *telemetry.Span) error {
	if err := nr.runner.callEdges(ctx, nr.edges, req.Payload, sp); err != nil {
		return fmt.Errorf("%s: downstream: %w", nr.node.Name, err)
	}
	return nil
}

// callEdges issues payload to every edge concurrently, each call bounded
// by CallTimeout and carrying sp's trace context, waits for all of them
// and returns the first failure. It is the one call path for both root
// injection and mid-request fan-out. The last edge runs on the calling
// goroutine, so a single edge starts no goroutine.
func (r *Runner) callEdges(ctx context.Context, edges []edge, payload []byte, sp *telemetry.Span) error {
	n := len(edges)
	if n == 0 {
		return nil
	}
	var errc chan error
	if n > 1 {
		errc = make(chan error, n-1)
		for i := range edges[:n-1] {
			go func(e *edge) { errc <- r.callEdge(ctx, e, payload, sp) }(&edges[i])
		}
	}
	firstErr := r.callEdge(ctx, &edges[n-1], payload, sp)
	for i := 0; i < n-1; i++ {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// callEdge issues one call on e under a fresh CallTimeout.
func (r *Runner) callEdge(ctx context.Context, e *edge, payload []byte, sp *telemetry.Span) error {
	cctx, cancel := context.WithTimeout(ctx, r.cfg.CallTimeout)
	defer cancel()
	_, err := e.pool.CallContext(cctx, rpc.WithTraceContext(rpc.Message{Method: e.method, Payload: payload}, sp))
	return err
}

// startAsync stands up the node's accelerator, completion-queue engine
// and async server. perIter converts calibrated spin units into the
// device's wall-time latency.
func (nr *nodeRuntime) startAsync(perIter float64) (*rpc.Server, error) {
	dev, err := kernels.NewSimAccel(kernels.SimAccelConfig{
		Latency: time.Duration(perIter * float64(nr.devIters)),
	})
	if err != nil {
		return nil, err
	}
	eng, err := rpc.NewEngine(rpc.EngineConfig{Workers: nr.runner.cfg.AsyncWorkers})
	if err != nil {
		dev.Close() //modelcheck:ignore errdrop — best-effort unwind, the engine error is reported
		return nil, err
	}
	nr.dev, nr.eng = dev, eng
	return rpc.NewAsyncServer(nr.handleAsync, eng, nil)
}

// handleAsync burns the host share of the node's cost, then parks the
// request on the node's device for the offload's wall time. Nodes whose
// device time rounds to zero still park: the engine round trip is the
// per-offload overhead the async model charges.
func (nr *nodeRuntime) handleAsync(_ context.Context, req rpc.Message, ac *rpc.AsyncCall) (rpc.Message, error) {
	ac.Scratch = uint64(time.Now().UnixNano())
	spinIters(nr.iters)
	if err := ac.Park(nr.dev, uint64(nr.devIters), nr.resumeFn); err != nil {
		nr.errors.Inc()
		return rpc.Message{}, err
	}
	return rpc.Message{}, nil
}

// resumeAsync is the parked continuation: the device has covered the
// offload latency, so fan out to the children and respond. Latency is
// recorded from handler entry (stashed in Scratch) so sync and async
// tiers report the same quantity.
func (nr *nodeRuntime) resumeAsync(ctx context.Context, ac *rpc.AsyncCall) (rpc.Message, error) {
	req := ac.Request()
	if err := nr.fanOut(ctx, req, ac.Span()); err != nil {
		nr.errors.Inc()
		return rpc.Message{}, err
	}
	nr.latency.Record(float64(time.Now().UnixNano() - int64(ac.Scratch)))
	return rpc.Message{Method: req.Method, Payload: []byte{1}}, nil
}

// calibrateSpinNanos times the spin loop so device latencies line up
// with what the same units would cost on the host.
func calibrateSpinNanos() float64 {
	const n = 1 << 21
	start := time.Now()
	spinIters(n)
	return float64(time.Since(start)) / float64(n)
}

// Call injects one request at every root concurrently and waits for all
// of them; the slowest root defines the request's end-to-end latency,
// which is recorded in the e2e histogram on success. The first failure is
// returned: a failed child call comes back as the parent's remote error
// "<parent>: downstream: ...", unless the root call's own CallTimeout,
// which started first, expires before the parent answers.
func (r *Runner) Call(ctx context.Context, payload []byte) (time.Duration, error) {
	if len(r.roots) == 0 {
		return 0, fmt.Errorf("topology: runner not started")
	}
	// The synthetic root span brackets the whole injection, so a traced
	// request's critical-path attribution and its measured end-to-end
	// latency are the same interval by construction.
	sp := r.tracer.Start("topo.request")
	start := time.Now()
	err := r.callEdges(ctx, r.roots, payload, sp)
	elapsed := time.Since(start)
	sp.End()
	if err != nil {
		return elapsed, err
	}
	r.e2e.Record(float64(elapsed))
	return elapsed, nil
}

// E2ESnapshot returns the end-to-end latency histogram's current state;
// the measured-vs-model test windows it with Delta to exclude warmup.
func (r *Runner) E2ESnapshot() telemetry.HistogramSnapshot { return r.e2e.Snapshot() }

// AsyncStats sums every node engine's counters — the live view behind
// the debug server's async panel. Zero value when the runner is not in
// Async mode (or not started).
func (r *Runner) AsyncStats() rpc.EngineStats {
	var total rpc.EngineStats
	for _, nr := range r.nodes {
		if nr.eng == nil {
			continue
		}
		s := nr.eng.Stats()
		total.Workers += s.Workers
		total.InFlight += s.InFlight
		total.Parked += s.Parked
		total.QueueDepth += s.QueueDepth
		total.Served += s.Served
		total.Errors += s.Errors
		total.QueueWaitNanos += s.QueueWaitNanos
		total.ParkWaitNanos += s.ParkWaitNanos
	}
	return total
}

// Tracing reports whether the runner collects request spans.
func (r *Runner) Tracing() bool { return r.tracer != nil }

// Spans concatenates every tier's retained spans with the injector's —
// the raw material internal/tailtrace assembles into per-request trace
// trees. Nil when the runner is not tracing.
func (r *Runner) Spans() []telemetry.SpanData {
	if r.tracer == nil {
		return nil
	}
	out := r.tracer.Spans()
	for _, nr := range r.nodes {
		out = append(out, nr.tracer.Spans()...)
	}
	return out
}

// TraceStats summarizes span retention across all tiers.
type TraceStats struct {
	Spans      int    // spans currently retained
	Dropped    uint64 // spans evicted from the rings
	SampledOut uint64 // spans discarded by head sampling
}

// TraceStats sums retention counters over the injector and every tier.
func (r *Runner) TraceStats() TraceStats {
	var ts TraceStats
	tracers := []*telemetry.Tracer{r.tracer}
	for _, nr := range r.nodes {
		tracers = append(tracers, nr.tracer)
	}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		ts.Spans += len(t.Spans())
		ts.Dropped += t.Dropped()
		ts.SampledOut += t.SampledOut()
	}
	return ts
}

// ServeErr reports the first background Serve failure, if any.
func (r *Runner) ServeErr() error {
	select {
	case err := <-r.serveErrs:
		return err
	default:
		return nil
	}
}

// Close tears the topology down: root injectors first, then every
// edge's clients (draining in-flight downstream calls with connection
// errors), then the servers. Close is idempotent and safe to call
// concurrently; repeat calls return the first result.
func (r *Runner) Close() error {
	r.closeOnce.Do(func() {
		var first error
		keep := func(err error) {
			if err != nil && first == nil {
				first = err
			}
		}
		for _, e := range r.roots {
			keep(e.pool.Close())
		}
		for _, nr := range r.nodes {
			for _, e := range nr.edges {
				keep(e.pool.Close())
			}
		}
		for _, nr := range r.nodes {
			if nr.srv != nil {
				keep(nr.srv.Close())
			}
			if nr.eng != nil {
				keep(nr.eng.Close())
			}
			if nr.dev != nil {
				keep(nr.dev.Close())
			}
			if nr.lis != nil {
				// Server.Close already closed the listener on the normal
				// path; this covers unwinding a partially-started node.
				nr.lis.Close() //modelcheck:ignore errdrop — second close of an already-closed listener
			}
		}
		r.closeErr = first
	})
	return r.closeErr
}

// TierStat is one node's measured latency distribution plus its tail
// amplification relative to its children.
type TierStat struct {
	Node     string  `json:"node"`
	Depth    int     `json:"depth"`
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	P50Nanos float64 `json:"p50_nanos"`
	P99Nanos float64 `json:"p99_nanos"`
	// Amplification is this node's p99 over the largest child p99 — how
	// much the tail grew across this hop (1 for leaves).
	Amplification float64 `json:"amplification"`
}

// Report is a point-in-time view of the running topology.
type Report struct {
	Name  string     `json:"name"`
	Tiers []TierStat `json:"tiers"` // sorted by (depth, name)
	// E2E summarizes the injected requests' end-to-end latency.
	E2ERequests uint64  `json:"e2e_requests"`
	E2EP50Nanos float64 `json:"e2e_p50_nanos"`
	E2EP99Nanos float64 `json:"e2e_p99_nanos"`
}

// Report snapshots every node's histogram and computes hop-by-hop tail
// amplification. Safe to call while the generator is running; the debug
// server's topology panel renders it live.
func (r *Runner) Report() Report {
	rep := Report{Name: r.graph.Name}
	snaps := make(map[string]telemetry.HistogramSnapshot, len(r.nodes))
	for _, nr := range r.nodes {
		snaps[nr.node.Name] = nr.latency.Snapshot()
	}
	for _, nr := range r.nodes {
		s := snaps[nr.node.Name]
		ts := TierStat{
			Node:          nr.node.Name,
			Depth:         nr.depth,
			Requests:      s.Count,
			Errors:        nr.errors.Value(),
			P50Nanos:      s.Quantile(0.5),
			P99Nanos:      s.Quantile(0.99),
			Amplification: 1,
		}
		maxChild := 0.0
		for _, c := range nr.node.Children {
			if p := snaps[c].Quantile(0.99); p > maxChild {
				maxChild = p
			}
		}
		if maxChild > 0 {
			ts.Amplification = ts.P99Nanos / maxChild
		}
		rep.Tiers = append(rep.Tiers, ts)
	}
	sort.Slice(rep.Tiers, func(i, j int) bool {
		if rep.Tiers[i].Depth != rep.Tiers[j].Depth {
			return rep.Tiers[i].Depth < rep.Tiers[j].Depth
		}
		return rep.Tiers[i].Node < rep.Tiers[j].Node
	})
	e2e := r.e2e.Snapshot()
	rep.E2ERequests = e2e.Count
	rep.E2EP50Nanos = e2e.Quantile(0.5)
	rep.E2EP99Nanos = e2e.Quantile(0.99)
	return rep
}

// spinSink defeats dead-code elimination of the spin loop; handlers on
// different nodes spin concurrently, hence the atomic.
var spinSink atomic.Uint64

// spinIters burns a deterministic amount of CPU: the same xorshift loop
// the repository's single-service measured-vs-model test uses, so spin
// units are directly comparable.
func spinIters(n int64) {
	x := uint64(2463534242)
	for i := int64(0); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Add(x)
}
