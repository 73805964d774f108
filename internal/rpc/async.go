package rpc

// Completion-queue async serving: the execution of the paper's Async
// threading designs (§4). The blocking path ties one goroutine to every
// in-flight request for its whole lifetime — including the offload
// latency L during which the host does nothing. Here, a handler that
// reaches its offload point *arms* the offload (AsyncCall.Park) and
// returns; the engine submits the work to the accelerator, the request's
// state stays behind in a pooled continuation struct, and a small fixed
// pool of completion workers resumes continuations as the device
// completion queue drains. N in-flight offloads therefore cost O(workers)
// goroutines and zero per-request goroutine stacks — the property the
// 100k soak and BENCH_async gates pin.
//
// Pooled-state ownership (poolcheck discipline applies to the buffers,
// and the same rules are documented here for the continuations): an
// AsyncCall is owned by exactly one party at a time — the worker running
// its handler, then (if parked) the device, then the worker running its
// resume. finish is the single release point; after it, the struct is
// back in the pool and must not be touched.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/kernels"
	"repro/internal/telemetry"
)

// HeaderCID is the correlation-id header: a client that multiplexes many
// in-flight calls over one connection (MuxClient) tags each request, and
// the async server echoes the tag on the response so completions can
// return out of order. Absent on a request, the response carries no tag —
// pooled one-call-at-a-time clients keep working unchanged.
const HeaderCID = "x-cid"

// ErrEngineClosed is reported to requests dispatched to, or completed on,
// an engine that has been closed.
var ErrEngineClosed = errors.New("rpc: async engine closed")

// Offloader is the device side of the async path: SimAccel satisfies it.
// Submit must either return an error synchronously (keeping request-state
// ownership with the caller) or arrange for c.Complete to fire exactly
// once.
type Offloader interface {
	Submit(ctx context.Context, g uint64, c kernels.Completer) error
}

// AsyncHandler is the async counterpart of Handler: it runs the
// host-side stage of a request on an engine worker. To finish
// synchronously, return the response. To offload, call ac.Park to arm the
// submission and return; the engine submits after the handler returns,
// parks the continuation, and runs the resume function when the device
// completes. The returned Message is ignored when the call is parked.
type AsyncHandler func(ctx context.Context, req Message, ac *AsyncCall) (Message, error)

// ResumeFunc is a parked request's continuation: it runs on an engine
// worker after the offload completes and produces the response. Keep
// resume functions as package-level funcs where possible — a closure per
// request is an allocation the pooled continuation exists to avoid.
type ResumeFunc func(ctx context.Context, ac *AsyncCall) (Message, error)

// AsyncCall states. Ownership transfers at each step; the state field is
// only ever read/written by the single current owner, except the
// stateParked→stateResumed transition which happens on the device's
// dispatcher goroutine (made safe because the worker stops touching the
// struct the moment it hands it to Offloader.Submit).
const (
	stateNew     = iota // dispatched, handler not yet run
	stateResumed        // offload complete, resume pending
)

// AsyncCall is the pooled continuation: everything a parked request needs
// to resume — decoded request, connection writer, correlation id, armed
// offload, and a scratch word for handler→resume data. It doubles as the
// device Completer so parking allocates nothing.
type AsyncCall struct {
	eng   *Engine
	h     AsyncHandler
	cw    *connWriter
	ctx   context.Context
	req   Message
	cid   string
	sp    *telemetry.Span
	state int32

	// Wait timestamps: enqT is stamped at each enqueue (dispatch and
	// Complete), parkT when the worker hands the call to the device,
	// doneT when the device doorbell fires. They feed the queue-wait /
	// park-wait child spans and the engine's cumulative wait counters.
	enqT  time.Time
	parkT time.Time
	doneT time.Time

	// Armed offload (set by Park, consumed by the engine worker).
	dev    Offloader
	g      uint64
	resume ResumeFunc
	offErr error

	// Scratch carries a handler-computed value to the resume function
	// without a per-request allocation (e.g. a partial digest index).
	Scratch uint64
}

// Request returns the decoded request message. The message (headers map
// and payload) stays valid until the response is written: the resume
// function may read it.
func (ac *AsyncCall) Request() Message { return ac.req }

// Context returns the connection's serve context.
func (ac *AsyncCall) Context() context.Context { return ac.ctx }

// Span returns the request's server-side span (nil when the server is
// uninstrumented), so handlers and resume functions can hang work and
// downstream-call children off the request's trace.
func (ac *AsyncCall) Span() *telemetry.Span { return ac.sp }

// Park arms an offload of g bytes on dev: after the handler returns, the
// engine submits the work and parks this call; resume runs on a
// completion worker once the device finishes (its error, if any, is
// surfaced to the client instead). Calling Park a second time before the
// handler returns re-arms with the new parameters. If the handler returns
// an error, the armed offload is discarded.
func (ac *AsyncCall) Park(dev Offloader, g uint64, resume ResumeFunc) error {
	if dev == nil {
		return errors.New("rpc: Park with nil offloader")
	}
	if resume == nil {
		return errors.New("rpc: Park with nil resume")
	}
	ac.dev = dev
	ac.g = g
	ac.resume = resume
	return nil
}

// Complete is the device-side doorbell (kernels.Completer): it records the
// offload's outcome and enqueues the continuation for a completion
// worker. It runs on the device dispatcher goroutine and does not block
// beyond the engine queue.
func (ac *AsyncCall) Complete(err error) {
	e := ac.eng
	ac.offErr = err
	ac.doneT = time.Now()
	ac.state = stateResumed
	e.inFlight.Add(-1)
	e.enqueue(ac)
}

// EngineConfig configures a completion-queue engine.
type EngineConfig struct {
	// Workers is the fixed completion/dispatch pool size (default 4).
	// This — not the in-flight offload count — is the engine's goroutine
	// cost.
	Workers int
	// Queue is the work-queue capacity (default 1024). A full queue
	// applies backpressure to connection readers and the device
	// dispatcher rather than growing without bound.
	Queue int
}

// EngineStats is a point-in-time snapshot of engine state.
type EngineStats struct {
	Workers    int
	InFlight   int64  // offloads submitted to a device, completion pending
	Parked     int64  // continuations parked (in device or awaiting a worker)
	QueueDepth int64  // calls waiting for a worker
	Served     uint64 // requests fully served through the engine
	Errors     uint64 // handler/offload/resume errors surfaced to clients

	// QueueWaitNanos accumulates time calls spent waiting for an engine
	// worker — submit→pickup for new requests plus completion→resume for
	// parked ones. Invisible in per-stage histograms, this is the
	// queueing share the tail-tax report attributes.
	QueueWaitNanos uint64
	// ParkWaitNanos accumulates park→completion device time: wall time
	// the accelerator covered while no host thread was held.
	ParkWaitNanos uint64
}

// Engine is the completion-queue core: a bounded work queue feeding a
// fixed worker pool that runs handler pre-stages and parked-continuation
// resumes. One engine can back many servers (each server contributes its
// own AsyncHandler via dispatch).
type Engine struct {
	workers int
	q       chan *AsyncCall
	quit    chan struct{}
	wg      sync.WaitGroup
	calls   sync.Pool
	once    sync.Once

	// cmu makes enqueue-vs-Close deterministic: enqueuers hold the read
	// lock across the closed check and the queue send, so once Close has
	// taken the write lock and flipped closed, no call can slip into the
	// queue behind the final drain.
	cmu    sync.RWMutex
	closed bool

	inFlight  *telemetry.Gauge
	parked    *telemetry.Gauge
	qDepth    *telemetry.Gauge
	served    *telemetry.Counter
	errors    *telemetry.Counter
	queueWait *telemetry.Counter // nanoseconds waiting for a worker
	parkWait  *telemetry.Counter // nanoseconds parked on a device
}

// NewEngine starts a completion-queue engine with cfg.Workers workers.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Workers < 0 || cfg.Queue < 0 {
		return nil, fmt.Errorf("rpc: invalid engine config %+v", cfg)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Queue == 0 {
		cfg.Queue = 1024
	}
	e := &Engine{
		workers:   cfg.Workers,
		q:         make(chan *AsyncCall, cfg.Queue),
		quit:      make(chan struct{}),
		inFlight:  &telemetry.Gauge{},
		parked:    &telemetry.Gauge{},
		qDepth:    &telemetry.Gauge{},
		served:    &telemetry.Counter{},
		errors:    &telemetry.Counter{},
		queueWait: &telemetry.Counter{},
		parkWait:  &telemetry.Counter{},
	}
	e.calls.New = func() any { return new(AsyncCall) }
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e, nil
}

// Instrument registers the engine's gauges and counters on reg under
// async_* names. Call before serving traffic: metric pointers are swapped,
// not merged.
func (e *Engine) Instrument(reg *telemetry.Registry) error {
	if reg == nil {
		return errors.New("rpc: nil registry")
	}
	var err error
	if e.inFlight, err = reg.Gauge("async_inflight_offloads", "offloads submitted to the accelerator, completion pending"); err != nil {
		return err
	}
	if e.parked, err = reg.Gauge("async_parked_continuations", "requests parked with no goroutine, waiting on offload completion"); err != nil {
		return err
	}
	if e.qDepth, err = reg.Gauge("async_completion_queue_depth", "continuations and new requests waiting for an engine worker"); err != nil {
		return err
	}
	if e.served, err = reg.Counter("async_served_total", "requests fully served through the async engine"); err != nil {
		return err
	}
	if e.errors, err = reg.Counter("async_errors_total", "async requests that surfaced an error to the client"); err != nil {
		return err
	}
	if e.queueWait, err = reg.Counter("async_queue_wait_nanos_total", "cumulative nanoseconds calls waited for an engine worker"); err != nil {
		return err
	}
	if e.parkWait, err = reg.Counter("async_park_wait_nanos_total", "cumulative park-to-completion nanoseconds covered by the device"); err != nil {
		return err
	}
	return nil
}

// Stats returns a snapshot of the engine's live state.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Workers:    e.workers,
		InFlight:   e.inFlight.Value(),
		Parked:     e.parked.Value(),
		QueueDepth: e.qDepth.Value(),
		Served:     e.served.Value(),
		Errors:     e.errors.Value(),

		QueueWaitNanos: e.queueWait.Value(),
		ParkWaitNanos:  e.parkWait.Value(),
	}
}

// Close stops the workers and fails queued work with ErrEngineClosed.
// Devices may still deliver completions afterwards (completion after
// Close): those continuations are failed the same way instead of being
// enqueued. Close does not wait for parked continuations still inside a
// device — close the device first to drain them.
func (e *Engine) Close() error {
	e.once.Do(func() {
		e.cmu.Lock()
		e.closed = true
		e.cmu.Unlock()
		close(e.quit)
		e.wg.Wait()
		// No enqueuer can add work anymore (closed is set), so this drain
		// resolves everything the exited workers left behind.
		for {
			select {
			case ac := <-e.q:
				e.qDepth.Add(-1)
				e.failClosed(ac)
			default:
				return
			}
		}
	})
	return nil
}

// getCall checks a pooled continuation out; fields are zeroed at return
// time (putCall), so a fresh checkout starts clean.
func (e *Engine) getCall() *AsyncCall {
	return e.calls.Get().(*AsyncCall)
}

// putCall zeroes the continuation and returns it to the pool. This is the
// only release point; the caller must not touch ac afterwards.
func (e *Engine) putCall(ac *AsyncCall) {
	*ac = AsyncCall{}
	e.calls.Put(ac)
}

// dispatch hands one decoded request to the engine. It blocks when the
// queue is full (backpressure on the connection reader) and fails the
// request immediately if the engine is closed.
func (e *Engine) dispatch(ctx context.Context, h AsyncHandler, cw *connWriter, req Message, ins *Instrumentation) {
	ac := e.getCall()
	ac.eng = e
	ac.h = h
	ac.cw = cw
	ac.ctx = ctx
	ac.req = req
	ac.state = stateNew
	if req.Headers != nil {
		ac.cid = req.Headers[HeaderCID]
	}
	if ins.enabled() && ins.Tracer != nil {
		traceID, parentID := traceContext(req)
		ac.sp = ins.Tracer.Join("rpc.AsyncServer/"+req.Method, traceID, parentID, time.Now())
		ac.sp.SetCategory(telemetry.CatRPC)
	}
	e.enqueue(ac)
}

// enqueue queues a continuation for a worker, or fails it immediately if
// the engine closed. Used by both dispatch (new requests) and Complete
// (resumes). The send may block on a full queue — that is the engine's
// backpressure on connection readers and device dispatchers — and is safe
// under the read lock because workers drain the queue until Close, and
// Close cannot pass the write lock while a send is in progress.
func (e *Engine) enqueue(ac *AsyncCall) {
	e.cmu.RLock()
	if e.closed {
		e.cmu.RUnlock()
		e.failClosed(ac)
		return
	}
	ac.enqT = time.Now() // before the send: a worker may pick it up immediately
	e.q <- ac
	e.qDepth.Add(1)
	e.cmu.RUnlock()
}

// failClosed resolves a continuation that can no longer be processed
// because the engine closed: the client gets an error response.
func (e *Engine) failClosed(ac *AsyncCall) {
	if ac.state == stateResumed {
		e.parked.Add(-1)
	}
	e.finish(ac, Message{}, ErrEngineClosed)
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case ac := <-e.q:
			e.qDepth.Add(-1)
			e.process(ac)
		case <-e.quit:
			return
		}
	}
}

// process runs one queue item: the handler pre-stage for a new request
// (submitting its armed offload, if any), or the resume for a completed
// offload.
func (e *Engine) process(ac *AsyncCall) {
	pickup := time.Now()
	queueWait := pickup.Sub(ac.enqT)
	e.queueWait.Add(uint64(queueWait))
	if ac.state == stateResumed {
		// The pickup closes two waits: park→completion on the device,
		// then completion→resume back in the engine queue.
		e.parkWait.Add(uint64(ac.doneT.Sub(ac.parkT)))
		if ac.sp != nil {
			ac.sp.ChildDoneCat("park-wait", telemetry.CatDevice, ac.parkT, ac.doneT.Sub(ac.parkT))
			ac.sp.ChildDoneCat("resume-wait", telemetry.CatQueue, ac.doneT, queueWait)
		}
		e.parked.Add(-1)
		if ac.offErr != nil {
			e.finish(ac, Message{}, fmt.Errorf("rpc: offload failed: %w", ac.offErr))
			return
		}
		resp, err := ac.resume(ac.ctx, ac)
		e.finish(ac, resp, err)
		return
	}

	if ac.sp != nil {
		ac.sp.ChildDoneCat("queue-wait", telemetry.CatQueue, ac.enqT, queueWait)
	}
	resp, err := ac.h(ac.ctx, ac.req, ac)
	if ac.sp != nil {
		ac.sp.ChildDoneCat("handler", telemetry.CatWork, pickup, time.Since(pickup))
	}
	if err != nil || ac.dev == nil {
		ac.dev = nil
		e.finish(ac, resp, err)
		return
	}

	// The handler armed an offload: submit and park. Ownership transfers
	// to the device the moment Submit accepts — the worker must not touch
	// ac after a successful Submit, because the completion (and recycling)
	// may already be running on another worker.
	dev := ac.dev
	ac.dev = nil
	ac.parkT = time.Now()
	e.parked.Add(1)
	e.inFlight.Add(1)
	if serr := dev.Submit(ac.ctx, ac.g, ac); serr != nil {
		// Synchronous rejection: ownership stayed here.
		e.parked.Add(-1)
		e.inFlight.Add(-1)
		e.finish(ac, Message{}, fmt.Errorf("rpc: offload submit: %w", serr))
	}
}

// finish writes the response (mapping an error onto an error-header
// response, echoing the correlation id) and recycles the continuation.
func (e *Engine) finish(ac *AsyncCall, resp Message, err error) {
	if err != nil {
		e.errors.Inc()
		resp = Message{
			Method:  ac.req.Method,
			Headers: map[string]string{"error": err.Error()},
		}
	}
	if ac.cid != "" {
		if resp.Headers == nil {
			resp.Headers = make(map[string]string, 1)
		}
		resp.Headers[HeaderCID] = ac.cid
	}
	// Count the request served before its response can reach the client,
	// so a caller that has its answer always sees it counted. A write
	// error means the connection died; the continuation still completes
	// and recycles, it just has no one to tell.
	e.served.Inc()
	//modelcheck:ignore errdrop — response write failure is terminal for the conn, not the engine
	_ = ac.cw.respond(ac.ctx, resp, ac.sp)
	e.putCall(ac)
}

// connWriter serializes response writes on one connection. Async
// completions finish in any order on any worker, so encode+write must be
// atomic per response; the encode pipeline is owned by this writer (the
// connection's read side uses a separate pipeline — Pipeline is not safe
// for concurrent use).
type connWriter struct {
	mu   sync.Mutex
	conn io.Writer
	enc  *Pipeline
}

// respond encodes and writes one response frame. sp (optional) receives
// the encode stage timings and is ended here — the response write is the
// end of the request's server-side span.
func (cw *connWriter) respond(ctx context.Context, m Message, sp *telemetry.Span) error {
	cw.mu.Lock()
	out, err := cw.enc.encodeFrame(ctx, m, sp)
	if err != nil {
		cw.mu.Unlock()
		sp.End()
		return err
	}
	werr := writeFrame(cw.conn, out)
	putBuf(out) // the frame write returned; the encode buffer is dead
	cw.mu.Unlock()
	sp.End()
	return werr
}
