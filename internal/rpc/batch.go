package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Request batching (paper §3, §2.4): most offloads in the granularity CDFs
// carry payloads far below the break-even size, so the fixed per-exchange
// interface cost (o0 + L in the model; here encode, frame write, and a
// network round trip) dominates. A Batcher coalesces concurrent callers
// into one multi-message envelope frame: the pipeline (serialize →
// compress → encrypt) and the round trip run once per batch instead of
// once per request, raising the effective granularity to the batch's
// summed payload while amortizing the fixed cost across its members —
// exactly the batched-offload variant in internal/core.
//
// Wire shape: the envelope is an ordinary Message with the reserved
// method BatchMethod whose payload concatenates the member messages:
//
//	count uint32, then per message: uint32 length + Codec-marshaled bytes
//
// Because the envelope is a normal message, batching needs no framing or
// pipeline changes, and a fleet with batching disabled produces
// byte-identical wire traffic to one that has never heard of it.

// BatchMethod is the reserved method name of a batch envelope. Application
// handlers never see it: the server unpacks the envelope and dispatches
// the member messages individually.
const BatchMethod = "rpc.batch"

// maxBatchMessages bounds a batch so a corrupt envelope cannot force huge
// allocations or unbounded handler fan-out.
const maxBatchMessages = 4096

// encodeBatchPayload packs messages into an envelope payload. Each member
// is marshaled directly into the envelope — the length prefix is reserved
// and backfilled — so no per-member intermediate buffer or join copy
// exists. The returned buffer comes from the package buffer pool; the
// caller owns it and may release it with putBuf once the envelope has been
// copied onward (CallBatch and the server batch path do).
func encodeBatchPayload(msgs []Message) ([]byte, error) {
	if len(msgs) == 0 {
		return nil, errors.New("rpc: empty batch")
	}
	if len(msgs) > maxBatchMessages {
		return nil, fmt.Errorf("rpc: batch of %d messages exceeds %d", len(msgs), maxBatchMessages)
	}
	size := 4
	for _, m := range msgs {
		n, err := wireSize(m)
		if err != nil {
			return nil, err
		}
		size += 4 + n
	}
	buf := binary.LittleEndian.AppendUint32(getBuf(size), uint32(len(msgs)))
	for _, m := range msgs {
		lenAt := len(buf)
		buf = append(buf, 0, 0, 0, 0) // length prefix, backfilled below
		var err error
		buf, err = appendMessage(buf, m, 0)
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	}
	return buf, nil
}

// decodeBatchPayload unpacks an envelope payload produced by
// encodeBatchPayload, validating every member frame.
func decodeBatchPayload(data []byte) ([]Message, error) {
	r := reader{data: data}
	count, err := r.u32()
	if err != nil || count == 0 || count > maxBatchMessages {
		return nil, fmt.Errorf("%w: bad batch count", ErrCorrupt)
	}
	msgs := make([]Message, 0, count)
	for i := 0; i < int(count); i++ {
		n, err := r.u32()
		if err != nil || int(n) > r.remaining() {
			return nil, fmt.Errorf("%w: bad batch member length", ErrCorrupt)
		}
		sub, err := r.bytes(int(n))
		if err != nil {
			return nil, ErrCorrupt
		}
		m, flags, err := unmarshalWithFlags(sub)
		if err != nil {
			return nil, err
		}
		if flags != 0 {
			return nil, fmt.Errorf("%w: transformed frame inside batch (flags %#x)", ErrCorrupt, flags)
		}
		msgs = append(msgs, m)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrCorrupt, r.remaining())
	}
	return msgs, nil
}

// handleBatch unpacks a batch envelope, fans the member requests out to
// handler goroutines, and re-envelopes the responses in request order.
// Per-request trace linkage survives batching — each member carries its
// own trace headers, so handleOne joins each to its caller's span — and
// errors stay isolated: a failing member becomes an error-header response
// in its slot without disturbing its siblings.
func (s *Server) handleBatch(ctx context.Context, env Message) Message {
	batchErr := func(err error) Message {
		return Message{Method: BatchMethod, Headers: map[string]string{"error": err.Error()}}
	}
	subs, err := decodeBatchPayload(env.Payload)
	putBuf(env.Payload) // the members own fresh copies; the envelope is dead
	if err != nil {
		return batchErr(err)
	}
	ins := s.ins
	if ins.enabled() && ins.Metrics != nil {
		ins.Metrics.BatchFlushes.Inc()
		ins.Metrics.BatchSize.Record(float64(len(subs)))
	}
	resps := make([]Message, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, sp := s.handleOne(ctx, subs[i])
			sp.End()
			resps[i] = resp
		}(i)
	}
	wg.Wait()
	payload, err := encodeBatchPayload(resps)
	if err != nil {
		return batchErr(err)
	}
	return Message{Method: BatchMethod, Payload: payload}
}

// CallBatch sends reqs as one batched exchange and returns the responses
// and per-request errors, both indexed like reqs (a response carrying an
// "error" header surfaces as that request's error). The third return is
// an exchange-level error — encode, transport, or envelope failure — that
// voids the whole batch. The envelope runs through the pipeline and the
// wire once, so serialization, compression, encryption, framing, and the
// round trip are all paid once per batch.
func (c *Client) CallBatch(reqs []Message) ([]Message, []error, error) {
	if len(reqs) == 0 {
		return nil, nil, errors.New("rpc: empty batch")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ins := c.ins
	obs := ins.enabled()
	var sp *telemetry.Span
	if obs {
		if ins.Tracer != nil {
			sp = ins.Tracer.Start("rpc.CallBatch")
		}
		if ins.Metrics != nil {
			ins.Metrics.BatchFlushes.Inc()
			ins.Metrics.BatchSize.Record(float64(len(reqs)))
		}
	}
	payload, err := encodeBatchPayload(reqs)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	env := Message{Method: BatchMethod, Payload: payload}
	resp, err := c.exchange(context.Background(), env, ins, sp, obs)
	putBuf(payload) // the exchange serialized the envelope; it is dead
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	subs, err := decodeBatchPayload(resp.Payload)
	putBuf(resp.Payload) // the members own fresh copies; the envelope is dead
	if err != nil {
		return nil, nil, err
	}
	if len(subs) != len(reqs) {
		return nil, nil, fmt.Errorf("rpc: batch response carries %d messages, want %d", len(subs), len(reqs))
	}
	errs := make([]error, len(subs))
	for i, m := range subs {
		if msg, ok := m.Headers["error"]; ok {
			errs[i] = fmt.Errorf("rpc: remote error: %s", msg)
		}
	}
	return subs, errs, nil
}

// ErrBatcherClosed is returned for calls pending or submitted after
// Batcher.Close.
var ErrBatcherClosed = errors.New("rpc: batcher closed")

// BatcherConfig tunes when a Batcher flushes. Zero values take defaults.
type BatcherConfig struct {
	MaxBatch int           // flush at this many pending requests (default 16)
	MaxBytes int           // flush when pending payload bytes reach this (default 256 KiB)
	Linger   time.Duration // flush a partial batch after this long (default 500µs)
}

func (cfg BatcherConfig) withDefaults() BatcherConfig {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	if cfg.MaxBatch > maxBatchMessages {
		cfg.MaxBatch = maxBatchMessages
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 256 << 10
	}
	if cfg.Linger <= 0 {
		cfg.Linger = 500 * time.Microsecond
	}
	return cfg
}

// callResult carries one request's outcome from the flusher to its caller.
type callResult struct {
	resp Message
	err  error
}

// batchCall is one caller parked in the pending queue.
type batchCall struct {
	req   Message
	ctx   context.Context
	sp    *telemetry.Span
	start time.Time       // zero when uninstrumented
	done  chan callResult // buffered(1): the flusher never blocks delivering
}

// Batcher coalesces concurrent CallContext requests on one Client into
// batched exchanges. A batch flushes when it reaches MaxBatch requests or
// MaxBytes of pending payload, or when the oldest pending request has
// lingered for the Linger timeout — so a lone caller is delayed at most
// Linger, while a burst amortizes the fixed exchange cost across the
// whole batch.
//
// The Batcher owns the client's exchange path: while a Batcher is
// attached, issue all traffic through it rather than calling the Client
// directly (the underlying Client is not safe for concurrent use; the
// single flusher goroutine is what serializes the wire).
type Batcher struct {
	client *Client
	cfg    BatcherConfig

	mu         sync.Mutex
	pending    []*batchCall
	pendingB   int // payload bytes pending
	timerArmed bool
	closed     bool

	kick    chan struct{} // buffered(1): coalesced flush signal
	stop    chan struct{}
	stopped chan struct{}
	timer   *time.Timer
}

// NewBatcher starts a batcher on client. Close it to release the flusher
// goroutine; Close does not close the client.
func NewBatcher(client *Client, cfg BatcherConfig) (*Batcher, error) {
	if client == nil {
		return nil, errors.New("rpc: nil client")
	}
	b := &Batcher{
		client:  client,
		cfg:     cfg.withDefaults(),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	b.timer = time.NewTimer(time.Hour)
	if !b.timer.Stop() {
		<-b.timer.C
	}
	go b.flushLoop()
	return b, nil
}

// CallContext submits one request for batched delivery and blocks until
// its response arrives, the batch fails, or ctx is done. A request whose
// context is cancelled while still queued is dropped from its batch; one
// cancelled after its batch is sent returns the context error but the
// batch itself proceeds for its siblings.
func (b *Batcher) CallContext(ctx context.Context, req Message) (Message, error) {
	if err := ctx.Err(); err != nil {
		return Message{}, fmt.Errorf("rpc: call aborted: %w", err)
	}
	ins := b.client.ins
	obs := ins.enabled()
	c := &batchCall{req: req, ctx: ctx, done: make(chan callResult, 1)}
	if obs {
		if ins.Tracer != nil {
			c.sp = ins.Tracer.Start("rpc.Call/" + req.Method)
			c.req = withTraceContext(req, c.sp)
		}
		if ins.Metrics != nil {
			ins.Metrics.Calls.Inc()
		}
		c.start = time.Now()
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		c.sp.End()
		return Message{}, ErrBatcherClosed
	}
	b.pending = append(b.pending, c)
	b.pendingB += len(c.req.Payload)
	full := len(b.pending) >= b.cfg.MaxBatch || b.pendingB >= b.cfg.MaxBytes
	if full {
		b.kickLocked()
	} else if !b.timerArmed {
		b.timerArmed = true
		b.timer.Reset(b.cfg.Linger)
	}
	b.mu.Unlock()

	select {
	case res := <-c.done:
		return res.resp, res.err
	case <-ctx.Done():
		// The flusher may deliver concurrently; it owns metrics/span
		// completion either way, and the buffered channel keeps it from
		// blocking on this abandoned call.
		return Message{}, fmt.Errorf("rpc: call aborted: %w", ctx.Err())
	}
}

// kickLocked signals the flusher; callers hold b.mu.
func (b *Batcher) kickLocked() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// take grabs the current pending batch.
func (b *Batcher) take() []*batchCall {
	b.mu.Lock()
	defer b.mu.Unlock()
	calls := b.pending
	b.pending = nil
	b.pendingB = 0
	// The linger timer belongs to the batch just taken; a call arriving
	// after this point re-arms it.
	if b.timerArmed {
		b.timerArmed = false
		if !b.timer.Stop() {
			select {
			case <-b.timer.C:
			default:
			}
		}
	}
	return calls
}

// flushLoop is the single goroutine that drains pending calls into
// batched exchanges.
func (b *Batcher) flushLoop() {
	defer close(b.stopped)
	for {
		select {
		case <-b.stop:
			b.failPending(ErrBatcherClosed)
			return
		case <-b.kick:
		case <-b.timer.C:
			b.mu.Lock()
			b.timerArmed = false
			b.mu.Unlock()
		}
		b.flush(b.take())
		// A call that arrived while flush was on the wire may have seen a
		// full batch and kicked already (coalesced into the buffered chan);
		// a partial batch re-arms the timer itself, so nothing is stranded.
	}
}

// flush sends one batch and delivers each member's result. Requests whose
// contexts were cancelled while queued are dropped here — after this
// point a request is on the wire and runs to completion server-side.
func (b *Batcher) flush(calls []*batchCall) {
	if len(calls) == 0 {
		return
	}
	live := calls[:0]
	for _, c := range calls {
		if err := c.ctx.Err(); err != nil {
			b.deliver(c, Message{}, fmt.Errorf("rpc: call aborted: %w", err))
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return
	}
	reqs := make([]Message, len(live))
	for i, c := range live {
		reqs[i] = c.req
	}
	resps, errs, err := b.client.CallBatch(reqs)
	if err != nil {
		for _, c := range live {
			b.deliver(c, Message{}, err)
		}
		return
	}
	for i, c := range live {
		b.deliver(c, resps[i], errs[i])
	}
}

// deliver completes one call: it records the caller-side latency and
// error metrics, ends the call span, and hands the result over. The
// buffered channel makes delivery non-blocking even when the caller
// abandoned the call.
func (b *Batcher) deliver(c *batchCall, resp Message, err error) {
	if !c.start.IsZero() {
		if ins := b.client.ins; ins != nil && ins.Metrics != nil {
			ins.Metrics.CallLatency.Record(time.Since(c.start).Seconds())
			if err != nil {
				ins.Metrics.CallErrors.Inc()
			}
		}
	}
	c.sp.End()
	c.done <- callResult{resp: resp, err: err}
}

// failPending errors out every queued call during shutdown.
func (b *Batcher) failPending(err error) {
	for _, c := range b.take() {
		b.deliver(c, Message{}, err)
	}
}

// Close stops the flusher and fails any still-queued calls with
// ErrBatcherClosed. It does not close the underlying Client.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.stopped
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	<-b.stopped
	return nil
}
