package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
)

// ErrClientClosed is returned by MuxClient calls issued after Close.
var ErrClientClosed = errors.New("rpc: mux client closed")

// MuxClient multiplexes many in-flight calls over one connection: each
// request carries a correlation id (HeaderCID) and a background reader
// matches responses back to callers, so completions may arrive in any
// order. It is the client half of the async serving path — where Client
// runs one exchange at a time (concurrent callers queue on its
// connection) and ClientPool scales by connection count, MuxClient
// scales in-flight count on a single connection, which
// is what lets a soak park 100k requests without 100k sockets or
// goroutines (use Go, the callback form, to also avoid 100k blocked
// caller goroutines).
//
// The write side (encode pipeline + frame writes) is mutex-serialized;
// the read side lives on one goroutine with its own decode pipeline.
type MuxClient struct {
	conn net.Conn

	wmu sync.Mutex // guards enc, hdr, and frame writes
	enc *Pipeline
	hdr [4]byte

	mu      sync.Mutex // guards pending, nextID, closed, readErr
	pending map[uint64]*muxPending
	nextID  uint64
	closed  bool
	readErr error

	waiters    sync.Pool
	readerDone chan struct{}
}

// muxPending is one registered in-flight call: ch for blocking callers
// (CallContext), cb for callback callers (Go). Pooled for CallContext;
// callback registrations are recycled by the reader after delivery.
type muxPending struct {
	ch chan muxResult
	cb func(Message, error)
}

type muxResult struct {
	m   Message
	err error
}

// NewMuxClient wraps conn. newPipeline is called twice (encode and decode
// sides must be separate — Pipeline is not concurrency-safe); nil means
// default pipelines, which must match the server's.
func NewMuxClient(conn net.Conn, newPipeline func() (*Pipeline, error)) (*MuxClient, error) {
	if conn == nil {
		return nil, errors.New("rpc: nil connection")
	}
	if newPipeline == nil {
		newPipeline = func() (*Pipeline, error) { return NewPipeline() }
	}
	enc, err := newPipeline()
	if err != nil {
		return nil, err
	}
	dec, err := newPipeline()
	if err != nil {
		return nil, err
	}
	c := &MuxClient{
		conn:       conn,
		enc:        enc,
		pending:    make(map[uint64]*muxPending),
		readerDone: make(chan struct{}),
	}
	c.waiters.New = func() any {
		return &muxPending{ch: make(chan muxResult, 1)}
	}
	go c.readLoop(dec)
	return c, nil
}

// register allocates a correlation id and records the in-flight call.
func (c *MuxClient) register(cb func(Message, error)) (uint64, *muxPending, error) {
	p := c.waiters.Get().(*muxPending)
	p.cb = cb
	c.mu.Lock()
	if c.closed || c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		c.waiters.Put(p)
		if err == nil {
			err = ErrClientClosed
		}
		return 0, nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = p
	c.mu.Unlock()
	return id, p, nil
}

// deregister removes a pending call; it reports whether this caller won
// the race against the reader's delivery.
func (c *MuxClient) deregister(id uint64) bool {
	c.mu.Lock()
	_, ok := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return ok
}

// send tags req with the correlation id and writes one frame. The headers
// map is copied — the caller's message is not mutated.
func (c *MuxClient) send(ctx context.Context, req Message, id uint64) error {
	headers := make(map[string]string, len(req.Headers)+1)
	for k, v := range req.Headers {
		headers[k] = v
	}
	headers[HeaderCID] = strconv.FormatUint(id, 16)
	req.Headers = headers

	c.wmu.Lock()
	data, err := c.enc.EncodeCtx(ctx, req, nil)
	if err != nil {
		c.wmu.Unlock()
		return err
	}
	err = writeFrame(c.conn, data, &c.hdr)
	putBuf(data) // the frame write flushed; the encode buffer is dead
	c.wmu.Unlock()
	return err
}

// CallContext issues one call and blocks until its response arrives, ctx
// is done, or the connection fails. Any number of CallContexts may be in
// flight concurrently.
func (c *MuxClient) CallContext(ctx context.Context, req Message) (Message, error) {
	if err := ctx.Err(); err != nil {
		return Message{}, fmt.Errorf("rpc: call aborted: %w", err)
	}
	id, p, err := c.register(nil)
	if err != nil {
		return Message{}, err
	}
	if err := c.send(ctx, req, id); err != nil {
		if c.deregister(id) {
			c.waiters.Put(p)
		}
		return Message{}, err
	}
	select {
	case r := <-p.ch:
		c.waiters.Put(p)
		return r.m, r.err
	case <-ctx.Done():
		if !c.deregister(id) {
			// The reader won the race and is delivering: drain so the
			// waiter can be pooled again.
			<-p.ch
			c.waiters.Put(p)
		}
		// A deregistered call's response, if it ever arrives, is dropped
		// by the reader as unsolicited.
		return Message{}, fmt.Errorf("rpc: call aborted: %w", ctx.Err())
	}
}

// Go issues one call and returns once it is written; cb fires exactly
// once with the response (or transport error) on the reader goroutine, so
// it must be fast and must not call back into blocking client methods.
// This is the O(1)-goroutines way to hold huge in-flight counts open.
func (c *MuxClient) Go(ctx context.Context, req Message, cb func(Message, error)) error {
	if cb == nil {
		return errors.New("rpc: nil callback")
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("rpc: call aborted: %w", err)
	}
	id, p, err := c.register(cb)
	if err != nil {
		return err
	}
	if err := c.send(ctx, req, id); err != nil {
		if c.deregister(id) {
			p.cb = nil
			c.waiters.Put(p)
		}
		return err
	}
	return nil
}

// InFlight returns the number of calls awaiting responses.
func (c *MuxClient) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// readLoop decodes response frames and routes them by correlation id.
func (c *MuxClient) readLoop(dec *Pipeline) {
	var hdr [4]byte
	for {
		frame, err := readFrame(c.conn, &hdr)
		if err != nil {
			c.fail(fmt.Errorf("rpc: read response: %w", err))
			return
		}
		resp, err := dec.DecodeCtx(context.Background(), frame, nil)
		putBuf(frame) // decode copied the message out; the frame is dead
		if err != nil {
			c.fail(err)
			return
		}
		id, perr := strconv.ParseUint(resp.Headers[HeaderCID], 16, 64)
		if perr != nil {
			// Untagged or mangled response: with concurrent calls in
			// flight there is no ordering to fall back on; drop it.
			continue
		}
		c.mu.Lock()
		p := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if p == nil {
			continue // caller gave up (deregistered) before the response
		}
		var callErr error
		if msg, ok := resp.Headers["error"]; ok {
			callErr = fmt.Errorf("rpc: remote error: %s", msg)
		}
		if p.cb != nil {
			cb := p.cb
			p.cb = nil
			cb(resp, callErr)
			c.waiters.Put(p)
		} else {
			p.ch <- muxResult{m: resp, err: callErr}
		}
	}
}

// fail poisons the client and delivers err to every in-flight call.
func (c *MuxClient) fail(err error) {
	c.mu.Lock()
	if c.closed {
		err = ErrClientClosed
	}
	c.readErr = err
	stranded := c.pending
	c.pending = make(map[uint64]*muxPending)
	c.mu.Unlock()
	close(c.readerDone)
	for _, p := range stranded {
		if p.cb != nil {
			cb := p.cb
			p.cb = nil
			cb(Message{}, err)
			c.waiters.Put(p)
		} else {
			p.ch <- muxResult{err: err}
		}
	}
}

// Close closes the connection; in-flight calls fail with ErrClientClosed.
func (c *MuxClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.readerDone
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone // reader delivers failures to stragglers, then exits
	return err
}
