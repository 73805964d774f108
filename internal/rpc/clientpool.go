package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrPoolClosed is returned by ClientPool.CallContext after Close.
var ErrPoolClosed = errors.New("rpc: client pool closed")

// ClientPool multiplexes concurrent callers over a fixed set of
// clients, each on its own connection. A single Client is safe for
// concurrent use but runs one exchange at a time; the pool lets that
// many exchanges overlap without the Batcher's coalescing latency — the
// topology driver issues every downstream edge's calls through one.
//
// CallContext checks a client out (blocking while all are busy, so the
// pool also bounds per-edge concurrency), runs the call, and returns it.
// A client whose call failed after its request was sent (a timeout, a
// cancellation, a dropped connection) is broken for good, so the abandoned
// call's late response can never answer a later call (see Client). The
// pool keeps it in its slot and replaces it with a fresh dial the next
// time the slot is checked out.
type ClientPool struct {
	free chan *Client
	dial func() (*Client, error)

	mu      sync.Mutex // guards closed and clients' elements
	closed  bool
	clients []*Client
}

// NewClientPool dials size clients and pools them. On any dial error the
// already-dialed clients are closed and the error returned.
func NewClientPool(size int, dial func() (*Client, error)) (*ClientPool, error) {
	if size <= 0 {
		return nil, errors.New("rpc: client pool size must be positive")
	}
	if dial == nil {
		return nil, errors.New("rpc: nil dial function")
	}
	p := &ClientPool{free: make(chan *Client, size), dial: dial}
	for i := 0; i < size; i++ {
		c, err := p.dialOne()
		if err != nil {
			_ = p.Close() //modelcheck:ignore errdrop — the dial error is primary; unwind is best-effort
			return nil, err
		}
		p.clients = append(p.clients, c)
		p.free <- c
	}
	return p, nil
}

// dialOne runs the pool's dial function, rejecting a nil client.
func (p *ClientPool) dialOne() (*Client, error) {
	c, err := p.dial()
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, errors.New("rpc: dial returned nil client")
	}
	return c, nil
}

// redial replaces old, which a failed exchange broke, with a freshly
// dialed client in the same slot. The caller holds old checked out.
func (p *ClientPool) redial(old *Client) (*Client, error) {
	c, err := p.dialOne()
	if err != nil {
		return nil, fmt.Errorf("rpc: client pool redial: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close() //modelcheck:ignore errdrop — never handed out; the pool is already closed
		return nil, ErrPoolClosed
	}
	for i := range p.clients {
		if p.clients[i] == old {
			p.clients[i] = c
		}
	}
	return c, nil
}

// Size returns the number of pooled clients.
func (p *ClientPool) Size() int { return len(p.clients) }

// CallContext checks out a client, performs the call, and returns the
// client to the pool. It blocks while every client is checked out,
// honoring ctx while waiting and during the call itself.
func (p *ClientPool) CallContext(ctx context.Context, req Message) (Message, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return Message{}, ErrPoolClosed
	}
	select {
	case c := <-p.free:
		// Re-check under mu: Close may have won the race between the
		// closed check above and this checkout, leaving c a stale client
		// whose connection is already shut. Returning it would surface a
		// confusing transport error (or worse, a call on a recycled
		// connection) instead of the pool's terminal state.
		p.mu.Lock()
		closed = p.closed
		p.mu.Unlock()
		if closed {
			p.free <- c // keep the pool drainable for other racers
			return Message{}, ErrPoolClosed
		}
		if c.failed.Load() {
			fresh, err := p.redial(c)
			if err != nil {
				p.free <- c // the slot stays broken; a later checkout retries
				return Message{}, err
			}
			c = fresh
		}
		defer func() { p.free <- c }()
		return c.CallContext(ctx, req)
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// Close closes every pooled client, unblocking any in-flight calls with
// a connection error. Close is idempotent; the first error wins.
func (p *ClientPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	clients := p.clients // no redial replaces a client once closed is set
	p.mu.Unlock()
	var first error
	for _, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
