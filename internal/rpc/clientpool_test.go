package rpc

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startPoolServer runs an echo server and returns its address plus a
// gate the handler blocks on when gate is non-nil (used to pin calls
// in flight) and a counter of concurrently-executing handlers.
func startPoolServer(t *testing.T, gate chan struct{}, inFlight *atomic.Int64) string {
	t.Helper()
	srv, err := NewServer(func(_ context.Context, req Message) (Message, error) {
		if inFlight != nil {
			inFlight.Add(1)
			defer inFlight.Add(-1)
		}
		if gate != nil {
			<-gate
		}
		return Message{Method: req.Method, Payload: req.Payload}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), lis) //modelcheck:ignore errdrop — Serve's error is the normal shutdown path
	t.Cleanup(func() { srv.Close() })       // errors swallowed per the teardown rule
	return lis.Addr().String()
}

func dialPool(t *testing.T, addr string, size int) *ClientPool {
	t.Helper()
	p, err := NewClientPool(size, func() (*Client, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return NewClient(conn, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestClientPoolRedialsBrokenClient: a call that times out after sending
// breaks its client; the pool replaces that client on the next checkout,
// so the slot keeps serving and never returns the abandoned response.
func TestClientPoolRedialsBrokenClient(t *testing.T) {
	gate := make(chan struct{})
	p := dialPool(t, startPoolServer(t, gate, nil), 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.CallContext(ctx, Message{Method: "m", Payload: []byte("first")}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first call: got %v, want DeadlineExceeded", err)
	}
	close(gate) // the server now answers the abandoned call
	for _, want := range []string{"second", "third"} {
		resp, err := p.CallContext(context.Background(), Message{Method: "m", Payload: []byte(want)})
		if err != nil {
			t.Fatalf("call %q after a broken client: %v", want, err)
		}
		if string(resp.Payload) != want {
			t.Fatalf("call %q returned %q", want, resp.Payload)
		}
	}
	if p.Size() != 1 {
		t.Fatalf("Size = %d after redial, want 1", p.Size())
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestClientPoolConcurrent hammers one pool from many goroutines — far
// more than pooled clients — and checks every response round-trips
// intact under -race: checkout must hand each client to one caller at a
// time and never cross-wire responses.
func TestClientPoolConcurrent(t *testing.T) {
	addr := startPoolServer(t, nil, nil)
	p := dialPool(t, addr, 3)
	if p.Size() != 3 {
		t.Fatalf("Size = %d, want 3", p.Size())
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				payload := []byte{byte(g), byte(i)}
				resp, err := p.CallContext(context.Background(), Message{Method: "echo", Payload: payload})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Payload, payload) {
					errs <- errors.New("cross-wired response")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClientPoolBoundsConcurrency: with every client checked out and the
// handlers gated, an extra call must block until ctx expires, and the
// server must never see more concurrent handlers than pooled clients.
func TestClientPoolBoundsConcurrency(t *testing.T) {
	gate := make(chan struct{})
	var inFlight atomic.Int64
	addr := startPoolServer(t, gate, &inFlight)
	p := dialPool(t, addr, 2)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.CallContext(context.Background(), Message{Method: "hold"}); err != nil {
				t.Errorf("held call: %v", err)
			}
		}()
	}
	// Wait until both clients are checked out and executing.
	deadline := time.Now().Add(2 * time.Second)
	for inFlight.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("handlers in flight = %d, want 2", inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// The third caller finds no free client and honors its context.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.CallContext(ctx, Message{Method: "blocked"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked call err = %v, want deadline exceeded", err)
	}
	if n := inFlight.Load(); n != 2 {
		t.Fatalf("pool leaked concurrency: %d handlers in flight with 2 clients", n)
	}
	close(gate)
	wg.Wait()
}

func TestClientPoolClose(t *testing.T) {
	addr := startPoolServer(t, nil, nil)
	p := dialPool(t, addr, 2)
	if _, err := p.CallContext(context.Background(), Message{Method: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := p.CallContext(context.Background(), Message{}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("call after Close = %v, want ErrPoolClosed", err)
	}
}

func TestClientPoolConstructorErrors(t *testing.T) {
	if _, err := NewClientPool(0, func() (*Client, error) { return nil, nil }); err == nil {
		t.Fatal("accepted size 0")
	}
	if _, err := NewClientPool(2, nil); err == nil {
		t.Fatal("accepted nil dial")
	}
	// A dial error mid-fill closes the clients already dialed.
	addr := startPoolServer(t, nil, nil)
	var dialed []*Client
	boom := errors.New("boom")
	_, err := NewClientPool(3, func() (*Client, error) {
		if len(dialed) == 2 {
			return nil, boom
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		c, err := NewClient(conn, nil)
		if err != nil {
			return nil, err
		}
		dialed = append(dialed, c)
		return c, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(dialed) != 2 {
		t.Fatalf("dialed %d clients before the failure, want 2", len(dialed))
	}
	for i, c := range dialed {
		if _, err := c.CallContext(context.Background(), Message{Method: "x"}); err == nil {
			t.Fatalf("client %d still usable after constructor unwound", i)
		}
	}
	// A nil client from dial is rejected, not pooled.
	if _, err := NewClientPool(1, func() (*Client, error) { return nil, nil }); err == nil {
		t.Fatal("accepted nil client from dial")
	}
}

// TestClientPoolCheckoutCloseRace pins the checkout-vs-Close window
// deterministically: a caller passes the closed check, then blocks on the
// free channel because every client is checked out; Close runs; a client
// is returned. The checkout that then wins the free channel has lost the
// race to Close and must report ErrPoolClosed — not issue a call on the
// stale, already-closed client.
func TestClientPoolCheckoutCloseRace(t *testing.T) {
	addr := startPoolServer(t, nil, nil)
	p := dialPool(t, addr, 1)

	// Check the only client out by hand, so CallContext must wait.
	var held *Client
	select {
	case held = <-p.free:
	default:
		t.Fatal("pool unexpectedly empty")
	}

	type result struct {
		err error
	}
	done := make(chan result, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		_, err := p.CallContext(context.Background(), Message{Method: "late"})
		done <- result{err: err}
	}()
	<-started
	// Give the goroutine time to pass the closed check and block on free.
	// (If it has not blocked yet the test still exercises the same window:
	// Close completes before the checkout either way.)
	time.Sleep(10 * time.Millisecond)

	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p.free <- held // simulate the in-flight holder returning its client

	r := <-done
	if !errors.Is(r.err, ErrPoolClosed) {
		t.Fatalf("checkout that lost the race to Close = %v, want ErrPoolClosed", r.err)
	}
	// The client handed back stays available for draining; later callers
	// keep failing fast.
	if _, err := p.CallContext(context.Background(), Message{}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("call after Close = %v, want ErrPoolClosed", err)
	}
}
