package rpc

import (
	"compress/flate"
	"context"
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// startEchoServer serves an echo handler over a real TCP listener and
// returns a connected client plus a shutdown func. handler may be nil.
func startEchoServer(t *testing.T, handler Handler, ins *Instrumentation, opts ...PipelineOption) (*Client, func()) {
	t.Helper()
	if handler == nil {
		handler = func(_ context.Context, m Message) (Message, error) { return m, nil }
	}
	newPipe := func() (*Pipeline, error) { return NewPipeline(opts...) }
	srv, err := NewServer(handler, newPipe)
	if err != nil {
		t.Fatal(err)
	}
	if ins != nil {
		srv.Instrument(ins)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), lis) }()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPipe()
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(conn, p)
	if err != nil {
		t.Fatal(err)
	}
	return client, func() {
		_ = client.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

func TestCallContextHonorsCancellation(t *testing.T) {
	block := make(chan struct{})
	client, shutdown := startEchoServer(t, func(_ context.Context, m Message) (Message, error) {
		<-block
		return m, nil
	}, nil)
	defer shutdown()
	defer close(block)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := client.CallContext(ctx, Message{Method: "hang"})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to unblock the call", elapsed)
	}
}

func TestCallContextHonorsDeadline(t *testing.T) {
	block := make(chan struct{})
	client, shutdown := startEchoServer(t, func(_ context.Context, m Message) (Message, error) {
		<-block
		return m, nil
	}, nil)
	defer shutdown()
	defer close(block)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := client.CallContext(ctx, Message{Method: "hang"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

func TestCallContextPreCanceled(t *testing.T) {
	client, shutdown := startEchoServer(t, nil, nil)
	defer shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.CallContext(ctx, Message{Method: "x"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context: got %v", err)
	}
}

// After a deadline-bounded call, the connection must remain usable for
// later calls (the deadline is cleared on return).
func TestCallContextClearsDeadline(t *testing.T) {
	client, shutdown := startEchoServer(t, nil, nil)
	defer shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if _, err := client.CallContext(ctx, Message{Method: "one"}); err != nil {
		t.Fatal(err)
	}
	cancel()
	// This plain Call would fail if the (now-expired) context's wakeup
	// deadline or the call deadline leaked onto the connection.
	time.Sleep(10 * time.Millisecond)
	if _, err := client.Call(Message{Method: "two"}); err != nil {
		t.Fatalf("call after deadline-bounded call: %v", err)
	}
}

// TestCallContextTimeoutBreaksClient: a call that times out after its
// request was sent must not leave the late response in the stream for the
// next call to read. The slow first response would otherwise come back as
// the second call's successful result.
func TestCallContextTimeoutBreaksClient(t *testing.T) {
	var calls atomic.Int32
	client, shutdown := startEchoServer(t, func(_ context.Context, m Message) (Message, error) {
		if calls.Add(1) == 1 {
			time.Sleep(50 * time.Millisecond)
		}
		return m, nil
	}, nil)
	defer shutdown()

	// A call that ends before sending leaves the client usable.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := client.CallContext(pre, Message{Method: "x"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled call: got %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := client.CallContext(ctx, Message{Method: "echo", Payload: []byte("first")}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first call: got %v, want DeadlineExceeded", err)
	}
	time.Sleep(80 * time.Millisecond) // the late "first" response reaches the socket
	resp, err := client.CallContext(context.Background(), Message{Method: "echo", Payload: []byte("second")})
	if err == nil {
		t.Fatalf("second call returned %q with no error; want the broken-client error", resp.Payload)
	}
	if !errors.Is(err, errClientBroken) || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("second call: got %v, want errClientBroken wrapping the timeout", err)
	}
	if _, err := client.Call(Message{Method: "echo"}); !errors.Is(err, errClientBroken) {
		t.Fatalf("third call: got %v, want the sticky errClientBroken", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server handled %d calls, want only the first", n)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("Close after the client broke its own conn: %v", err)
	}
}

// A full instrumented round trip must populate client metrics, stage
// histograms on both sides, and a joined trace with nested stage spans.
func TestInstrumentedCallEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	clientMx, err := NewMetrics(reg, "rpc_client")
	if err != nil {
		t.Fatal(err)
	}
	serverMx, err := NewMetrics(reg, "rpc_server")
	if err != nil {
		t.Fatal(err)
	}
	clientTr := telemetry.NewTracer("client")
	serverTr := telemetry.NewTracer("server")

	key := make([]byte, 16)
	opts := []PipelineOption{WithCompression(flate.BestSpeed), WithEncryption(key)}
	client, shutdown := startEchoServer(t, nil,
		&Instrumentation{Tracer: serverTr, Metrics: serverMx}, opts...)
	client.Instrument(&Instrumentation{Tracer: clientTr, Metrics: clientMx})

	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := client.Call(Message{Method: "echo", Payload: []byte("ping")}); err != nil {
			t.Fatal(err)
		}
	}
	shutdown()

	if got := clientMx.Calls.Value(); got != calls {
		t.Errorf("calls_total = %d, want %d", got, calls)
	}
	if got := clientMx.CallErrors.Value(); got != 0 {
		t.Errorf("call_errors_total = %d, want 0", got)
	}
	if got := clientMx.CallLatency.Count(); got != calls {
		t.Errorf("call_latency count = %d, want %d", got, calls)
	}
	if clientMx.BytesSent.Value() == 0 || clientMx.BytesRecv.Value() == 0 {
		t.Error("byte counters did not advance")
	}
	for _, name := range []string{"serialize", "compress", "encrypt", "decrypt", "decompress", "deserialize"} {
		if got := clientMx.StageLatency(name).Count(); got != calls {
			t.Errorf("client stage %s count = %d, want %d", name, got, calls)
		}
		if got := serverMx.StageLatency(name).Count(); got != calls {
			t.Errorf("server stage %s count = %d, want %d", name, got, calls)
		}
	}
	if got := serverMx.Handler.Count(); got != calls {
		t.Errorf("handler histogram count = %d, want %d", got, calls)
	}

	// Trace linkage: every server span must join a client trace and every
	// client call span must have stage children.
	clientSpans := clientTr.Spans()
	serverSpans := serverTr.Spans()
	callSpans := map[uint64]telemetry.SpanData{} // span id -> root call span
	traces := map[uint64]bool{}
	for _, s := range clientSpans {
		if s.ParentID == 0 {
			callSpans[s.SpanID] = s
			traces[s.TraceID] = true
		}
	}
	if len(callSpans) != calls {
		t.Fatalf("client root spans = %d, want %d", len(callSpans), calls)
	}
	children := map[uint64]int{}
	for _, s := range clientSpans {
		if s.ParentID != 0 {
			children[s.ParentID]++
		}
	}
	for id := range callSpans {
		// serialize, compress, encrypt, frame-write, net-wait, decrypt,
		// decompress, deserialize = 8 stage children.
		if children[id] != 8 {
			t.Errorf("call span %d has %d stage children, want 8", id, children[id])
		}
	}
	// Server spans: one joined handler span per call (parented on the
	// client's call span) plus response-encode and frame-write children.
	var handlerSpans []telemetry.SpanData
	for _, s := range serverSpans {
		if !traces[s.TraceID] {
			t.Errorf("server span %q trace %d not started by client", s.Name, s.TraceID)
		}
		if s.Name == "rpc.Server/echo" {
			handlerSpans = append(handlerSpans, s)
			if _, ok := callSpans[s.ParentID]; !ok {
				t.Errorf("server span %q parent %d is not a client call span", s.Name, s.ParentID)
			}
		}
	}
	if len(handlerSpans) != calls {
		t.Fatalf("server handler spans = %d, want %d", len(handlerSpans), calls)
	}
}

// Handler errors must count as call errors on the client.
func TestInstrumentedCallErrorCounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	mx, err := NewMetrics(reg, "rpc_client")
	if err != nil {
		t.Fatal(err)
	}
	client, shutdown := startEchoServer(t, func(_ context.Context, m Message) (Message, error) {
		return Message{}, errors.New("boom")
	}, nil)
	defer shutdown()
	client.Instrument(&Instrumentation{Metrics: mx})
	if _, err := client.Call(Message{Method: "fail"}); err == nil {
		t.Fatal("expected remote error")
	}
	if got := mx.CallErrors.Value(); got != 1 {
		t.Errorf("call_errors_total = %d, want 1", got)
	}
}

// Trace headers must not leak into an uninstrumented client's requests,
// and instrumented requests must not mutate the caller's header map.
func TestTraceContextHeaderHygiene(t *testing.T) {
	var seen map[string]string
	client, shutdown := startEchoServer(t, func(_ context.Context, m Message) (Message, error) {
		seen = m.Headers
		return m, nil
	}, nil)
	defer shutdown()

	if _, err := client.Call(Message{Method: "plain"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := seen[HeaderTraceID]; ok {
		t.Error("uninstrumented call leaked trace headers")
	}

	client.Instrument(&Instrumentation{Tracer: telemetry.NewTracer("client")})
	mine := map[string]string{"app": "v"}
	if _, err := client.Call(Message{Method: "traced", Headers: mine}); err != nil {
		t.Fatal(err)
	}
	if _, ok := seen[HeaderTraceID]; !ok {
		t.Error("instrumented call missing trace header")
	}
	if seen["app"] != "v" {
		t.Error("application header lost")
	}
	if _, ok := mine[HeaderTraceID]; ok {
		t.Error("caller's header map was mutated")
	}
}
