package rpc

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
)

// writeLog wraps a connection and records every Write it sees, so a test
// can count the syscalls a frame costs and inspect the exact wire bytes.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, bytes.Clone(p))
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// bufConn is a net.Conn whose writes land in a buffer.
type bufConn struct {
	net.Conn
	buf bytes.Buffer
}

func (b *bufConn) Write(p []byte) (int, error) { return b.buf.Write(p) }

// take returns and clears the recorded writes.
func (w *writeLog) take() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.writes
	w.writes = nil
	return out
}

// oneFrame checks that writes is exactly one Write carrying one whole
// frame and returns the frame's body.
func oneFrame(t *testing.T, who string, writes [][]byte) []byte {
	t.Helper()
	if len(writes) != 1 {
		t.Errorf("%s: %d Writes for one frame, want 1", who, len(writes))
	}
	w := bytes.Join(writes, nil)
	if len(w) < frameHeader {
		t.Fatalf("%s: %d-byte write is shorter than the length prefix", who, len(w))
	}
	if n := binary.LittleEndian.Uint32(w); int(n) != len(w)-frameHeader {
		t.Fatalf("%s: prefix says %d bytes, write carries %d", who, n, len(w)-frameHeader)
	}
	return w[frameHeader:]
}

// TestOneWritePerFrame pins the single-syscall frame on all five frame
// writers — Client, the sync Server, the async connWriter, MuxClient and
// WriteFrame — across payload sizes and pipeline configurations. It also
// pins the wire format: a frame is the 4-byte prefix followed by exactly
// what Encode returns, and EncodeCtx returns the frame minus its prefix.
func TestOneWritePerFrame(t *testing.T) {
	key := make([]byte, 16)
	configs := []struct {
		name string
		opts []PipelineOption
	}{
		{"plain", nil},
		{"compress", []PipelineOption{WithCompression(flate.BestSpeed)}},
		{"encrypt", []PipelineOption{WithEncryption(key)}},
		{"compress+encrypt", []PipelineOption{WithCompression(flate.BestSpeed), WithEncryption(key)}},
	}
	sizes := []int{0, 64, 1 << 10, 256 << 10}
	for _, cfg := range configs {
		newPipe := func() (*Pipeline, error) { return NewPipeline(cfg.opts...) }
		mustPipe := func(t *testing.T) *Pipeline {
			t.Helper()
			p, err := newPipe()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		for _, size := range sizes {
			payload := bytes.Repeat([]byte("abcdefgh"), size/8)
			req := Message{Method: "echo", Headers: map[string]string{"k": "v"}, Payload: payload}
			t.Run(fmt.Sprintf("%s/%dB", cfg.name, size), func(t *testing.T) {
				t.Run("encode", func(t *testing.T) {
					a, b := mustPipe(t), mustPipe(t)
					frame, err := a.encodeFrame(context.Background(), req, nil)
					if err != nil {
						t.Fatal(err)
					}
					enc, err := b.EncodeCtx(context.Background(), req, nil)
					if err != nil {
						t.Fatal(err)
					}
					same := bytes.Equal(frame[frameHeader:], enc)
					putBuf(frame)
					if !same {
						t.Fatal("EncodeCtx output differs from the frame minus its prefix")
					}
				})
				t.Run("WriteFrame", func(t *testing.T) {
					sink := &bufConn{}
					log := &writeLog{Conn: sink}
					if err := WriteFrame(log, payload); err != nil {
						t.Fatal(err)
					}
					if body := oneFrame(t, "WriteFrame", log.take()); !bytes.Equal(body, payload) {
						t.Fatal("WriteFrame body differs from its input")
					}
					got, err := ReadFrame(&sink.buf)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, payload) {
						t.Fatal("ReadFrame after WriteFrame lost the payload")
					}
				})
				t.Run("sync", func(t *testing.T) {
					srv, err := NewServer(func(_ context.Context, m Message) (Message, error) { return m, nil }, newPipe)
					if err != nil {
						t.Fatal(err)
					}
					cEnd, sEnd := net.Pipe()
					sLog, cLog := &writeLog{Conn: sEnd}, &writeLog{Conn: cEnd}
					go srv.ServeConn(context.Background(), sLog)
					client, err := NewClient(cLog, mustPipe(t))
					if err != nil {
						t.Fatal(err)
					}
					defer client.Close() // errors swallowed per the teardown rule
					resp, err := client.Call(req)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(resp.Payload, payload) {
						t.Fatal("echo payload mismatch")
					}
					want, err := mustPipe(t).Encode(req)
					if err != nil {
						t.Fatal(err)
					}
					if body := oneFrame(t, "Client", cLog.take()); !bytes.Equal(body, want) {
						t.Fatal("Client wire bytes differ from prefix + Encode output")
					}
					oneFrame(t, "sync Server", sLog.take())
				})
				t.Run("async", func(t *testing.T) {
					eng := newTestEngine(t, EngineConfig{})
					srv, err := NewAsyncServer(func(_ context.Context, m Message, _ *AsyncCall) (Message, error) {
						return m, nil
					}, eng, newPipe)
					if err != nil {
						t.Fatal(err)
					}
					cEnd, sEnd := net.Pipe()
					sLog, cLog := &writeLog{Conn: sEnd}, &writeLog{Conn: cEnd}
					go srv.ServeConn(context.Background(), sLog)
					client, err := NewMuxClient(cLog, newPipe)
					if err != nil {
						t.Fatal(err)
					}
					defer client.Close() // errors swallowed per the teardown rule
					resp, err := client.CallContext(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(resp.Payload, payload) {
						t.Fatal("echo payload mismatch")
					}
					oneFrame(t, "MuxClient", cLog.take())
					oneFrame(t, "async connWriter", sLog.take())
				})
			})
		}
	}
}
