package main

import (
	"compress/flate"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/kernels"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// The per-layer replay table: a seeded sample of a workload's own
// messages replayed through each layer's public functions in isolation,
// recording time and allocations per call.

// replaySet is a workload's replay sample.
type replaySet struct {
	NewPipeline func() (*rpc.Pipeline, error) // the workload's pipeline options
	Msgs        []rpc.Message                 // requests and responses as the workload sends them
	SpanNames   []string                      // span names the workload records
}

// replayBudget is the least time each replayed function runs; the sample
// is repeated until it is spent.
const replayBudget = 150 * time.Millisecond

// cost is the measured cost of one replayed function.
type cost struct {
	calls  int
	bytes  int
	nanos  float64
	allocs uint64
}

func (c cost) nsPerCall() float64         { return c.nanos / float64(c.calls) }
func (c cost) allocsPerCall() float64     { return float64(c.allocs) / float64(c.calls) }
func (c cost) usPerMiB(bytes int) float64 { return c.nanos / 1e3 / (float64(bytes) / (1 << 20)) }

// measure runs pass (one sweep over the sample, returning its call and
// byte counts) until replayBudget is spent.
func measure(pass func() (calls, bytes int, err error)) (cost, error) {
	var c cost
	a0 := heapAllocs()
	start := time.Now()
	for c.calls == 0 || time.Since(start) < replayBudget {
		n, b, err := pass()
		if err != nil {
			return c, err
		}
		c.calls += n
		c.bytes += b
	}
	c.nanos = float64(time.Since(start))
	c.allocs = heapAllocs() - a0
	return c, nil
}

// replayTable replays rs through each layer and returns its metrics.
func replayTable(rs *replaySet) (map[string]metric, error) {
	out := map[string]metric{}
	n := len(rs.Msgs)

	// Codec.
	var codec rpc.Codec
	wire := make([][]byte, n)
	marshal, err := measure(func() (int, int, error) {
		for i, m := range rs.Msgs {
			b, err := codec.Marshal(m)
			if err != nil {
				return 0, 0, err
			}
			wire[i] = b
		}
		return n, 0, nil
	})
	if err != nil {
		return nil, fmt.Errorf("marshal: %w", err)
	}
	unmarshal, err := measure(func() (int, int, error) {
		for _, b := range wire {
			if _, err := codec.Unmarshal(b); err != nil {
				return 0, 0, err
			}
		}
		return n, 0, nil
	})
	if err != nil {
		return nil, fmt.Errorf("unmarshal: %w", err)
	}
	out["rpc.codec.marshal_ns"] = metric{Value: marshal.nsPerCall(), Unit: "ns", N: marshal.calls}
	out["rpc.codec.unmarshal_ns"] = metric{Value: unmarshal.nsPerCall(), Unit: "ns", N: unmarshal.calls}
	out["rpc.codec.allocs"] = metric{Value: marshal.allocsPerCall() + unmarshal.allocsPerCall(), Unit: "count", N: marshal.calls}

	// Pipeline, with the workload's options.
	enc, err := rs.NewPipeline()
	if err != nil {
		return nil, err
	}
	dec, err := rs.NewPipeline()
	if err != nil {
		return nil, err
	}
	frames := make([][]byte, n)
	encode, err := measure(func() (int, int, error) {
		for i, m := range rs.Msgs {
			b, err := enc.Encode(m)
			if err != nil {
				return 0, 0, err
			}
			frames[i] = b
		}
		return n, 0, nil
	})
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	decode, err := measure(func() (int, int, error) {
		for _, b := range frames {
			if _, err := dec.Decode(b); err != nil {
				return 0, 0, err
			}
		}
		return n, 0, nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	es := enc.Stats()
	perMsgIn := int(es.BytesIn / es.Serialized)
	out["rpc.pipeline.encode_us_per_mib"] = metric{Value: encode.usPerMiB(perMsgIn * encode.calls), Unit: "us/MiB", N: encode.calls}
	out["rpc.pipeline.decode_us_per_mib"] = metric{Value: decode.usPerMiB(perMsgIn * decode.calls), Unit: "us/MiB", N: decode.calls}
	out["rpc.pipeline.allocs"] = metric{Value: encode.allocsPerCall() + decode.allocsPerCall(), Unit: "count", N: encode.calls}
	out["rpc.pipeline.wire_ratio"] = metric{Value: float64(es.BytesOut) / float64(es.BytesIn), Unit: "fraction", N: int(es.Serialized)}

	// Frame I/O over a loopback TCP pair.
	wr, rd, err := replayFrames(frames)
	if err != nil {
		return nil, fmt.Errorf("frames: %w", err)
	}
	out["rpc.frame.write_ns"] = metric{Value: wr.nsPerCall(), Unit: "ns", N: wr.calls}
	out["rpc.frame.read_ns"] = metric{Value: rd.nsPerCall(), Unit: "ns", N: rd.calls}

	// Kernels, on the messages' payloads.
	if err := replayKernels(out, rs.Msgs); err != nil {
		return nil, err
	}

	// Span recording.
	tr := telemetry.NewTracer("replay")
	span, err := measure(func() (int, int, error) {
		for _, name := range rs.SpanNames {
			tr.Start(name).End()
		}
		return len(rs.SpanNames), 0, nil
	})
	if err != nil {
		return nil, err
	}
	out["telemetry.span_ns"] = metric{Value: span.nsPerCall(), Unit: "ns", N: span.calls}
	out["telemetry.span_allocs"] = metric{Value: span.allocsPerCall(), Unit: "count", N: span.calls}
	return out, nil
}

// replayKernels times the compression, decompression, encryption and
// hash kernels on each message payload and reports µs per MiB of input.
func replayKernels(out map[string]metric, msgs []rpc.Message) error {
	var payloads [][]byte
	total := 0
	for _, m := range msgs {
		if len(m.Payload) > 0 {
			payloads = append(payloads, m.Payload)
			total += len(m.Payload)
		}
	}
	compressed := make([][]byte, len(payloads))
	var dst []byte
	compress, err := measure(func() (int, int, error) {
		for i, p := range payloads {
			var err error
			if compressed[i], err = kernels.CompressAppend(compressed[i][:0], p, flate.BestSpeed); err != nil {
				return 0, 0, err
			}
		}
		return len(payloads), total, nil
	})
	if err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	decompress, err := measure(func() (int, int, error) {
		for _, c := range compressed {
			var err error
			if dst, err = kernels.DecompressAppend(dst[:0], c); err != nil {
				return 0, 0, err
			}
		}
		return len(payloads), total, nil
	})
	if err != nil {
		return fmt.Errorf("decompress: %w", err)
	}
	cipher, err := kernels.NewCipher(make([]byte, bulkKeyBytes))
	if err != nil {
		return err
	}
	iv := make([]byte, 16)
	longest := 0
	for _, p := range payloads {
		longest = max(longest, len(p))
	}
	sealed := make([]byte, longest)
	encrypt, err := measure(func() (int, int, error) {
		for _, p := range payloads {
			if err := cipher.EncryptTo(sealed[:len(p)], iv, p); err != nil {
				return 0, 0, err
			}
		}
		return len(payloads), total, nil
	})
	if err != nil {
		return fmt.Errorf("encrypt: %w", err)
	}
	hash, err := measure(func() (int, int, error) {
		for _, p := range payloads {
			kernels.Hash(p)
		}
		return len(payloads), total, nil
	})
	if err != nil {
		return err
	}
	for name, c := range map[string]cost{
		"kernels.compress_us_per_mib":   compress,
		"kernels.decompress_us_per_mib": decompress,
		"kernels.encrypt_us_per_mib":    encrypt,
		"kernels.hash_us_per_mib":       hash,
	} {
		out[name] = metric{Value: c.usPerMiB(c.bytes), Unit: "us/MiB", N: c.calls}
	}
	return nil
}

// firstByte records when a read first returned data, so a frame read is
// timed from its first byte rather than from when the reader began
// waiting.
type firstByte struct {
	r     io.Reader
	first time.Time
}

func (f *firstByte) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.first.IsZero() {
		f.first = time.Now()
	}
	return n, err
}

// replayFrames writes each frame with rpc.WriteFrame on one end of a
// loopback TCP pair and reads it with rpc.ReadFrame on the other, one
// frame at a time, until replayBudget is spent.
func replayFrames(frames [][]byte) (wr, rd cost, err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return wr, rd, err
	}
	defer lis.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := lis.Accept()
		acc <- accepted{c, err}
	}()
	w, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return wr, rd, err
	}
	defer w.Close()
	a := <-acc
	if a.err != nil {
		return wr, rd, a.err
	}
	defer a.c.Close()

	reader := &firstByte{r: a.c}
	type readResult struct {
		d   time.Duration
		err error
	}
	next := make(chan int)
	got := make(chan readResult)
	go func() {
		for i := range next {
			reader.first = time.Time{}
			b, err := rpc.ReadFrame(reader)
			if err == nil && len(b) != len(frames[i]) {
				err = fmt.Errorf("read %d bytes, wrote %d", len(b), len(frames[i]))
			}
			got <- readResult{time.Since(reader.first), err}
		}
	}()
	defer close(next)

	start := time.Now()
	for wr.calls == 0 || time.Since(start) < replayBudget {
		for i, f := range frames {
			next <- i
			t0 := time.Now()
			if err := rpc.WriteFrame(w, f); err != nil {
				w.Close() // unblocks the reader with EOF
				<-got
				return wr, rd, err
			}
			wr.nanos += float64(time.Since(t0))
			r := <-got
			if r.err != nil {
				return wr, rd, r.err
			}
			rd.nanos += float64(r.d)
			wr.calls++
			rd.calls++
		}
	}
	return wr, rd, nil
}
