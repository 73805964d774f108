package rpc

import (
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/kernels"
	"repro/internal/proflabel"
	"repro/internal/telemetry"
)

// CPU-attribution label sets for the pipeline stages, precomputed at init.
// Each stage carries the Table 3 functionality marker key its cycles
// belong to plus the kernel family it invokes, so a CPU profile collected
// under proflabel.Enable attributes pipeline cycles exactly along the
// paper's "data center tax" category boundaries. Encryption counts as
// secure IO (the paper's SSL cycles sit on the I/O path).
var (
	plSerialize  = proflabel.Labels(proflabel.KeyFunctionality, "serialization", proflabel.KeyKernel, "serialization")
	plCompress   = proflabel.Labels(proflabel.KeyFunctionality, "compression", proflabel.KeyKernel, "compression")
	plEncrypt    = proflabel.Labels(proflabel.KeyFunctionality, "io", proflabel.KeyKernel, "encryption")
	plDecompress = proflabel.Labels(proflabel.KeyFunctionality, "compression", proflabel.KeyKernel, "decompression")
	plFrameIO    = proflabel.Labels(proflabel.KeyFunctionality, "io")
)

// Pipeline encodes messages through the full orchestration path the paper
// characterizes: serialize → compress → encrypt. Each stage is optional and
// instrumented, so the synthetic fleet can attribute bytes and invocations
// to each functionality.
type Pipeline struct {
	codec         Codec
	compress      bool
	compressLevel int
	cipher        *kernels.Cipher
	iv            []byte

	stats   PipelineStats
	mx      *Metrics    // optional stage histograms; nil leaves stages untimed
	methods methodCache // interned method names for allocation-free decode
}

// PipelineStats counts the work done by each stage.
type PipelineStats struct {
	Serialized    uint64 // messages marshaled
	Deserialized  uint64 // messages unmarshaled
	BytesIn       uint64 // pre-transform serialized bytes
	BytesOut      uint64 // post-transform wire bytes
	Compressions  uint64
	Encryptions   uint64
	Decryptions   uint64
	Decompression uint64
}

// PipelineOption configures a Pipeline.
type PipelineOption func(*Pipeline) error

// WithCompression enables DEFLATE compression at the given flate level.
func WithCompression(level int) PipelineOption {
	return func(p *Pipeline) error {
		if level != flate.DefaultCompression && (level < flate.HuffmanOnly || level > flate.BestCompression) {
			return fmt.Errorf("rpc: invalid compression level %d", level)
		}
		p.compress = true
		p.compressLevel = level
		return nil
	}
}

// WithEncryption enables AES-CTR encryption with the given key. The IV for
// each message is derived from a per-message counter, mirroring a session
// nonce.
func WithEncryption(key []byte) PipelineOption {
	return func(p *Pipeline) error {
		c, err := kernels.NewCipher(key)
		if err != nil {
			return err
		}
		p.cipher = c
		p.iv = make([]byte, 16)
		return nil
	}
}

// NewPipeline builds a pipeline with the given options.
func NewPipeline(opts ...PipelineOption) (*Pipeline, error) {
	p := &Pipeline{compressLevel: flate.BestSpeed}
	for _, opt := range opts {
		if err := opt(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Stats returns a snapshot of the pipeline's counters.
func (p *Pipeline) Stats() PipelineStats { return p.stats }

// Instrument attaches stage-latency histograms to the pipeline. Pass nil
// to detach. Client.Instrument and Server.Instrument call this for the
// pipelines they own; standalone pipelines (e.g. services.Exercise) attach
// directly.
func (p *Pipeline) Instrument(mx *Metrics) { p.mx = mx }

// nextIV derives a fresh IV from the encryption counter.
func (p *Pipeline) nextIV() []byte {
	binary.LittleEndian.PutUint64(p.iv, p.stats.Encryptions+p.stats.Decryptions+1)
	sum := sha256.Sum256(p.iv)
	copy(p.iv, sum[:16])
	return p.iv
}

// Encode runs a message through serialize → compress → encrypt and returns
// the wire bytes.
//
// The returned slice comes from the package buffer pool: the caller owns
// it exclusively and may release it with putBuf once the bytes are dead
// (the client/server hot paths do, after the frame write flushes). Callers
// that never release simply forgo reuse — the GC reclaims the buffer.
func (p *Pipeline) Encode(m Message) ([]byte, error) { return p.EncodeSpan(m, nil) }

// EncodeSpan is Encode with per-stage observability: each stage's latency
// is recorded as a child span of sp (when non-nil) and into the attached
// stage histograms (when Instrument was called). With neither attached it
// is identical to Encode.
func (p *Pipeline) EncodeSpan(m Message, sp *telemetry.Span) ([]byte, error) {
	return p.EncodeCtx(context.Background(), m, sp)
}

// EncodeCtx is EncodeSpan with CPU-attribution labels: while profiling
// labels are enabled (proflabel.Enable), each stage runs under its
// functionality/kernel label set merged with any labels already on ctx
// (e.g. the caller's service label), so sampled cycles attribute to the
// exact tax category. Disabled — the steady state — each stage pays one
// atomic load.
func (p *Pipeline) EncodeCtx(ctx context.Context, m Message, sp *telemetry.Span) ([]byte, error) {
	frame, err := p.encodeFrame(ctx, m, sp)
	if err != nil {
		return nil, err
	}
	return frame[frameHeader:], nil
}

// encodeFrame is EncodeCtx for the frame writers: it returns a pooled
// buffer whose first frameHeader bytes are reserved for the length prefix
// and whose remainder is the wire encoding. writeFrame fills the prefix,
// so a frame leaves in one Write with no header copy. The caller owns the
// buffer and releases it with putBuf once the write has returned.
func (p *Pipeline) encodeFrame(ctx context.Context, m Message, sp *telemetry.Span) ([]byte, error) {
	obs := p.mx != nil || sp != nil
	var t0 time.Time

	var flags byte
	if p.compress {
		flags |= flagCompressed
	}
	if p.cipher != nil {
		flags |= flagEncrypted
	}
	if obs {
		t0 = time.Now()
	}
	// Every intermediate below is pooled and owned by this call: each stage
	// appends into a fresh pooled buffer behind the same prefix headroom and
	// releases its input, so one message in steady state recycles the
	// serialize, compress, and encrypt staging instead of allocating them
	// (the paper's Table 2 allocation + memcpy taxes, removed from the
	// harness's own hot path).
	var data []byte
	var err error
	proflabel.Do(ctx, plSerialize, func(context.Context) {
		var size int
		if size, err = wireSize(m); err != nil {
			return
		}
		data, err = appendMessage(getBuf(frameHeader + size)[:frameHeader], m, flags)
	})
	if err != nil {
		return nil, err
	}
	if obs {
		observeStage(p.mx.stageHist(stageSerialize), sp, "serialize", t0)
	}
	p.stats.Serialized++
	p.stats.BytesIn += uint64(len(data) - frameHeader)

	if p.compress {
		if obs {
			t0 = time.Now()
		}
		proflabel.Do(ctx, plCompress, func(context.Context) {
			var out []byte
			out, err = kernels.CompressAppend(getBuf(len(data) + 64)[:frameHeader], data[frameHeader:], p.compressLevel)
			if err != nil {
				return
			}
			putBuf(data)
			data = out
		})
		if err != nil {
			putBuf(data)
			return nil, err
		}
		if obs {
			observeStage(p.mx.stageHist(stageCompress), sp, "compress", t0)
		}
		p.stats.Compressions++
	}
	if p.cipher != nil {
		// The IV must be carried on the wire. IV and ciphertext are written
		// into one pooled buffer: the IV sits right behind the prefix and the
		// ciphertext is produced directly behind it, so the encrypt path
		// performs no join copy and no per-message output allocation.
		if obs {
			t0 = time.Now()
		}
		proflabel.Do(ctx, plEncrypt, func(context.Context) {
			iv := p.nextIV()
			body := data[frameHeader:]
			out := getBufN(frameHeader + len(iv) + len(body))
			copy(out[frameHeader:], iv)
			if err = p.cipher.EncryptTo(out[frameHeader+len(iv):], iv, body); err != nil {
				putBuf(out)
				return
			}
			p.stats.Encryptions++
			putBuf(data)
			data = out
		})
		if err != nil {
			putBuf(data)
			return nil, err
		}
		if obs {
			observeStage(p.mx.stageHist(stageEncrypt), sp, "encrypt", t0)
		}
	}
	p.stats.BytesOut += uint64(len(data) - frameHeader)
	return data, nil
}

// Decode inverts Encode: decrypt → decompress → deserialize. The input is
// only read, never retained: the returned Message owns fresh memory, so a
// pooled frame buffer may be released as soon as Decode returns.
func (p *Pipeline) Decode(data []byte) (Message, error) { return p.DecodeSpan(data, nil) }

// DecodeSpan is Decode with per-stage observability; see EncodeSpan.
func (p *Pipeline) DecodeSpan(data []byte, sp *telemetry.Span) (Message, error) {
	return p.DecodeCtx(context.Background(), data, sp)
}

// DecodeCtx is DecodeSpan with CPU-attribution labels; see EncodeCtx.
func (p *Pipeline) DecodeCtx(ctx context.Context, data []byte, sp *telemetry.Span) (Message, error) {
	obs := p.mx != nil || sp != nil
	var t0 time.Time

	// owned tracks the newest intermediate this call drew from the buffer
	// pool (never the caller's input); each stage releases its predecessor,
	// and the final deserialize releases the last one after copying out.
	var owned []byte
	release := func() {
		if owned != nil {
			putBuf(owned)
			owned = nil
		}
	}

	if p.cipher != nil {
		if len(data) < 16 {
			return Message{}, fmt.Errorf("%w: encrypted frame too short", ErrCorrupt)
		}
		if obs {
			t0 = time.Now()
		}
		var err error
		proflabel.Do(ctx, plEncrypt, func(context.Context) {
			iv, body := data[:16], data[16:]
			dec := getBufN(len(body))
			if err = p.cipher.EncryptTo(dec, iv, body); err != nil { // CTR is symmetric
				putBuf(dec)
				return
			}
			p.stats.Decryptions++
			owned, data = dec, dec
		})
		if err != nil {
			return Message{}, err
		}
		if obs {
			observeStage(p.mx.stageHist(stageDecrypt), sp, "decrypt", t0)
		}
	}
	if p.compress {
		if obs {
			t0 = time.Now()
		}
		var err error
		proflabel.Do(ctx, plDecompress, func(context.Context) {
			var out []byte
			if out, err = kernels.DecompressAppend(getBuf(2*len(data)), data); err != nil {
				return
			}
			release()
			p.stats.Decompression++
			owned, data = out, out
		})
		if err != nil {
			release()
			return Message{}, fmt.Errorf("%w: decompression failed: %v", ErrCorrupt, err)
		}
		if obs {
			observeStage(p.mx.stageHist(stageDecompress), sp, "decompress", t0)
		}
	}
	if obs {
		t0 = time.Now()
	}
	var m Message
	var flags byte
	var err error
	proflabel.Do(ctx, plSerialize, func(context.Context) {
		m, flags, err = unmarshalInterned(data, &p.methods)
	})
	release() // the Message copied everything it keeps
	if err != nil {
		return Message{}, err
	}
	if obs {
		observeStage(p.mx.stageHist(stageDeserialize), sp, "deserialize", t0)
	}
	wantFlags := byte(0)
	if p.compress {
		wantFlags |= flagCompressed
	}
	if p.cipher != nil {
		wantFlags |= flagEncrypted
	}
	if flags != wantFlags {
		return Message{}, fmt.Errorf("%w: flags %#x do not match pipeline config %#x", ErrCorrupt, flags, wantFlags)
	}
	p.stats.Deserialized++
	return m, nil
}
