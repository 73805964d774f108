package rpc

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCodecRoundTrip(t *testing.T) {
	var c Codec
	m := Message{
		Method:  "cache.get",
		Headers: map[string]string{"key": "user:42", "tier": "cache1"},
		Payload: []byte("payload bytes"),
	}
	data, err := c.Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := c.Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestCodecEmptyMessage(t *testing.T) {
	var c Codec
	data, err := c.Marshal(Message{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "" || got.Headers != nil || got.Payload != nil {
		t.Errorf("empty round trip = %+v", got)
	}
}

func TestCodecDeterministic(t *testing.T) {
	var c Codec
	m := Message{Headers: map[string]string{"b": "2", "a": "1", "c": "3"}}
	first, _ := c.Marshal(m)
	for i := 0; i < 10; i++ {
		again, _ := c.Marshal(m)
		if !bytes.Equal(first, again) {
			t.Fatal("marshal is not deterministic across map iteration orders")
		}
	}
}

func TestCodecRejectsCorrupt(t *testing.T) {
	var c Codec
	data, _ := c.Marshal(Message{Method: "m", Payload: []byte("hello")})

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0xFF
	if _, err := c.Unmarshal(flipped); err == nil {
		t.Error("bit flip: want error")
	}
	if _, err := c.Unmarshal(data[:5]); err == nil {
		t.Error("truncated: want error")
	}
	if _, err := c.Unmarshal(nil); err == nil {
		t.Error("empty: want error")
	}
}

func TestCodecLimits(t *testing.T) {
	var c Codec
	if _, err := c.Marshal(Message{Method: strings.Repeat("x", maxMethodLen+1)}); err == nil {
		t.Error("oversized method: want error")
	}
	big := map[string]string{"k": strings.Repeat("v", maxHeaderVal+1)}
	if _, err := c.Marshal(Message{Headers: big}); err == nil {
		t.Error("oversized header: want error")
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	var c Codec
	f := func(method string, payload []byte, hk, hv string) bool {
		if len(method) > maxMethodLen || len(hk) > maxMethodLen || len(hv) > maxHeaderVal {
			return true
		}
		m := Message{Method: method, Payload: payload}
		if hk != "" {
			m.Headers = map[string]string{hk: hv}
		}
		data, err := c.Marshal(m)
		if err != nil {
			return false
		}
		got, err := c.Unmarshal(data)
		if err != nil {
			return false
		}
		if got.Method != m.Method || !bytes.Equal(got.Payload, m.Payload) {
			return false
		}
		if hk != "" && got.Headers[hk] != hv {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPipelinePlain(t *testing.T) {
	p, err := NewPipeline()
	if err != nil {
		t.Fatal(err)
	}
	m := Message{Method: "x", Payload: []byte("data")}
	enc, err := p.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "x" || string(got.Payload) != "data" {
		t.Errorf("round trip = %+v", got)
	}
	st := p.Stats()
	if st.Serialized != 1 || st.Deserialized != 1 || st.Compressions != 0 || st.Encryptions != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPipelineCompressed(t *testing.T) {
	p, err := NewPipeline(WithCompression(flate.BestSpeed))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("abcdefgh"), 512)
	enc, err := p.Encode(Message{Method: "feed.stories", Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(payload) {
		t.Errorf("compressible payload did not shrink: %d -> %d", len(payload), len(enc))
	}
	got, err := p.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Error("payload mismatch")
	}
	st := p.Stats()
	if st.Compressions != 1 || st.Decompression != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPipelineEncrypted(t *testing.T) {
	key := make([]byte, 32)
	p, err := NewPipeline(WithEncryption(key))
	if err != nil {
		t.Fatal(err)
	}
	m := Message{Method: "cache.get", Payload: []byte("secret")}
	enc, err := p.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(enc, []byte("secret")) {
		t.Error("plaintext visible on the wire")
	}
	// Decode through a separate pipeline with the same key (fresh state).
	p2, _ := NewPipeline(WithEncryption(key))
	got, err := p2.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "secret" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestPipelineEncryptedDistinctIVs(t *testing.T) {
	p, _ := NewPipeline(WithEncryption(make([]byte, 16)))
	m := Message{Payload: []byte("same plaintext")}
	a, _ := p.Encode(m)
	b, _ := p.Encode(m)
	if bytes.Equal(a, b) {
		t.Error("two encryptions of the same message must differ (fresh IVs)")
	}
}

func TestPipelineFull(t *testing.T) {
	key := make([]byte, 16)
	mk := func() *Pipeline {
		p, err := NewPipeline(WithCompression(flate.DefaultCompression), WithEncryption(key))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sender, receiver := mk(), mk()
	m := Message{Method: "m", Payload: bytes.Repeat([]byte("z"), 4096)}
	enc, err := sender.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := receiver.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, m.Payload) {
		t.Error("full pipeline round trip failed")
	}
}

func TestPipelineFlagMismatch(t *testing.T) {
	plain, _ := NewPipeline()
	compressed, _ := NewPipeline(WithCompression(flate.BestSpeed))
	enc, _ := compressed.Encode(Message{Payload: []byte("x")})
	if _, err := plain.Decode(enc); err == nil {
		t.Error("decoding compressed frame with plain pipeline: want error")
	}
	// Bare codec also refuses transformed frames.
	encPlain, _ := plain.Encode(Message{Payload: []byte("x")})
	var c Codec
	if _, err := c.Unmarshal(encPlain); err != nil {
		t.Errorf("bare codec should accept untransformed pipeline output: %v", err)
	}
}

func TestPipelineOptionErrors(t *testing.T) {
	if _, err := NewPipeline(WithCompression(42)); err == nil {
		t.Error("bad level: want error")
	}
	if _, err := NewPipeline(WithEncryption(make([]byte, 5))); err == nil {
		t.Error("bad key: want error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("frame = %q", got)
	}
}

func TestFrameEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty frame = %v", got)
	}
}

func TestReadFrameRejectsHuge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("huge frame length: want error")
	}
}

func TestClientServerOverPipe(t *testing.T) {
	srv, err := NewServer(func(_ context.Context, req Message) (Message, error) {
		return Message{
			Method:  req.Method,
			Payload: append([]byte("echo:"), req.Payload...),
		}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	clientConn, serverConn := net.Pipe()
	go srv.ServeConn(context.Background(), serverConn)

	client, err := NewClient(clientConn, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resp, err := client.Call(Message{Method: "ping", Payload: []byte("hi")})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp.Payload) != "echo:hi" {
		t.Errorf("response = %q", resp.Payload)
	}
}

func TestClientServerEncryptedOverTCP(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 7)
	}
	newPipe := func() (*Pipeline, error) {
		return NewPipeline(WithCompression(flate.BestSpeed), WithEncryption(key))
	}
	srv, err := NewServer(func(_ context.Context, req Message) (Message, error) {
		return Message{Method: req.Method, Payload: req.Payload}, nil
	}, newPipe)
	if err != nil {
		t.Fatal(err)
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
	cp, err := newPipe()
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(conn, cp)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("req"), 1000)
	for i := 0; i < 5; i++ {
		resp, err := client.Call(Message{Method: "kv.get", Payload: payload})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(resp.Payload, payload) {
			t.Fatalf("call %d payload mismatch", i)
		}
	}
	_ = client.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

func TestServerHandlerError(t *testing.T) {
	srv, _ := NewServer(func(_ context.Context, req Message) (Message, error) {
		return Message{}, errFromString("boom")
	}, nil)
	clientConn, serverConn := net.Pipe()
	go srv.ServeConn(context.Background(), serverConn)
	client, _ := NewClient(clientConn, nil)
	defer client.Close()
	_, err := client.Call(Message{Method: "x"})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Call error = %v, want remote boom", err)
	}
}

func TestNewServerNilHandler(t *testing.T) {
	if _, err := NewServer(nil, nil); err == nil {
		t.Error("nil handler: want error")
	}
}

func TestNewClientNilConn(t *testing.T) {
	if _, err := NewClient(nil, nil); err == nil {
		t.Error("nil conn: want error")
	}
}

type errFromString string

func (e errFromString) Error() string { return string(e) }

// TestClientConcurrentCallers shares one Client over TCP between 32
// goroutines: the Client serializes exchanges on its connection, so every
// caller gets its own response back, whichever entry point it uses.
func TestClientConcurrentCallers(t *testing.T) {
	srv, err := NewServer(func(_ context.Context, req Message) (Message, error) {
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
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	const goroutines, calls = 32, 20
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < calls; i++ {
				req := Message{Method: fmt.Sprintf("m%d.%d", g, i), Payload: bytes.Repeat([]byte{byte(g)}, 64+g*i)}
				var resp Message
				var err error
				switch g % 3 {
				case 0:
					resp, err = client.CallContext(context.Background(), req)
				case 1:
					resp, err = client.Call(req)
				default:
					var resps []Message
					var errs []error
					if resps, errs, err = client.CallBatch([]Message{req}); err == nil {
						resp, err = resps[0], errs[0]
					}
				}
				if err != nil {
					errc <- fmt.Errorf("goroutine %d call %d: %w", g, i, err)
					return
				}
				if resp.Method != req.Method || !bytes.Equal(resp.Payload, req.Payload) {
					errc <- fmt.Errorf("goroutine %d call %d: got %s (%d bytes), want %s (%d bytes)",
						g, i, resp.Method, len(resp.Payload), req.Method, len(req.Payload))
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
