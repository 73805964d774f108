package main

import (
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/kernels"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// cache-bulk: nproc rpc.Clients, each on its own TCP connection, call one
// rpc.Server whose pipelines (and theirs) compress and encrypt. 80% of
// requests get a seeded record by key; 20% set a seeded value and get its
// digest back.

const (
	bulkGetRecords = 48        // preloaded records the gets read
	bulkSetRecords = 16        // values the sets write
	bulkSetSlots   = 8         // keys each caller's sets rotate over
	bulkMinValue   = 4 << 10   // smallest record
	bulkMaxValue   = 256 << 10 // largest record
	bulkSetShare   = 5         // one request in bulkSetShare is a set
	bulkKeyHeader  = "key"     // set requests carry their key here
	bulkKeyBytes   = 16        // AES-128
	bulkGet        = "cache.get"
	bulkSet        = "cache.set"
)

// bulkData is cache-bulk's seeded inputs.
type bulkData struct {
	keys    [][]byte // get keys, index-aligned with vals
	vals    [][]byte
	sets    [][]byte // set values
	digests [][32]byte
	key     []byte // pipeline encryption key
}

func newBulkData(seed uint64) *bulkData {
	rng := newRand(seed, 2)
	d := &bulkData{key: make([]byte, bulkKeyBytes)}
	for i := range d.key {
		d.key[i] = byte(rng.Uint32())
	}
	// Sizes are stratified: record j of n takes the midpoint of the j-th
	// of n equal log-spaced bands, and the seed shuffles which key gets
	// which, so every seed moves the same bytes.
	records := func(n int) [][]byte {
		out := make([][]byte, n)
		for i, j := range rng.Perm(n) {
			out[i] = make([]byte, logSpaced(bulkMinValue, bulkMaxValue, (float64(j)+0.5)/float64(n)))
			kernels.FillCompressible(out[i], rng.Uint64())
		}
		return out
	}
	d.vals = records(bulkGetRecords)
	for i := range d.vals {
		d.keys = append(d.keys, []byte(fmt.Sprintf("k%03d", i)))
	}
	for _, v := range records(bulkSetRecords) {
		d.sets = append(d.sets, v)
		d.digests = append(d.digests, kernels.Hash(v))
	}
	return d
}

func (d *bulkData) newPipeline() (*rpc.Pipeline, error) {
	return rpc.NewPipeline(rpc.WithCompression(flate.BestSpeed), rpc.WithEncryption(d.key))
}

// bulkStore is the server's key-value store.
type bulkStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

func (s *bulkStore) handle(_ context.Context, req rpc.Message) (rpc.Message, error) {
	switch req.Method {
	case bulkGet:
		s.mu.RLock()
		v, ok := s.m[string(req.Payload)]
		s.mu.RUnlock()
		if !ok {
			return rpc.Message{}, fmt.Errorf("no key %q", req.Payload)
		}
		return rpc.Message{Method: bulkGet, Payload: v}, nil
	case bulkSet:
		sum := kernels.Hash(req.Payload)
		s.mu.Lock()
		s.m[req.Headers[bulkKeyHeader]] = req.Payload
		s.mu.Unlock()
		return rpc.Message{Method: bulkSet, Payload: sum[:]}, nil
	}
	return rpc.Message{}, fmt.Errorf("unknown method %q", req.Method)
}

// bulkStack is one running cache-bulk deployment.
type bulkStack struct {
	srv     *rpc.Server
	clients []*rpc.Client
	served  chan error
	cancel  context.CancelFunc
}

func (s *bulkStack) close() error {
	var errs []error
	for _, c := range s.clients {
		errs = append(errs, c.Close())
	}
	errs = append(errs, s.srv.Close(), <-s.served)
	s.cancel()
	return errors.Join(errs...)
}

// startBulk stands up the server and dials one client per caller. When
// tracer is non-nil both sides are instrumented with it.
func startBulk(d *bulkData, callers int, tracer *telemetry.Tracer) (*bulkStack, error) {
	store := &bulkStore{m: make(map[string][]byte, bulkGetRecords)}
	for i, k := range d.keys {
		store.m[string(k)] = d.vals[i]
	}
	srv, err := rpc.NewServer(store.handle, d.newPipeline)
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		srv.Instrument(&rpc.Instrumentation{Tracer: tracer})
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &bulkStack{srv: srv, served: make(chan error, 1), cancel: cancel}
	go func() { st.served <- srv.Serve(ctx, lis) }()
	for i := 0; i < callers; i++ {
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		pl, err := d.newPipeline()
		if err != nil {
			return nil, errors.Join(err, conn.Close(), st.close())
		}
		c, err := rpc.NewClient(conn, pl)
		if err != nil {
			return nil, errors.Join(err, conn.Close(), st.close())
		}
		if tracer != nil {
			c.Instrument(&rpc.Instrumentation{Tracer: tracer})
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// bulkCaller is one closed-loop caller's request stream and checks.
type bulkCaller struct {
	d     *bulkData
	c     *rpc.Client
	rng   interface{ IntN(int) int }
	slots []map[string]string // set headers, one per key slot
	bench *telemetry.Tracer
}

func newBulkCaller(d *bulkData, c *rpc.Client, seed uint64, w int, bench *telemetry.Tracer) *bulkCaller {
	bc := &bulkCaller{d: d, c: c, rng: newRand(seed, uint64(200+w)), bench: bench}
	for s := 0; s < bulkSetSlots; s++ {
		bc.slots = append(bc.slots, map[string]string{bulkKeyHeader: fmt.Sprintf("s%d-%d", w, s)})
	}
	return bc
}

// next draws the caller's next request and the response it must get.
func (bc *bulkCaller) next(k int) (req rpc.Message, want []byte) {
	if bc.rng.IntN(bulkSetShare) == 0 {
		i := bc.rng.IntN(bulkSetRecords)
		return rpc.Message{Method: bulkSet, Headers: bc.slots[k%bulkSetSlots], Payload: bc.d.sets[i]}, bc.d.digests[i][:]
	}
	i := bc.rng.IntN(bulkGetRecords)
	return rpc.Message{Method: bulkGet, Payload: bc.d.keys[i]}, bc.d.vals[i]
}

// call issues one request and checks its response: a get returns the
// seeded record, a set returns kernels.Hash of the value sent.
func (bc *bulkCaller) call(k int) error {
	req, want := bc.next(k)
	sp := bc.bench.Start("rpc.Client.CallContext")
	resp, err := bc.c.CallContext(context.Background(), req)
	sp.End()
	if err != nil {
		return err
	}
	return checkBulk(req, resp, want)
}

// checkBulk compares a response with the one its request must get.
func checkBulk(req, resp rpc.Message, want []byte) error {
	if !bytes.Equal(resp.Payload, want) {
		return fmt.Errorf("%s: response of %d bytes does not match the expected %d", req.Method, len(resp.Payload), len(want))
	}
	return nil
}

var cacheBulk = &workload{
	Name: "cache-bulk",
	Run:  runCacheBulk,
	Sample: func(p params) (*replaySet, error) {
		d := newBulkData(p.Seed)
		bc := newBulkCaller(d, nil, p.Seed, 0, nil)
		rs := &replaySet{NewPipeline: d.newPipeline, SpanNames: []string{"rpc.Call/" + bulkGet, "rpc.Server/" + bulkGet}}
		for k := 0; k < 64; k++ {
			req, want := bc.next(k)
			rs.Msgs = append(rs.Msgs, req, rpc.Message{Method: req.Method, Payload: want})
		}
		return rs, nil
	},
}

func runCacheBulk(p params) (ph *phase, err error) {
	d := newBulkData(p.Seed)
	var tracer, bench *telemetry.Tracer
	if p.Traced {
		tracer, bench = telemetry.NewTracer("cache"), newBenchTracer()
	}
	setup, st, err := timeSetups(setupRepeats, func() (*bulkStack, error) { return startBulk(d, p.Nproc, tracer) })
	if err != nil {
		return nil, err
	}
	defer closeInto(st, &err)

	callers := make([]*bulkCaller, p.Nproc)
	for w := range callers {
		callers[w] = newBulkCaller(d, st.clients[w], p.Seed, w, nil)
	}
	call := func(w, k int) error { return callers[w].call(k) }
	warm := closedLoop(p.Nproc, warmup, call)
	for _, bc := range callers {
		bc.bench = bench
	}
	spans0 := countSpans(tracer)
	segs, res := measureClosed(p.Nproc, secs(p.Seconds), call)
	spans1 := countSpans(tracer)

	ph = &phase{Attempted: warm.Calls + res.Calls, Failed: warm.Failed + res.Failed, FirstErr: warm.First}
	if ph.FirstErr == nil {
		ph.FirstErr = res.First
	}
	if ph.Failed > 0 {
		return ph, nil
	}
	if ph.E2E, err = endToEnd(setup, segs); err != nil {
		return nil, err
	}
	ph.Layer = map[string]metric{}
	runtimeLayer(ph.Layer, combined(segs), res.Calls)
	if p.Traced {
		spanLayer(ph.Layer, spans0, spans1, res.Calls)
		callLayer(ph.Layer, "rpc.call", bench.Spans(), "rpc.Client.CallContext")
		tailLayer(ph.Layer, tracer.Spans())
	}
	return ph, nil
}
