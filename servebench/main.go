// Command servebench is the repository's serving-stack benchmark. Each
// workload stands up part of the serving stack in this process from the
// program's public API, drives it from a seed, checks every response and
// prints its metrics. See README.md for the workloads and metrics.
//
//	bash servebench/run.sh --workload thin-fanout --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced, each for half the time, and
// prints the per-layer metrics and the tracing overhead. The last line of
// standard output is a JSON object; a run that fails a correctness check
// exits non-zero and reports no metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64
	Unit  string
	N     int // samples behind the value (0 = a single measurement)
}

// phase is one measured run of a workload.
type phase struct {
	Attempted int
	Failed    int
	FirstErr  error
	E2E       map[string]metric
	Layer     map[string]metric // per-layer metrics; the traced ones only when traced
	Notes     []string          // human-readable detail printed before the result
}

// params configures one phase.
type params struct {
	Seed    uint64
	Seconds float64 // measured time of the phase
	Traced  bool
	// Half marks either half of a traced run: a workload with a rate
	// ladder runs only its nominal rung, so both halves do the same work.
	Half  bool
	Nproc int
}

// workload is one traffic mix.
type workload struct {
	Name string // why each workload exists: BENCHMARK.json and README.md
	// Run stands the workload up, drives it and tears it down.
	Run func(p params) (*phase, error)
	// Sample returns a seeded sample of the workload's own messages for
	// the per-layer replay table.
	Sample func(p params) (*replaySet, error)
}

var workloads = []*workload{thinFanout, cacheBulk, fanoutPoisson, asyncStorm}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// End-to-end metrics, printed with --trace 0 for every workload.
const (
	eSetup      = "setup_s"
	eThroughput = "throughput_rps"
	eP50        = "latency_p50_ms"
	eP95        = "latency_p95_ms"
	eP99        = "latency_p99_ms"
	eCPU        = "cpu_us_per_req"
	eAllocs     = "allocs_per_req"
	eHeap       = "peak_heap_mb"
)

// endToEndNames are the end-to-end metrics of the result line. The p99 is
// printed in the table above it but not gated: on a shared 2-core host
// millisecond stalls from outside the process set it whenever they delay
// more than 1% of requests, and it moved 3x between runs of thin-fanout.
var endToEndNames = []string{eSetup, eThroughput, eP50, eP95, eCPU, eAllocs, eHeap}

// tailCats are the tail-tax categories reported at p50 and p99.
var tailCats = []string{"work", "rpc", "transport", "queue", "device"}

// perLayerNames lists every per-layer metric, printed with --trace 1 for
// every workload; a layer the workload does not use reads 0.
var perLayerNames = func() []string {
	names := []string{
		"topology.call_p50_us", "topology.call_p99_us", "topology.root_p50_us",
		"topology.driver_p50_us", "topology.leaf_p99_us", "topology.tail_amp",
		"rpc.call_p50_us", "rpc.call_p99_us",
		"rpc.codec.marshal_ns", "rpc.codec.unmarshal_ns", "rpc.codec.allocs",
		"rpc.frame.write_ns", "rpc.frame.read_ns",
		"rpc.pipeline.encode_us_per_mib", "rpc.pipeline.decode_us_per_mib",
		"rpc.pipeline.allocs", "rpc.pipeline.wire_ratio",
		"kernels.compress_us_per_mib", "kernels.decompress_us_per_mib",
		"kernels.encrypt_us_per_mib", "kernels.hash_us_per_mib",
		"rpc.engine.queue_wait_us", "rpc.engine.park_wait_us",
		"rpc.engine.queue_depth_max", "rpc.engine.parked_max",
		"kernels.simaccel.inflight_max", "rpc.mux.inflight_max",
		"telemetry.spans_per_req", "telemetry.spans_dropped_per_req",
		"telemetry.span_ns", "telemetry.span_allocs",
	}
	for _, q := range []string{"p50", "p99"} {
		for _, c := range tailCats {
			names = append(names, "tailtrace."+q+"."+c+"_share")
		}
	}
	return append(names,
		"bench.gen.lag_p99_ms", "bench.gen.lag_max_ms",
		"runtime.gc_cpu_share", "runtime.gc_per_kreq",
		"runtime.sched_wait_p99_us", "runtime.goroutines_max",
		"bench.trace_overhead.cpu_us_per_req", "bench.trace_overhead.allocs_per_req",
		"bench.trace_overhead.latency_p50_ms",
	)
}()

// perLayerUnits gives each per-layer metric's unit by name suffix.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us_per_mib"):
		return "us/MiB"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"):
		return "fraction"
	case strings.HasSuffix(name, "tail_amp"):
		return "x"
	case strings.HasSuffix(name, ".cpu_us_per_req"):
		return "us"
	}
	return "count"
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: want --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	p := params{Seed: *seed, Seconds: float64(*seconds), Traced: *trace == 1, Nproc: runtime.NumCPU()}
	printStamp(w, p)

	var ph *phase
	var err error
	if p.Traced {
		ph, err = tracedRun(w, p)
	} else {
		ph, err = w.Run(p)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", w.Name, err)
		return 1
	}
	for _, n := range ph.Notes {
		fmt.Println(n)
	}
	out := map[string]metric{}
	names := endToEndNames
	src := ph.E2E
	if p.Traced {
		names, src = perLayerNames, ph.Layer
	}
	for _, n := range names {
		m := src[n] // a layer the workload does not use reads 0
		if p.Traced {
			m.Unit = perLayerUnit(n)
		}
		out[n] = m
	}
	table := out
	if !p.Traced {
		table = ph.E2E // with the ungated p99
	}
	printTable(table)
	correct := ph.Failed == 0 && ph.Attempted > 0
	if !correct {
		fmt.Fprintf(os.Stderr, "servebench: %s: %d of %d requests failed their check; first: %v\n",
			w.Name, ph.Failed, ph.Attempted, ph.FirstErr)
		out = nil
	}
	line, err := resultJSON(correct, ph.Attempted, ph.Failed, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// tracedRun runs the workload untraced and then traced, each for half the
// time, and reports the traced phase's per-layer metrics, the replay
// table and the difference between the two phases.
func tracedRun(w *workload, p params) (*phase, error) {
	half := p
	half.Seconds = p.Seconds / 2
	half.Traced = false
	half.Half = true
	plain, err := w.Run(half)
	if err != nil {
		return nil, fmt.Errorf("untraced phase: %w", err)
	}
	half.Traced = true
	traced, err := w.Run(half)
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	if plain.Failed > 0 || traced.Failed > 0 {
		first := plain.FirstErr
		if first == nil {
			first = traced.FirstErr
		}
		return &phase{Attempted: plain.Attempted + traced.Attempted, Failed: plain.Failed + traced.Failed, FirstErr: first}, nil
	}
	rs, err := w.Sample(p)
	if err != nil {
		return nil, fmt.Errorf("replay sample: %w", err)
	}
	table, err := replayTable(rs)
	if err != nil {
		return nil, fmt.Errorf("replay table: %w", err)
	}
	for k, v := range table {
		traced.Layer[k] = v
	}
	for _, n := range []string{eCPU, eAllocs, eP50} {
		traced.Layer["bench.trace_overhead."+n] = metric{
			Value: traced.E2E[n].Value - plain.E2E[n].Value,
			Unit:  traced.E2E[n].Unit,
		}
	}
	out := &phase{Attempted: plain.Attempted + traced.Attempted, Layer: traced.Layer}
	out.Notes = append(out.Notes, "# untraced phase")
	out.Notes = append(out.Notes, plain.Notes...)
	out.Notes = append(out.Notes, formatTable(plain.E2E)...)
	out.Notes = append(out.Notes, "# traced phase")
	out.Notes = append(out.Notes, traced.Notes...)
	out.Notes = append(out.Notes, formatTable(traced.E2E)...)
	out.Notes = append(out.Notes, "# per-layer metrics (traced phase and replay table)")
	return out, nil
}

// printStamp prints the host stamp every result carries.
func printStamp(w *workload, p params) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# servebench workload=%s seed=%d seconds=%g trace=%t\n", w.Name, p.Seed, p.Seconds, p.Traced)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func formatTable(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("%-38s %14.4f %-9s", n, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		out = append(out, line)
	}
	return out
}

func printTable(ms map[string]metric) {
	for _, l := range formatTable(ms) {
		fmt.Println(l)
	}
}

// resultJSON renders the final result line.
func resultJSON(correct bool, attempted, failed int, ms map[string]metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for n, m := range ms {
		out.Metrics[n] = value{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// segment is one measured slice of a phase: the latencies of its correct
// requests (sorted, ms), its wall time and its usage.
type segment struct {
	Lat  []float64
	Wall time.Duration
	U    usage
}

// endToEnd derives the end-to-end metrics of a phase from its segments.
// Each metric is the median over the segments, so a burst of host noise
// in one segment does not move it. Every segment's p95 must have ten
// samples beyond it; the ungated p99 is reported only when every
// segment's does.
func endToEnd(setup []float64, segs []segment) (map[string]metric, error) {
	var thr, p50, p95, p99, cpu, allocs, heap []float64
	total, p99ok := 0, true
	for i, s := range segs {
		ok := len(s.Lat)
		if ok == 0 {
			return nil, fmt.Errorf("segment %d: no correct requests", i)
		}
		t, err := supported(s.Lat, 0.95)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		t99, err := supported(s.Lat, 0.99)
		p99ok = p99ok && err == nil
		total += ok
		thr = append(thr, float64(ok)/s.Wall.Seconds())
		p50 = append(p50, percentile(s.Lat, 0.5).Value)
		p95 = append(p95, t.Value)
		p99 = append(p99, t99.Value)
		cpu = append(cpu, float64(s.U.CPU)/float64(time.Microsecond)/float64(ok))
		allocs = append(allocs, float64(s.U.Allocs)/float64(ok))
		heap = append(heap, float64(s.U.PeakLiveBytes)/(1<<20))
	}
	if total == 0 {
		return nil, fmt.Errorf("no correct requests")
	}
	m := map[string]metric{
		eSetup:      {Value: median(setup), Unit: "s", N: len(setup)},
		eThroughput: {Value: median(thr), Unit: "1/s", N: total},
		eP50:        {Value: median(p50), Unit: "ms", N: total},
		eP95:        {Value: median(p95), Unit: "ms", N: total},
		eCPU:        {Value: median(cpu), Unit: "us", N: total},
		eAllocs:     {Value: median(allocs), Unit: "count", N: total},
		eHeap:       {Value: median(heap), Unit: "MB", N: len(segs)},
	}
	if p99ok {
		m[eP99] = metric{Value: median(p99), Unit: "ms", N: total}
	}
	return m, nil
}

// combined sums the usage of a phase's segments; peaks are the largest
// segment's.
func combined(segs []segment) usage {
	var u usage
	for _, s := range segs {
		u.CPU += s.U.CPU
		u.Allocs += s.U.Allocs
		u.GCCycles += s.U.GCCycles
		u.GCCPUShare += s.U.GCCPUShare / float64(len(segs))
		u.SchedP99 = max(u.SchedP99, s.U.SchedP99)
		u.PeakLiveBytes = max(u.PeakLiveBytes, s.U.PeakLiveBytes)
		u.MaxGoroutines = max(u.MaxGoroutines, s.U.MaxGoroutines)
	}
	return u
}

// runtimeLayer reports the runtime's per-layer metrics for a phase.
func runtimeLayer(layer map[string]metric, u usage, requests int) {
	layer["runtime.gc_cpu_share"] = metric{Value: u.GCCPUShare, Unit: "fraction"}
	layer["runtime.gc_per_kreq"] = metric{Value: float64(u.GCCycles) * 1000 / float64(max(requests, 1)), Unit: "count", N: requests}
	layer["runtime.sched_wait_p99_us"] = metric{Value: float64(u.SchedP99) / float64(time.Microsecond), Unit: "us"}
	layer["runtime.goroutines_max"] = metric{Value: float64(u.MaxGoroutines), Unit: "count"}
}

// genLayer reports how late an open-loop generator ran.
func genLayer(layer map[string]metric, lag []time.Duration) {
	s := sortedMillis(lag)
	if len(s) == 0 {
		return
	}
	layer["bench.gen.lag_p99_ms"] = metric{Value: percentile(s, 0.99).Value, Unit: "ms", N: len(s)}
	layer["bench.gen.lag_max_ms"] = metric{Value: s[len(s)-1], Unit: "ms", N: len(s)}
}

// timeSetups stands a stack up k times and reports each set-up time in
// seconds. Every stack but the last is closed; the last is returned for
// the measured phase. Each set-up starts from a collected heap, so the
// garbage of the inputs and of earlier set-ups does not shift its time.
func timeSetups[S interface{ close() error }](k int, setup func() (S, error)) ([]float64, S, error) {
	var times []float64
	var last S
	for i := 0; i < k; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return nil, last, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == k-1 {
			last = s
			break
		}
		if err := s.close(); err != nil {
			return nil, last, fmt.Errorf("close after set-up: %w", err)
		}
	}
	return times, last, nil
}

// closeInto closes s and reports a teardown failure through *err unless
// the run already failed.
func closeInto(s interface{ close() error }, err *error) {
	if cerr := s.close(); cerr != nil && *err == nil {
		*err = fmt.Errorf("teardown: %w", cerr)
	}
}
