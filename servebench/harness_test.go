package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/rpc"
	"repro/internal/topology"
)

func ascending(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := supported(ascending(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it; want an error")
	}
	p, err := supported(ascending(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if p.Value != 990 || p.Beyond != 10 || p.N != 1000 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990, 10 beyond, n 1000", p)
	}
	if got := percentile(ascending(5), 0.5); got.Value != 3 || got.N != 5 {
		t.Fatalf("p50 of 1..5 = %+v, want 3 of 5", got)
	}
}

func TestEndToEndNeedsSupportedPercentiles(t *testing.T) {
	good := segment{Lat: ascending(2000), Wall: 2 * time.Second, U: usage{CPU: time.Second, Allocs: 4000}}
	short := segment{Lat: ascending(150), Wall: time.Second}
	if _, err := endToEnd([]float64{1}, []segment{good, short}); err == nil {
		t.Fatal("a segment of 150 samples cannot support a p95; want an error")
	}
	m, err := endToEnd([]float64{1}, []segment{good, {Lat: ascending(500), Wall: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m[eP99]; ok {
		t.Fatal("a segment of 500 samples cannot support a p99, yet one was reported")
	}
	slow := segment{Lat: ascending(1000), Wall: 4 * time.Second, U: usage{CPU: 4 * time.Second, Allocs: 9000}}
	m, err = endToEnd([]float64{1, 2, 3}, []segment{good, good, slow})
	if err != nil {
		t.Fatal(err)
	}
	// Medians over segments: the slow segment moves none of them.
	if m[eThroughput].Value != 1000 || m[eCPU].Value != 500 || m[eAllocs].Value != 2 || m[eSetup].Value != 2 {
		t.Fatalf("end-to-end metrics %+v", m)
	}
	if m[eP95].Value != 1900 {
		t.Fatalf("p95 = %+v, want the segments' median 1900", m[eP95])
	}
	if m[eP99].N != 5000 || m[eP99].Value != 1980 {
		t.Fatalf("p99 = %+v, want the segments' median 1980 over 5000 samples", m[eP99])
	}
}

func TestKneeInterpolatesBracketedCrossing(t *testing.T) {
	rungs := []rung{{Rate: 100, P99: 5}, {Rate: 200, P99: 15}, {Rate: 300, P99: 35}}
	k, err := knee(rungs, 25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-250) > 1e-9 {
		t.Fatalf("knee = %v, want 250 (halfway from 15 ms to 35 ms)", k)
	}
	// A rung that meets the p99 limit but whose backlog grew is a miss;
	// the crossing is placed at that rung.
	rungs[2] = rung{Rate: 300, P99: 20, Backlog: true}
	if k, err = knee(rungs, 25); err != nil || k != 300 {
		t.Fatalf("backlog-only miss: knee = %v, %v; want 300", k, err)
	}
}

func TestKneeFailsWhenNotBracketed(t *testing.T) {
	never := []rung{{Rate: 100, P99: 5}, {Rate: 200, P99: 10}}
	if k, err := knee(never, 25); err == nil {
		t.Fatalf("curve that never crosses gave knee %v; want an error, not a capped value", k)
	}
	always := []rung{{Rate: 100, P99: 30}, {Rate: 200, P99: 40}}
	if k, err := knee(always, 25); err == nil {
		t.Fatalf("curve that starts above the SLO gave knee %v; want an error", k)
	}
	if _, err := knee(nil, 25); err == nil {
		t.Fatal("empty ladder: want an error")
	}
}

func TestBacklogGrew(t *testing.T) {
	steady := make([]time.Duration, 100)
	for i := range steady {
		steady[i] = time.Millisecond
	}
	if backlogGrew(steady, 10*time.Millisecond) {
		t.Fatal("flat latency reported as a growing backlog")
	}
	growing := make([]time.Duration, 100)
	for i := range growing {
		growing[i] = time.Duration(i) * time.Millisecond
	}
	if !backlogGrew(growing, 10*time.Millisecond) {
		t.Fatal("latency rising past the SLO not reported as a growing backlog")
	}
}

func TestOpenLoopCountsEachRequestOnce(t *testing.T) {
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	first := errors.New("callback error")
	res := openLoop(due, func(i int, done func(int, error)) {
		if i == 1 {
			// A transport failure reported by the callback and again by
			// the call that issued the request.
			done(i, first)
			done(i, errors.New("returned error"))
			return
		}
		go done(i, nil)
	})
	if n, err := res.failures(); n != 1 || err != first {
		t.Fatalf("failures = %d, %v; want 1, %v", n, err, first)
	}
}

func TestRungArrivalsSupportP99(t *testing.T) {
	for _, s := range []float64{1, 20, ladderRefSeconds, 60} {
		for i := range ladder {
			n := rungArrivals(i, s)
			if n < ladder[i].Arrivals {
				t.Errorf("rung %d at %gs: %d arrivals, below its %d", i, s, n, ladder[i].Arrivals)
			}
			if _, err := supported(ascending(n), 0.99); err != nil {
				t.Errorf("rung %d at %gs: %v", i, s, err)
			}
		}
	}
	if _, err := supported(ascending(rungArrivals(nominalRung, 1)/nominalSegments), 0.95); err != nil {
		t.Errorf("nominal rung slice: %v", err)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	due := poissonDue(newRand(7, 1), 300, 600)
	if last := due[len(due)-1]; last > 2*time.Second || last < 19*time.Second/10 {
		t.Errorf("600 arrivals at 300/s end at %v, want just under 2s", last)
	}
	if !reflect.DeepEqual(poissonDue(newRand(7, 1), 300, 50), poissonDue(newRand(7, 1), 300, 50)) {
		t.Error("arrival schedule differs between runs of one seed")
	}
	if reflect.DeepEqual(poissonDue(newRand(7, 1), 300, 50), poissonDue(newRand(8, 1), 300, 50)) {
		t.Error("arrival schedule is the same for two seeds")
	}
	if !reflect.DeepEqual(smallPayloads(7, 8), smallPayloads(7, 8)) || reflect.DeepEqual(smallPayloads(7, 8), smallPayloads(8, 8)) {
		t.Error("topology payloads do not follow the seed")
	}
	a, b, c := newBulkData(7), newBulkData(7), newBulkData(8)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a.vals, c.vals) || reflect.DeepEqual(a.key, c.key) {
		t.Error("cache-bulk records do not follow the seed")
	}
	for _, v := range append(a.vals, a.sets...) {
		if len(v) < bulkMinValue || len(v) > bulkMaxValue {
			t.Fatalf("record of %d bytes outside [%d, %d]", len(v), bulkMinValue, bulkMaxValue)
		}
	}
	blocks := stormBlockSet(7)
	s1, err := newStormCycles(7, 2*stormCycle, blocks)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newStormCycles(7, 2*stormCycle, blocks)
	s3, _ := newStormCycles(8, 2*stormCycle, stormBlockSet(8))
	if !reflect.DeepEqual(s1, s2) {
		t.Error("async-storm schedule differs between runs of one seed")
	}
	if reflect.DeepEqual(s1[0].due, s3[0].due) || reflect.DeepEqual(s1[0].blocks, s3[0].blocks) {
		t.Error("async-storm schedule is the same for two seeds")
	}
	if len(s1) != 2 || reflect.DeepEqual(s1[0].due, s1[1].due) {
		t.Fatalf("want two distinct %v cycles, got %d", stormCycle, len(s1))
	}
	for _, in := range s1 {
		if last := in.due[len(in.due)-1]; last < stormCycle*9/10 || last > stormCycle*11/10 {
			t.Errorf("cycle's last arrival at %v, want close to %v", last, stormCycle)
		}
		// The storm third offers about three times the base rate.
		n := len(in.due)
		base := in.due[n/6] - in.due[0]
		storm := in.due[n/2+n/12] - in.due[n/2-n/12]
		if ratio := float64(base) / float64(storm); ratio < 2 {
			t.Errorf("storm rate only %.1fx the base rate", ratio)
		}
	}
}

func TestBulkCheckRejectsCorruptResponse(t *testing.T) {
	d := newBulkData(3)
	bc := newBulkCaller(d, nil, 3, 0, nil)
	for k := 0; k < 20; k++ {
		req, want := bc.next(k)
		good := rpc.Message{Method: req.Method, Payload: append([]byte(nil), want...)}
		if err := checkBulk(req, good, want); err != nil {
			t.Fatalf("%s: correct response rejected: %v", req.Method, err)
		}
		bad := rpc.Message{Method: req.Method, Payload: append([]byte(nil), want...)}
		bad.Payload[len(bad.Payload)/2] ^= 1
		if checkBulk(req, bad, want) == nil {
			t.Fatalf("%s: corrupted response accepted", req.Method)
		}
		if checkBulk(req, rpc.Message{Payload: want[:len(want)-1]}, want) == nil {
			t.Fatalf("%s: truncated response accepted", req.Method)
		}
	}
}

func TestStormCheckRejectsCorruptDigest(t *testing.T) {
	in := &stormInput{blocks: stormBlockSet(3), block: []int{0, 1, 2}, size: []int{64, 100, 4096}, due: make([]time.Duration, 3)}
	res := &openResult{Errs: make([]error, 3)}
	got := make([][32]byte, 3)
	for i := range got {
		got[i] = kernels.Hash(in.payload(i))
	}
	if n, err := checkStorm(in, res, got); n != 0 || err != nil {
		t.Fatalf("correct digests: %d failed, %v", n, err)
	}
	got[1][0] ^= 1
	if n, err := checkStorm(in, res, got); n != 1 || err == nil {
		t.Fatalf("one corrupted digest: %d failed, %v; want 1 failure", n, err)
	}
}

func TestTopoCheckRejectsMiscount(t *testing.T) {
	g, err := topology.ParseSpec(thinSpec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := startTopo(g, topology.RunnerConfig{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	for i := 0; i < 3; i++ {
		if _, err := st.r.Call(context.Background(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkTopo(st.r, 3); err != nil {
		t.Fatalf("3 calls issued and served: %v", err)
	}
	if checkTopo(st.r, 4) == nil {
		t.Fatal("a node that served 3 of 4 issued requests passed the check")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metrics in step with what the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
	e2e, err := endToEnd([]float64{1}, []segment{{Lat: ascending(1000), Wall: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEndNames) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, code %d", len(b.EndToEnd), len(endToEndNames))
	}
	for i, m := range b.EndToEnd {
		if i < len(endToEndNames) && (m.Name != endToEndNames[i] || m.Unit != e2e[m.Name].Unit) {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, endToEndNames[i], e2e[m.Name].Unit)
		}
	}
	if len(b.PerLayer) != len(perLayerNames) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, code %d", len(b.PerLayer), len(perLayerNames))
	}
	for i, m := range b.PerLayer {
		if i < len(perLayerNames) && (m.Name != perLayerNames[i] || m.Unit != perLayerUnit(m.Name)) {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, perLayerNames[i], perLayerUnit(perLayerNames[i]))
		}
	}
}

func TestResultLineShape(t *testing.T) {
	line, err := resultJSON(true, 10, 0, map[string]metric{eP50: {Value: 1.25, Unit: "ms"}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(line, "\n") {
		t.Fatal("result spans several lines")
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] != true || got["attempted"] != 10.0 || got["failed"] != 0.0 {
		t.Fatalf("result %s", line)
	}
}
