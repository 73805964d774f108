package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/tailtrace"
	"repro/internal/telemetry"
)

// benchTraceCap bounds the benchmark's own span ring; it holds every
// call of a traced phase.
const benchTraceCap = 1 << 18

// newBenchTracer returns the tracer for the benchmark's own spans around
// its calls into a layer.
func newBenchTracer() *telemetry.Tracer {
	t := telemetry.NewTracer("bench")
	t.SetCapacity(benchTraceCap)
	return t
}

// spanMicros returns the sorted durations, in µs, of the spans whose name
// has the given prefix.
func spanMicros(spans []telemetry.SpanData, prefix string) []float64 {
	var out []float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, float64(s.Duration)/float64(time.Microsecond))
		}
	}
	sort.Float64s(out)
	return out
}

// callLayer reports the p50 and p99 of a layer's call spans under
// prefix, in µs. The p99 is left out when the sample does not support it.
func callLayer(layer map[string]metric, name string, spans []telemetry.SpanData, prefix string) {
	us := spanMicros(spans, prefix)
	if len(us) == 0 {
		return
	}
	layer[name+"_p50_us"] = metric{Value: percentile(us, 0.5).Value, Unit: "us", N: len(us)}
	if p99, err := supported(us, 0.99); err == nil {
		layer[name+"_p99_us"] = metric{Value: p99.Value, Unit: "us", N: len(us)}
	}
}

// tailLayer attributes each traced request's critical path with
// tailtrace and reports the category shares of the p50 and p99 requests.
func tailLayer(layer map[string]metric, spans []telemetry.SpanData) *tailtrace.Report {
	rep := tailtrace.Analyze(spans, tailtrace.Options{Quantiles: []float64{0.5, 0.99}})
	if len(rep.Rows) < 3 {
		return rep
	}
	for i, q := range []string{"p50", "p99"} {
		row := rep.Rows[1+i]
		for _, c := range tailCats {
			layer["tailtrace."+q+"."+c+"_share"] = metric{Value: row.Share(c), Unit: "fraction", N: rep.Requests}
		}
	}
	return rep
}

// spanCounts is a tracer's cumulative span retention: spans recorded
// (retained or evicted) and spans dropped (evicted or sampled out).
type spanCounts struct{ recorded, dropped uint64 }

// countSpans reads t's counters; a nil tracer counts nothing.
func countSpans(t *telemetry.Tracer) spanCounts {
	return spanCounts{
		recorded: uint64(len(t.Spans())) + t.Dropped(),
		dropped:  t.Dropped() + t.SampledOut(),
	}
}

// spanLayer reports spans recorded and dropped per request between two
// counts.
func spanLayer(layer map[string]metric, before, after spanCounts, requests int) {
	n := float64(max(requests, 1))
	layer["telemetry.spans_per_req"] = metric{Value: float64(after.recorded-before.recorded) / n, Unit: "count", N: requests}
	layer["telemetry.spans_dropped_per_req"] = metric{Value: float64(after.dropped-before.dropped) / n, Unit: "count", N: requests}
}
