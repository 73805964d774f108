package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the sample rule for a reported percentile: at least this
// many samples must lie beyond it, or the percentile is not supported.
const minBeyond = 10

// tail is a percentile with the evidence behind it.
type tail struct {
	Value  float64 // the percentile, nearest-rank
	N      int     // samples it was taken from
	Beyond int     // samples strictly above its rank
}

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// and how many samples lie beyond that rank. It does not apply the
// sample rule; see supported.
func percentile(sorted []float64, q float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{}
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return tail{Value: sorted[k], N: n, Beyond: n - 1 - k}
}

// supported applies the sample rule: a percentile is reported only when
// at least minBeyond samples lie beyond it.
func supported(sorted []float64, q float64) (tail, error) {
	t := percentile(sorted, q)
	if t.Beyond < minBeyond {
		return t, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			q*100, minBeyond, t.Beyond, t.N)
	}
	return t, nil
}

// sortedMillis converts latencies to sorted milliseconds.
func sortedMillis(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median of an unsorted sample; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rung is one step of an open-loop rate ladder.
type rung struct {
	Rate    float64 // offered requests per second
	P99     float64 // due-time p99, ms
	Backlog bool    // the backlog grew over the rung
}

// meets reports whether the rung meets the SLO without a growing backlog.
func (r rung) meets(sloMs float64) bool { return r.P99 <= sloMs && !r.Backlog }

// knee interpolates the offered rate at which due-time p99 crosses sloMs,
// between the last rung that meets the SLO and the first that misses it.
// Rungs are in ascending rate order and the ladder ends at its first
// miss. A ladder whose first rung already misses, or that never misses,
// does not bracket the crossing: that is an error, never a capped value.
func knee(rungs []rung, sloMs float64) (float64, error) {
	for j, hi := range rungs {
		if hi.meets(sloMs) {
			continue
		}
		if j == 0 {
			return 0, fmt.Errorf("knee: first rung (%.0f req/s, p99 %.2f ms) already misses the %.0f ms SLO",
				hi.Rate, hi.P99, sloMs)
		}
		lo := rungs[j-1]
		frac := 1.0 // missed on backlog alone: the crossing is at hi
		if hi.P99 > sloMs {
			frac = (sloMs - lo.P99) / (hi.P99 - lo.P99)
		}
		frac = math.Max(0, math.Min(1, frac))
		return lo.Rate + frac*(hi.Rate-lo.Rate), nil
	}
	if len(rungs) == 0 {
		return 0, fmt.Errorf("knee: empty ladder")
	}
	return 0, fmt.Errorf("knee: p99 never crosses the %.0f ms SLO up to %.0f req/s",
		sloMs, rungs[len(rungs)-1].Rate)
}

// backlogGrew reports whether a rung's backlog grew: the mean due-time
// latency of its last tenth of arrivals exceeds the SLO. lat is in
// arrival order.
func backlogGrew(lat []time.Duration, slo time.Duration) bool {
	n := len(lat) / 10
	if n == 0 {
		return false
	}
	var sum time.Duration
	for _, d := range lat[len(lat)-n:] {
		sum += d
	}
	return sum/time.Duration(n) > slo
}
