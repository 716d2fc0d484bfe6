package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 20

// tailLadder lists the percentiles a tail may be reported at, highest first.
// It stops at p80: a round's p90 or p95 falls where cache misses of the
// slowest suggester and fsyncs begin, so whether a round happened to draw a
// few more of them moved it by a quarter to a third from run to run on a
// 2-core host, while p80 stayed within the noise of the median.
var tailLadder = []float64{80, 50}

// tailLevel returns the highest percentile on the ladder that leaves at least
// minBeyond of n samples above it, or 0 when even the median does not. The
// benchmark passes the expected sample count of a phase (rate × duration),
// not the observed one, so a run that happens to draw a few more arrivals
// reports the same percentile as its neighbours.
func tailLevel(n int) float64 {
	for _, p := range tailLadder {
		// The tolerance keeps 200 samples at p90 from reading as 19.999...
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted samples
// (0 for none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// sample accumulates durations for percentile reporting.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, float64(d)) }

// sorted returns the samples in ascending order.
func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// pct returns the p-th percentile in the given unit (time.Millisecond,
// time.Microsecond, ...).
func (s sample) pct(p float64, unit time.Duration) float64 {
	return percentile(s.sorted(), p) / float64(unit)
}

// median returns the middle value of xs (mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule the
// benchmark's spread is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
