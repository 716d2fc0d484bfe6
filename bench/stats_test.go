package main

import (
	"testing"
	"time"
)

func TestTailLevelLeavesEnoughSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{20000, 80}, // the ladder tops out at p80
		{176, 80},   // an HTTP round: 35 beyond
		{147, 80},   // an ingest round: 29 beyond
		{100, 80},   // exactly 20 beyond
		{99, 50},    // p80 would leave 19.8
		{40, 50},
		{39, 0}, // not even the median leaves 20 beyond
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailLevel(c.n); p > 0 && float64(c.n)*(100-p)/100 < minBeyond-1e-9 {
			t.Errorf("tailLevel(%d) = %g leaves fewer than %d samples beyond", c.n, p, minBeyond)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s.add(time.Duration(i) * time.Millisecond)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := s.pct(p, time.Millisecond); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if got := (sample{}).pct(50, time.Millisecond); got != 0 {
		t.Errorf("empty sample p50 = %g, want 0", got)
	}
}

// The spread rule must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5}, // Python extrapolates beyond two points
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread = %g, want (4.5-1.5)/3 = 1", got)
	}
}
