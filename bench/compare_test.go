package main

import (
	"io"
	"testing"
)

func records(workload string, failed int, values map[string][]float64) []record {
	n := 0
	for _, vs := range values {
		n = len(vs)
	}
	out := make([]record, n)
	for i := range out {
		out[i] = record{
			Env:    envHeader{Workload: workload},
			Report: report{Correct: true, Attempted: 1000, Failed: failed, Metrics: map[string]metricValue{}},
		}
		for name, vs := range values {
			out[i].Report.Metrics[name] = metricValue{Value: vs[i]}
		}
	}
	return out
}

func TestCompareFlagsOnlyRegressionsBeyondTheBound(t *testing.T) {
	c := &config{
		Workloads: []cfgWork{{Name: "browse"}},
		EndToEnd: []cfgMetric{
			{Name: "op_p50_ms", Better: "lower", Bound: ptr(0.1)},
			{Name: "capacity_per_s", Better: "higher", Bound: ptr(0.1)},
		},
	}
	base := records("browse", 0, map[string][]float64{
		"op_p50_ms":      {1.0, 1.1, 0.9},
		"capacity_per_s": {1000, 1100, 900},
	})
	for name, tc := range map[string]struct {
		b    []record
		want bool
	}{
		"same":             {base, false},
		"slower within":    {records("browse", 0, map[string][]float64{"op_p50_ms": {1.05, 1.09, 1.08}, "capacity_per_s": {1000, 1000, 1000}}), false},
		"slower beyond":    {records("browse", 0, map[string][]float64{"op_p50_ms": {1.2, 1.2, 1.2}, "capacity_per_s": {1000, 1000, 1000}}), true},
		"less capacity":    {records("browse", 0, map[string][]float64{"op_p50_ms": {1, 1, 1}, "capacity_per_s": {850, 850, 850}}), true},
		"more capacity":    {records("browse", 0, map[string][]float64{"op_p50_ms": {1, 1, 1}, "capacity_per_s": {2000, 2000, 2000}}), false},
		"more failures":    {records("browse", 1, map[string][]float64{"op_p50_ms": {1, 1, 1}, "capacity_per_s": {1000, 1000, 1000}}), true},
		"workload missing": {nil, true},
		"traced runs alone": {func() []record {
			r := records("browse", 0, map[string][]float64{"op_p50_ms": {1}})
			r[0].Env.Trace = true
			return r
		}(), true},
	} {
		if got := compareSets(io.Discard, c, base, tc.b); got != tc.want {
			t.Errorf("%s: regressed = %v, want %v", name, got, tc.want)
		}
	}
}

func ptr(f float64) *float64 { return &f }
