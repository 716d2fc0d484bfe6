package main

import (
	"fmt"
	"io"
	"os"
)

// compareMain implements `carcs-bench compare A.jsonl B.jsonl`: one row per
// workload × end-to-end metric comparing the medians of two result sets,
// B against A. It exits 1 when any metric is worse by more than its
// BENCHMARK.json bound, when B's share of failed operations rose, or when B
// lacks a workload A has.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: carcs-bench compare A.jsonl B.jsonl")
		return 2
	}
	cfg, err := loadConfig(configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carcs-bench:", err)
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "carcs-bench:", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "carcs-bench:", err)
		return 2
	}
	if compareSets(w, cfg, a, b) {
		return 1
	}
	return 0
}

// runSet is the untraced, correct runs of one workload in a result set.
type runSet struct {
	values            map[string][]float64
	attempted, failed int
}

func groupRuns(recs []record) map[string]*runSet {
	out := map[string]*runSet{}
	for _, rec := range recs {
		if rec.Env.Trace || !rec.Report.Correct {
			continue
		}
		s := out[rec.Env.Workload]
		if s == nil {
			s = &runSet{values: map[string][]float64{}}
			out[rec.Env.Workload] = s
		}
		s.attempted += rec.Report.Attempted
		s.failed += rec.Report.Failed
		for name, m := range rec.Report.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return out
}

// compareSets writes the comparison table and reports whether B regressed.
func compareSets(w io.Writer, cfg *config, a, b []record) (regressed bool) {
	ga, gb := groupRuns(a), groupRuns(b)
	fmt.Fprintf(w, "%-10s %-16s %12s %12s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "change", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range cfg.Workloads {
		sa, sb := ga[wl.Name], gb[wl.Name]
		if sa == nil {
			continue
		}
		if sb == nil {
			fmt.Fprintf(w, "%-10s %-16s %s\n", wl.Name, "-", "missing from B: REGRESSED")
			regressed = true
			continue
		}
		for _, m := range cfg.EndToEnd {
			va, vb := sa.values[m.Name], sb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-10s %-16s %s\n", wl.Name, m.Name, "not measured on both sides: REGRESSED")
				regressed = true
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			if worse > *m.Bound {
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%-10s %-16s %12.4f %12.4f %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*change, 100**m.Bound, 100*spread(va), 100*spread(vb), verdict)
		}
		fa := float64(sa.failed) / float64(max(sa.attempted, 1))
		fb := float64(sb.failed) / float64(max(sb.attempted, 1))
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(w, "%-10s %-16s %12.6f %12.6f %8s %6s %8s %8s  %s\n",
			wl.Name, "failed_frac", fa, fb, "", "", "", "", verdict)
	}
	return regressed
}
