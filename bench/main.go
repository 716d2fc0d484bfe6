// Command carcs-bench is the CAR-CS benchmark: it builds a workload's
// system under test in process (durable nodes, HTTP servers on loopback, a
// follower and router where the workload needs them), drives it from two
// client connections, checks every answer, and prints the workload's
// metrics as one JSON object on the last line of standard output.
//
//	carcs-bench --workload browse --seed 1 --seconds 14 --trace 0 [--out set.jsonl]
//	carcs-bench compare set1.jsonl set2.jsonl
//
// --trace 1 records spans around every layer boundary and reports the
// per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

const configPath = "BENCHMARK.json"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as kept in a result set: the report plus the
// environment it was measured in and supporting numbers.
type record struct {
	Env    envHeader          `json:"env"`
	Report report             `json:"report"`
	Detail map[string]float64 `json:"detail,omitempty"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("carcs-bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 14, "measured seconds: open-loop, then closed-loop")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", "", "append the run, with its environment header, to this JSONL file")
	traceOut := fs.String("trace-out", "", "write the spans of a traced run to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := loadConfig(configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carcs-bench:", err)
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "carcs-bench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	traced := *traceFlag == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	workdir := os.Getenv("BENCH_WORKDIR")
	if workdir == "" {
		workdir = ".bench_build"
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "carcs-bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "carcs-bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &runner{w: w, seed: *seed, seconds: *seconds, dir: dir}
	if traced {
		r.tr = newTracer()
	}
	res, runErr := r.run(ctx)
	rep := report{Correct: runErr == nil, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metricValue{}}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "carcs-bench: FAILED:", runErr)
		printReport(os.Stdout, rep)
		return 1
	}
	want := cfg.EndToEnd
	if traced {
		want = cfg.PerLayer
	}
	for _, m := range want {
		v, ok := res.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "carcs-bench: metric %s was not measured\n", m.Name)
			rep.Correct = false
			printReport(os.Stdout, rep)
			return 1
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	printSummary(os.Stderr, w.name, rep, res.detail)
	if traced {
		path := *traceOut
		if path == "" {
			path = filepath.Join(workdir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, *seed))
		}
		if err := writeSpans(path, r.tr.snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "carcs-bench:", err)
			return 1
		}
	}
	if *out != "" {
		rec := record{Env: newEnv(w, *seed, *seconds, traced), Report: rep, Detail: res.detail}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "carcs-bench:", err)
			return 1
		}
	}
	printReport(os.Stdout, rep)
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func printReport(w io.Writer, rep report) {
	data, err := json.Marshal(rep)
	if err != nil {
		panic(err) // a report of finite numbers always encodes
	}
	fmt.Fprintln(w, string(data))
}

// printSummary writes a human-readable table of the run to w.
func printSummary(w io.Writer, workload string, rep report, detail map[string]float64) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d\n", workload, rep.Attempted, rep.Failed)
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(detail) {
		fmt.Fprintf(w, "  detail %-27s %14.4f\n", k, detail[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendRecord(path string, rec record) error {
	for k, v := range rec.Detail {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(rec.Detail, k)
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads a result set written with --out.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var rec record
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
}
