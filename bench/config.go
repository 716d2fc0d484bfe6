package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// config is BENCHMARK.json: the workloads, the end-to-end metrics with
// their regression bounds, and the per-layer metrics.
type config struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []cfgWork   `json:"workloads"`
	EndToEnd   []cfgMetric `json:"end_to_end"`
	PerLayer   []cfgMetric `json:"per_layer"`
}

type cfgWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type cfgMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadConfig(path string) (*config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks the file against the benchmark's schema and against the
// code: every workload must be defined in the workload table and every
// per-layer metric must name, in layerMoves, an end-to-end metric and a
// workload it should move.
func (c *config) validate() error {
	if n := len(c.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1 to 60", c.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			return fmt.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
		return nil
	}
	works := map[string]bool{}
	for _, w := range c.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if _, ok := lookupWorkload(w.Name); !ok {
			return fmt.Errorf("workload %q has no definition", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\r\n") {
			return fmt.Errorf("workload %q: why must be one line of 1 to 200 characters", w.Name)
		}
		works[w.Name] = true
	}
	metric := func(kind string, m cfgMetric) error {
		if err := name(kind, m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %q: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %q: better must be lower or higher", m.Name)
		}
		return nil
	}
	e2e := map[string]bool{}
	for _, m := range c.EndToEnd {
		if err := metric("end-to-end", m); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("metric %q: bound must be in (0, 0.25]", m.Name)
		}
		e2e[m.Name] = true
	}
	if s := c.endToEnd("setup_s"); s == nil || s.Unit != "s" || s.Better != "lower" {
		return fmt.Errorf("end-to-end metrics need setup_s in s, lower is better")
	}
	for _, m := range c.PerLayer {
		if err := metric("per-layer", m); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %q has a bound", m.Name)
		}
		mv, ok := layerMoves[m.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %q does not say which end-to-end metric it moves", m.Name)
		}
		if !e2e[mv.metric] || !works[mv.workload] {
			return fmt.Errorf("per-layer metric %q moves %s on %s, which BENCHMARK.json does not define", m.Name, mv.metric, mv.workload)
		}
	}
	return nil
}

func (c *config) endToEnd(name string) *cfgMetric {
	for i := range c.EndToEnd {
		if c.EndToEnd[i].Name == name {
			return &c.EndToEnd[i]
		}
	}
	return nil
}
