package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func loadRepoConfig(t *testing.T) *config {
	t.Helper()
	c, err := loadConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	c := loadRepoConfig(t)
	inFile := map[string]bool{}
	for _, w := range c.Workloads {
		inFile[w.Name] = true
	}
	for _, w := range workloads {
		if !inFile[w.name] {
			t.Errorf("workload %q is defined in code but not in BENCHMARK.json", w.name)
		}
	}
	layers := map[string]bool{}
	for _, m := range c.PerLayer {
		layers[m.Name] = true
	}
	for name := range layerMoves {
		if !layers[name] {
			t.Errorf("layerMoves names %q, which BENCHMARK.json does not list", name)
		}
	}
}

// mutate loads the repository's BENCHMARK.json as a generic document,
// applies f, and validates the result.
func mutate(t *testing.T, f func(doc map[string]any)) error {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	f(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/BENCHMARK.json"
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = loadConfig(path)
	return err
}

func TestConfigValidationRejects(t *testing.T) {
	list := func(doc map[string]any, key string) []any { return doc[key].([]any) }
	entry := func(doc map[string]any, key string, i int) map[string]any {
		return list(doc, key)[i].(map[string]any)
	}
	repeat := func(doc map[string]any, key string, n int) {
		items := list(doc, key)
		for i := 0; len(items) < n; i++ {
			cp := map[string]any{}
			for k, v := range items[0].(map[string]any) {
				cp[k] = v
			}
			cp["name"] = cp["name"].(string) + "x" + strings.Repeat("y", i)
			items = append(items, cp)
		}
		doc[key] = items
	}
	for name, c := range map[string]struct {
		f    func(doc map[string]any)
		want string
	}{
		"bad metric name":      {func(d map[string]any) { entry(d, "end_to_end", 1)["name"] = "op p50" }, "does not match"},
		"duplicate name":       {func(d map[string]any) { entry(d, "end_to_end", 1)["name"] = "setup_s" }, "used twice"},
		"name used by a layer": {func(d map[string]any) { entry(d, "per_layer", 0)["name"] = "heap_mb" }, "used twice"},
		"one workload":         {func(d map[string]any) { d["workloads"] = list(d, "workloads")[:1] }, "want 2 to 8"},
		"nine workloads":       {func(d map[string]any) { repeat(d, "workloads", 9) }, "want 2 to 8"},
		"17 end-to-end":        {func(d map[string]any) { repeat(d, "end_to_end", 17) }, "want 1 to 16"},
		"129 per-layer":        {func(d map[string]any) { repeat(d, "per_layer", 129) }, "want 1 to 128"},
		"bound above 0.25":     {func(d map[string]any) { entry(d, "end_to_end", 1)["bound"] = 0.3 }, "bound"},
		"bound on a layer":     {func(d map[string]any) { entry(d, "per_layer", 0)["bound"] = 0.1 }, "has a bound"},
		"unknown key":          {func(d map[string]any) { entry(d, "per_layer", 0)["moves"] = "x" }, "unknown field"},
		"layer with no target": {func(d map[string]any) { entry(d, "per_layer", 0)["name"] = "journal.nothing" }, "does not say"},
		"target not defined": {func(d map[string]any) {
			var kept []any
			for _, m := range list(d, "end_to_end") {
				if m.(map[string]any)["name"] != "op_tail_ms" {
					kept = append(kept, m)
				}
			}
			d["end_to_end"] = kept
		}, "does not define"},
		"workload without code": {func(d map[string]any) { entry(d, "workloads", 0)["name"] = "stroll" }, "no definition"},
		"no setup_s":            {func(d map[string]any) { entry(d, "end_to_end", 0)["unit"] = "ms" }, "setup_s"},
	} {
		err := mutate(t, c.f)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, c.want)
		}
	}
	if err := mutate(t, func(map[string]any) {}); err != nil {
		t.Errorf("unchanged file rejected: %v", err)
	}
}
