package carcs_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carcs/internal/core"
	"carcs/internal/corpus"
	"carcs/internal/ingest"
	"carcs/internal/material"
)

// The million-material scale harness (experiment E13). Gated behind
// CARCS_SCALE_N so `go test ./...` stays fast; scripts/bench_scale.sh runs
// the tiers and folds the SCALE_RESULT lines into BENCH_6.json.
//
//	CARCS_SCALE_N=10000   materials, split across workspaces (required)
//	CARCS_SCALE_TENANTS=4 workspaces sharing one process (default 4)
//	CARCS_SCALE_METHOD=none  import auto-classify method (default none;
//	                      "tfidf" exercises the suggester at scale)
//
// The harness is the ISSUE-9 scale proof: every workspace imports its slice
// concurrently through the real ingest pipeline (generator goroutine ->
// io.Pipe -> Importer, so the corpus is never materialized in memory),
// readers hammer snapshot views for the whole import, and afterwards cursor
// pages are timed shallow and deep to show keyset pagination stays
// constant-latency no matter how far into the corpus the cursor points.
func TestScaleHarness(t *testing.T) {
	n := envInt("CARCS_SCALE_N", 0)
	if n <= 0 {
		t.Skip("set CARCS_SCALE_N (e.g. 10000) to run the scale harness")
	}
	tenants := envInt("CARCS_SCALE_TENANTS", 4)
	if tenants < 1 {
		tenants = 1
	}
	method := os.Getenv("CARCS_SCALE_METHOD")
	if method == "" {
		method = "none"
	}

	def, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	ws := core.NewWorkspaces(def)
	type slot struct {
		name string
		sys  *core.System
		n    int
	}
	slots := make([]slot, tenants)
	for i := range slots {
		name := core.DefaultTenant
		sys := def
		if i > 0 {
			name = fmt.Sprintf("ws-%02d", i)
			var err error
			sys, _, err = ws.Create(name)
			if err != nil {
				t.Fatal(err)
			}
		}
		per := n / tenants
		if i < n%tenants {
			per++
		}
		slots[i] = slot{name: name, sys: sys, n: per}
	}

	// Readers pin snapshot views on the first workspace for the whole
	// import: the scale claim includes "reads never stall behind the
	// committer", so read throughput under full ingest load is part of the
	// recorded result (gated at the 10k tier against BENCH_4).
	stopReads := make(chan struct{})
	var reads int64
	var readerWG sync.WaitGroup
	const readers = 4
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for k := r; ; k++ {
				select {
				case <-stopReads:
					return
				default:
				}
				v := slots[0].sys.View()
				switch k % 3 {
				case 0:
					_ = v.Len()
					_ = v.Collections()
				case 1:
					v.SearchText("parallel graph simulation", 10)
				default:
					_, _, _ = v.MaterialsPage("", nil, "", 100)
				}
				atomic.AddInt64(&reads, 1)
			}
		}(r)
	}

	ctx := context.Background()
	start := time.Now()
	var importWG sync.WaitGroup
	var added int64
	errs := make(chan error, tenants)
	for i, sl := range slots {
		importWG.Add(1)
		go func(i int, sl slot) {
			defer importWG.Done()
			pr, pw := io.Pipe()
			go func() {
				bw := bufio.NewWriterSize(pw, 1<<20)
				enc := json.NewEncoder(bw)
				opt := corpus.SyntheticOptions{
					N:        sl.n,
					Seed:     int64(1 + i*7919),
					IDPrefix: sl.name + "-",
				}
				err := corpus.SyntheticEach(opt, func(m *material.Material) error {
					rec := ingest.Record{
						ID: m.ID, Title: m.Title, Authors: m.Authors, URL: m.URL,
						Description: m.Description, Kind: string(m.Kind), Level: string(m.Level),
						Language: m.Language, Year: m.Year, Collection: "synthetic",
					}
					for _, c := range m.Classifications {
						rec.Classifications = append(rec.Classifications, c.NodeID)
					}
					return enc.Encode(rec)
				})
				if err == nil {
					err = bw.Flush()
				}
				pw.CloseWithError(err)
			}()
			imp := ingest.New(sl.sys, ingest.Options{Method: method})
			sum, err := imp.Run(ctx, pr, nil)
			if err != nil {
				errs <- fmt.Errorf("workspace %s: %w", sl.name, err)
				return
			}
			if sum.Added+sum.Review != sl.n {
				errs <- fmt.Errorf("workspace %s: added %d + review %d of %d (failed %d)",
					sl.name, sum.Added, sum.Review, sl.n, sum.Failed)
				return
			}
			atomic.AddInt64(&added, int64(sum.Added))
		}(i, sl)
	}
	importWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	close(stopReads)
	readerWG.Wait()

	// Isolation spot-check at scale: every workspace holds exactly its
	// slice, and IDs never cross the prefix boundary.
	for _, sl := range slots {
		if got := sl.sys.Len(); got != sl.n && method == "none" {
			t.Errorf("workspace %s has %d materials, want %d", sl.name, got, sl.n)
		}
		if m := sl.sys.View().Material(slots[0].name + "-000000"); sl.name != slots[0].name && m != nil {
			t.Errorf("workspace %s can see %s's material", sl.name, slots[0].name)
		}
	}

	// Cursor latency, shallow vs deep. The first page pays the one-time
	// sorted-index build for the snapshot; warm pages must not scale with
	// cursor depth — that is the whole point of keyset pagination.
	big := slots[0]
	v := big.sys.View()
	// A distinct filterKey forces a fresh sorted-index build here: the
	// readers above already memoized the unfiltered key for this view, so
	// timing it again would measure a cache hit, not the cold sort.
	coldStart := time.Now()
	page, total, _ := v.MaterialsPage("cold-probe", nil, "", 100)
	cold := time.Since(coldStart)
	if len(page) == 0 || total != big.sys.Len() {
		t.Fatalf("first cursor page: %d items, total %d (sys %d)", len(page), total, big.sys.Len())
	}
	mats := v.SortedMaterials("", nil)
	deepAfter := mats[len(mats)*9/10].ID
	timePages := func(after string) time.Duration {
		const rounds = 200
		begin := time.Now()
		for i := 0; i < rounds; i++ {
			if p, _, _ := v.MaterialsPage("", nil, after, 100); len(p) == 0 {
				t.Fatalf("empty page at cursor %q", after)
			}
		}
		return time.Since(begin) / rounds
	}
	warmShallow := timePages("")
	warmDeep := timePages(deepAfter)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Without these the GC is free to collect every workspace before
	// ReadMemStats runs (no live reference remains past this point), and
	// heap_mb reports a constant ~9MB baseline no matter the tier.
	runtime.KeepAlive(slots)
	runtime.KeepAlive(mats)

	result := map[string]any{
		"n":               n,
		"tenants":         tenants,
		"method":          method,
		"added":           added,
		"secs":            round2(elapsed.Seconds()),
		"mat_s":           round2(float64(added) / elapsed.Seconds()),
		"reads_s":         round2(float64(reads) / elapsed.Seconds()),
		"heap_mb":         round2(float64(ms.HeapAlloc) / (1 << 20)),
		"vmhwm_mb":        round2(vmHWMmb()),
		"page_cold_ms":    round2(float64(cold.Microseconds()) / 1000),
		"page_shallow_us": round2(float64(warmShallow.Nanoseconds()) / 1000),
		"page_deep_us":    round2(float64(warmDeep.Nanoseconds()) / 1000),
	}
	out, _ := json.Marshal(result)
	fmt.Printf("SCALE_RESULT %s\n", out)

	// Keyset pages must not degrade with depth. 5x headroom over the
	// shallow page absorbs scheduler noise; offset pagination at 1M is
	// orders of magnitude off, so a real regression clears the bar easily.
	if warmDeep > 5*warmShallow+5*time.Millisecond {
		t.Errorf("deep cursor page %v is not constant-latency vs shallow %v", warmDeep, warmShallow)
	}
}

func envInt(name string, def int) int {
	raw := os.Getenv(name)
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return def
	}
	return v
}

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }

// vmHWMmb reads the process peak resident set from /proc/self/status; 0 on
// platforms without procfs.
func vmHWMmb() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
