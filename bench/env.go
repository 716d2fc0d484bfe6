package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"carcs/internal/journal"
)

// envHeader records where and how a result was measured.
type envHeader struct {
	Go         string             `json:"go"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"nproc"`
	CPU        string             `json:"cpu"`
	Kernel     string             `json:"kernel"`
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Offered    map[string]float64 `json:"offered"`
	Journal    string             `json:"journal_flush"`
	Time       string             `json:"time"`
}

func newEnv(w workload, seed int64, seconds int, traced bool) envHeader {
	return envHeader{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		Workload:   w.name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
		Offered: map[string]float64{
			"reads_per_s":      w.readRate,
			"writes_per_s":     w.writeRate,
			"import_batches_s": w.importRate,
			"import_batch":     float64(w.batch),
			"bulk_import":      float64(w.bulk),
			"corpus_synthetic": float64(w.corpus),
			"client_senders":   senders,
		},
		Journal: "shipped default: one fsync per group-commit window of up to " +
			strconv.Itoa(journal.DefaultGroupMaxBatch) + " records / " + journal.DefaultGroupMaxWait.String(),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
