package core

import (
	"runtime"
	"testing"

	"carcs/internal/corpus"
)

// recoveryLog writes a crash image shaped like a curation session's: the
// seeded checkpoint, 1.5k synthetic adds journaled in 64-material batches,
// then 100 editor writes (80 single adds, 20 reclassifications) and no
// final checkpoint, so recovery replays every one of them.
func recoveryLog(tb testing.TB) string {
	dir := tb.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{Seed: true})
	if err != nil {
		tb.Fatal(err)
	}
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: 1580, Seed: 1}).All()
	setup, writes := mats[:1500], mats[1500:]
	for i := 0; i < len(setup); i += 64 {
		if err := sys.AddMaterials(setup[i:min(i+64, len(setup))]); err != nil {
			tb.Fatal(err)
		}
	}
	for i, m := range writes {
		if err := sys.AddMaterial(m); err != nil {
			tb.Fatal(err)
		}
		if i%4 == 3 {
			target := setup[i*7]
			if err := sys.Reclassify(target.ID, writes[i-1].Classifications); err != nil {
				tb.Fatal(err)
			}
		}
	}
	abandon(p)
	return dir
}

// BenchmarkOpenDurable times crash recovery of recoveryLog's image: the
// checkpoint restore plus the replay of its 1.6k journaled writes. The
// live-MB metric is the heap the recovered System keeps reachable.
//
//	go test ./internal/core -run '^$' -bench OpenDurable -benchmem
func BenchmarkOpenDurable(b *testing.B) {
	dir := recoveryLog(b)
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		sys, p, err := OpenDurable(dir, DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		abandon(p)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sys)
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/(1<<20), "live-MB")
		b.StartTimer()
	}
}
