package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func testIDs() []string {
	ids := []string{"nifty-a", "peachy-b"}
	for i := 0; i < 50; i++ {
		ids = append(ids, synthPrefix+string(rune('a'+i%26))+string(rune('a'+i/26)))
	}
	return ids
}

// A seed fixes every input: the same seed draws the same schedule, another
// seed a different one.
func TestScheduleIsFixedBySeed(t *testing.T) {
	w, _ := lookupWorkload("curate")
	a := newGen(w, 7, testIDs(), time.Second).schedule(2 * time.Second)
	b := newGen(w, 7, testIDs(), time.Second).schedule(2 * time.Second)
	c := newGen(w, 8, testIDs(), time.Second).schedule(2 * time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same schedule")
	}
}

func TestScheduleIsPoissonAtTheWorkloadRate(t *testing.T) {
	w, _ := lookupWorkload("curate")
	const dur = 20 * time.Second
	ops := newGen(w, 1, testIDs(), time.Second).schedule(dur)
	mean := w.rate() * dur.Seconds()
	if d := math.Abs(float64(len(ops)) - mean); d > 5*math.Sqrt(mean) {
		t.Errorf("%d arrivals in %v, want about %.0f", len(ops), dur, mean)
	}
	writes := 0
	for i, o := range ops {
		if i > 0 && o.at < ops[i-1].at {
			t.Fatal("arrivals out of order")
		}
		if o.kind.write() {
			writes++
		}
	}
	share := w.writeRate / w.rate() * float64(len(ops))
	if d := math.Abs(float64(writes) - share); d > 5*math.Sqrt(share) {
		t.Errorf("%d writes of %d arrivals, want about %.0f", writes, len(ops), share)
	}
}

// Each set-up material is reclassified at most once, so concurrent writes
// never race on one id and the read-back knows every final value.
func TestReclassifyTargetsAreDistinct(t *testing.T) {
	w, _ := lookupWorkload("curate")
	g := newGen(w, 3, testIDs(), time.Second)
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		if o := g.write(); o.kind == opReclassify {
			if seen[o.id] {
				t.Fatalf("%s reclassified twice", o.id)
			}
			seen[o.id] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("no reclassifications drawn")
	}
}
