package main

import "testing"

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "router", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "router", Start: 30, End: 60}, // overlaps 2
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},  // runs past its parent
		{ID: 5, Parent: 2, Name: "server", Start: 15, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{
		1: 100 - (60 - 10) - (100 - 90), // children cover [10,60] and [90,100]
		2: 30 - 20,
		3: 30,
		4: 30,
		5: 20,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var nilTracer *tracer
	called := false
	if err := nilTracer.timed("x", false, func() error { called = true; return nil }); err != nil || !called {
		t.Fatal("a nil tracer must still run the call")
	}
	tr := newTracer()
	_ = tr.timed("off", false, func() error { return nil })
	tr.on.Store(true)
	_ = tr.timed("on", true, func() error { return nil })
	spans := tr.snapshot()
	if len(spans) != 1 || spans[0].Name != "on" {
		t.Fatalf("spans = %+v, want only the one recorded while on", spans)
	}
	if tr.commit.Load() != 0 {
		t.Error("the commit parent must be cleared when its span ends")
	}
}
