package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"carcs/internal/journal"
	"carcs/internal/resilience"
	"carcs/internal/workflow"
)

// faultControl is the test's hand on the journal medium: every (re)opened
// WAL sink is wrapped in a FaultWriter, and while sick, new writers are
// severed immediately — so half-open probes keep failing until heal.
type faultControl struct {
	mu   sync.Mutex
	cur  *journal.FaultWriter
	sick bool
}

func (fc *faultControl) wrap(ws journal.WriteSyncer) journal.WriteSyncer {
	fw := journal.NewFaultWriter(ws, -1, false)
	fc.mu.Lock()
	fc.cur = fw
	if fc.sick {
		fw.SeverAfter(0)
	}
	fc.mu.Unlock()
	return fw
}

func (fc *faultControl) sever(n int64) {
	fc.mu.Lock()
	fc.sick = true
	fc.cur.SeverAfter(n)
	fc.mu.Unlock()
}

func (fc *faultControl) heal() {
	fc.mu.Lock()
	fc.sick = false
	fc.mu.Unlock()
}

// TestWriteBreakerLifecycle walks the full degradation story: consecutive
// journal faults trip the breaker, writes fast-fail while reads keep
// serving, a probe against the still-sick disk re-opens the breaker, and
// once the disk heals a probe repairs the log and closes the breaker. The
// final crash-reopen proves the WAL stayed consistent throughout.
func TestWriteBreakerLifecycle(t *testing.T) {
	dir := t.TempDir()
	fc := &faultControl{}
	cooldown := 80 * time.Millisecond
	sys, p, err := OpenDurable(dir, DurableOptions{
		WrapWAL: fc.wrap,
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: cooldown},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(p)

	if err := sys.AddMaterial(testMat("ok-1", arrayEntry())); err != nil {
		t.Fatal(err)
	}

	// Sever mid-frame: the next append tears, the one after hits the
	// sticky writer error. Two consecutive failures trip the breaker.
	fc.sever(4)
	err = sys.AddMaterial(testMat("f-1", arrayEntry()))
	if !errors.Is(err, ErrWritesUnavailable) || !errors.Is(err, journal.ErrFault) {
		t.Fatalf("first fault err = %v, want ErrWritesUnavailable wrapping ErrFault", err)
	}
	err = sys.AddMaterial(testMat("f-2", arrayEntry()))
	if !errors.Is(err, ErrWritesUnavailable) {
		t.Fatalf("second fault err = %v", err)
	}
	if !p.Breaker().FastFail() {
		t.Fatal("breaker not open after threshold failures")
	}

	// Open breaker: writes fast-fail without touching the journal; the
	// shared hook guards workflow writes too.
	err = sys.AddMaterial(testMat("f-3", arrayEntry()))
	if !errors.Is(err, ErrWritesUnavailable) || !errors.Is(err, resilience.ErrCircuitOpen) {
		t.Fatalf("fast-fail err = %v, want ErrCircuitOpen in chain", err)
	}
	if _, err := sys.Workflow().Register("zoe", workflow.RoleSubmitter); !errors.Is(err, ErrWritesUnavailable) {
		t.Fatalf("workflow write during open breaker err = %v", err)
	}

	// The read path is untouched: failed writes rolled back, accepted ones
	// serve.
	v := sys.View()
	if v.Material("ok-1") == nil {
		t.Fatal("read path lost accepted material")
	}
	if v.Material("f-1") != nil || v.Material("f-3") != nil {
		t.Fatal("failed write visible on read path")
	}

	// Past the cooldown a probe runs Recover + append against the
	// still-sick disk; it fails and the breaker re-opens.
	time.Sleep(cooldown + 20*time.Millisecond)
	err = sys.AddMaterial(testMat("f-4", arrayEntry()))
	if !errors.Is(err, ErrWritesUnavailable) || !errors.Is(err, journal.ErrFault) {
		t.Fatalf("probe on sick disk err = %v, want journal fault", err)
	}
	if !p.Breaker().FastFail() {
		t.Fatal("breaker not re-opened after failed probe")
	}
	if st := p.Breaker().Stats(); st.Trips != 2 || st.Probes != 1 {
		t.Fatalf("breaker stats = %+v, want 2 trips 1 probe", st)
	}

	// Disk heals; the next probe repairs the log and closes the breaker.
	fc.heal()
	time.Sleep(cooldown + 20*time.Millisecond)
	if err := sys.AddMaterial(testMat("ok-2", arrayEntry())); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if p.Breaker().Open() {
		t.Fatal("breaker still open after successful probe")
	}
	if err := sys.AddMaterial(testMat("ok-3", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	abandon(p) // crash without a checkpoint: only the WAL survives

	// Reopen: every acknowledged write is there, no phantom resurrects,
	// and replay does not trip over torn frames Recover cleaned up.
	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after faulted run: %v", err)
	}
	defer abandon(p2)
	for _, id := range []string{"ok-1", "ok-2", "ok-3"} {
		if sys2.View().Material(id) == nil {
			t.Errorf("acknowledged material %s lost", id)
		}
	}
	for _, id := range []string{"f-1", "f-2", "f-3", "f-4"} {
		if sys2.View().Material(id) != nil {
			t.Errorf("failed write %s resurrected", id)
		}
	}
}
