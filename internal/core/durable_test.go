package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"carcs/internal/journal"
	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/workflow"
)

// abandon drops a durable system without a final checkpoint, simulating a
// process crash: whatever reached the write-ahead log is all that survives.
func abandon(p *Persister) { _ = p.st.Close() }

// pdcEntry returns the first classifiable PDC12 entry.
func pdcEntry() string {
	o := ontology.PDC12()
	var id string
	o.Walk(o.RootID(), func(n *ontology.Node, _ int) bool {
		if id == "" && n.Kind.Classifiable() {
			id = n.ID
		}
		return true
	})
	return id
}

func TestOpenDurableFreshReopenEmptyJournal(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Len() != 0 {
		t.Fatalf("fresh unseeded system has %d materials", sys.Len())
	}
	// The initial checkpoint is taken eagerly so reopening never depends on
	// the Seed flag.
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); err != nil {
		t.Fatalf("initial checkpoint missing: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, p2, err := OpenDurable(dir, DurableOptions{Seed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if sys2.Len() != 0 {
		t.Fatalf("reopen ignored the checkpoint and seeded %d materials", sys2.Len())
	}
}

func TestDurableMutationsSurviveCrashWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMaterial(testMat("wal-a", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMaterial(testMat("wal-b", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveMaterial("wal-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Workflow().Register("alice", workflow.RoleSubmitter); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Workflow().Submit("alice", testMat("wal-sub", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	abandon(p) // crash: no final checkpoint

	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(p2)
	if sys2.Material("wal-a") != nil {
		t.Error("removed material resurrected")
	}
	if sys2.Material("wal-b") == nil {
		t.Error("journaled material lost")
	}
	if a, ok := sys2.Workflow().Account("alice"); !ok || a.Role != workflow.RoleSubmitter {
		t.Errorf("journaled account lost: %+v ok=%v", a, ok)
	}
	pend := sys2.Workflow().Pending()
	if len(pend) != 1 || pend[0].Material.ID != "wal-sub" {
		t.Errorf("journaled submission lost: %+v", pend)
	}
}

func TestDurableCheckpointTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMaterial(testMat("cp-a", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if p.Stats().WALRecords != 1 {
		t.Fatalf("wal records = %d, want 1", p.Stats().WALRecords)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.WALRecords != 0 || st.WALBytes != 0 {
		t.Errorf("post-checkpoint wal = %+v, want empty", st)
	}
	if err := sys.AddMaterial(testMat("cp-b", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	abandon(p)

	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(p2)
	if sys2.Material("cp-a") == nil || sys2.Material("cp-b") == nil {
		t.Error("checkpointed or journaled material lost")
	}
}

// TestCrashRecoveryTornJournalRecord is the acceptance scenario: mutations
// flow into the journal, the journal is severed mid-record by the
// fault-injection writer, and reopening from disk restores every
// fully-written mutation while discarding the torn tail.
func TestCrashRecoveryTornJournalRecord(t *testing.T) {
	dir := t.TempDir()
	var fw *journal.FaultWriter
	sys, p, err := OpenDurable(dir, DurableOptions{
		WrapWAL: func(ws journal.WriteSyncer) journal.WriteSyncer {
			fw = journal.NewFaultWriter(ws, -1, false)
			return fw
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"keep-1", "keep-2", "keep-3"} {
		if err := sys.AddMaterial(testMat(id, arrayEntry())); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Reclassify("keep-2", []material.Classification{{NodeID: pdcEntry()}}); err != nil {
		t.Fatal(err)
	}
	// Sever the journal 7 bytes into the next record's frame.
	fw.SeverAfter(7)
	err = sys.AddMaterial(testMat("torn", arrayEntry()))
	if !errors.Is(err, journal.ErrFault) {
		t.Fatalf("severed add = %v, want the injected fault", err)
	}
	// Write-ahead ordering: the refused mutation must not be visible in
	// memory either.
	if sys.Material("torn") != nil {
		t.Fatal("mutation visible in memory although its journal write failed")
	}
	// The journal is now sticky-failed: further mutations are refused
	// rather than silently non-durable.
	if err := sys.AddMaterial(testMat("after-fault", arrayEntry())); err == nil {
		t.Fatal("mutation accepted after journal failure")
	}
	abandon(p) // crash without checkpoint

	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery refused a torn tail: %v", err)
	}
	defer abandon(p2)
	for _, id := range []string{"keep-1", "keep-2", "keep-3"} {
		if sys2.Material(id) == nil {
			t.Errorf("fully-written mutation %s lost", id)
		}
	}
	if got := sys2.Material("keep-2").ClassificationIDs(); !reflect.DeepEqual(got, []string{pdcEntry()}) {
		t.Errorf("reclassify lost: %v", got)
	}
	if sys2.Material("torn") != nil || sys2.Material("after-fault") != nil {
		t.Error("partial or refused record applied on recovery")
	}
	// The torn bytes are gone from disk; new mutations append cleanly.
	if err := sys2.AddMaterial(testMat("post-recovery", arrayEntry())); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoverySyncFailure(t *testing.T) {
	dir := t.TempDir()
	var fw *journal.FaultWriter
	sys, p, err := OpenDurable(dir, DurableOptions{
		WrapWAL: func(ws journal.WriteSyncer) journal.WriteSyncer {
			fw = journal.NewFaultWriter(ws, -1, false)
			return fw
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMaterial(testMat("synced", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	fw.SeverOnSync()
	if err := sys.AddMaterial(testMat("unsynced", arrayEntry())); !errors.Is(err, journal.ErrFault) {
		t.Fatalf("add with failing sync = %v, want injected fault", err)
	}
	if sys.Material("unsynced") != nil {
		t.Fatal("un-fsync'd mutation visible in memory")
	}
	abandon(p)

	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(p2)
	if sys2.Material("synced") == nil {
		t.Error("synced mutation lost")
	}
	// The unsynced record's bytes did reach the (simulated) page cache and
	// are complete, so recovery may legitimately surface it — the guarantee
	// is only that the *caller* was told it did not commit. What recovery
	// must never do is invent partial state.
	if m := sys2.Material("unsynced"); m != nil && len(m.ClassificationIDs()) == 0 {
		t.Error("recovered record is partial")
	}
}

func TestDurableWorkflowRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wf := sys.Workflow()
	if _, err := wf.Register("sue", workflow.RoleSubmitter); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Register("ed", workflow.RoleEditor); err != nil {
		t.Fatal(err)
	}
	sub, err := wf.Submit("sue", testMat("flow-1", arrayEntry()))
	if err != nil {
		t.Fatal(err)
	}
	if err := wf.Review("ed", sub.ID, workflow.StatusApproved, "nice"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMaterial(testMat("flow-1", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.SuggestEdit("sue", "flow-1", "title", "FLOW-1", "Better"); err != nil {
		t.Fatal(err)
	}
	// Mix checkpointed and journal-only state: checkpoint now, then one
	// more op that lives only in the journal.
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := wf.VerifyEdit("ed", 1, true); err != nil {
		t.Fatal(err)
	}
	abandon(p)

	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(p2)
	wf2 := sys2.Workflow()
	if len(wf2.Pending()) != 0 {
		t.Errorf("reviewed submission back in pending: %+v", wf2.Pending())
	}
	apprvd := wf2.Approved()
	if len(apprvd) != 1 || apprvd[0].ID != "flow-1" {
		t.Errorf("approved list = %+v", apprvd)
	}
	if len(wf2.UnverifiedEdits()) != 0 {
		t.Errorf("verified edit back in queue: %+v", wf2.UnverifiedEdits())
	}
	if sys2.Material("flow-1") == nil {
		t.Error("installed material lost")
	}
}

func TestPersisterBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMaterial(testMat("bg-1", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	p.Start(5 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().WALRecords != 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpoint never drained the journal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Mutations during background checkpointing must not deadlock or race.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := sys.AddMaterial(testMat(matID("bg-mut", i), arrayEntry())); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(p2)
	if sys2.Len() != 21 {
		t.Errorf("recovered %d materials, want 21", sys2.Len())
	}
}

func TestDurableHealthStats(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := sys.AddMaterial(testMat("hs-1", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Dir != dir || st.WALRecords != 1 || st.Seq == 0 || st.Err != "" {
		t.Errorf("stats = %+v", st)
	}
	if st.CheckpointAt.IsZero() || st.CheckpointBytes == 0 {
		t.Errorf("initial checkpoint not reflected in stats: %+v", st)
	}
}

func matID(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
}

// TestDurableRestartKeepsBloomLevels: a graceful restart restores from the
// final checkpoint alone, and must hand back every material with the Bloom
// levels it had — the seeded ITCS 3145 ratings and one a journaled
// reclassification set — not just the same snapshot bytes.
func TestDurableRestartKeepsBloomLevels(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{Seed: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Reclassify(sys.Materials("peachy")[0].ID, []material.Classification{
		{NodeID: pdcEntry(), Bloom: ontology.BloomKnow},
	}); err != nil {
		t.Fatal(err)
	}
	want := canonMaterials(sys)
	if ratedCount(want) < 2 {
		t.Fatalf("test setup: only %d rated classifications", ratedCount(want))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(p2)
	if n := p2.Stats().WALRecords; n != 0 {
		t.Fatalf("restart replayed %d journal records, want a checkpoint-only restore", n)
	}
	assertSameMaterials(t, canonMaterials(sys2), want)
}
