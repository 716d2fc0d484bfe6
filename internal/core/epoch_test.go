package core

import (
	"encoding/json"
	"errors"
	"testing"

	"carcs/internal/journal"
)

// matRecord builds a journaled material.add for the given id at the given
// epoch, the record shape a leader's WAL ships to followers.
func matRecord(t *testing.T, seq, epoch uint64, id string) journal.Record {
	t.Helper()
	data, err := json.Marshal(addMaterialPayload{Material: testMat(id, arrayEntry())})
	if err != nil {
		t.Fatal(err)
	}
	return journal.Record{Seq: seq, Epoch: epoch, Op: OpAddMaterial, Data: data}
}

// newTestWorkspaces returns an empty default-only workspace set.
func newTestWorkspaces(t *testing.T) *Workspaces {
	t.Helper()
	def, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return NewWorkspaces(def)
}

// TestApplyRecordRejectsStaleEpoch: once a set has seen epoch E, a record
// stamped with a lower term is a deposed leader's write and must be
// refused — this is the applier half of the fencing protocol.
func TestApplyRecordRejectsStaleEpoch(t *testing.T) {
	ws := newTestWorkspaces(t)
	apply := func(rec journal.Record) error {
		return ApplyRecordsWorkspaces(ws, []journal.Record{rec})
	}
	ws.FenceEpoch(2)
	if err := apply(matRecord(t, 1, 1, "stale")); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v, want ErrStaleEpoch", err)
	}
	if n := ws.Default().Len(); n != 0 {
		t.Fatalf("stale record applied: %d materials", n)
	}
	// Equal and higher epochs apply; a higher epoch ratchets the fence.
	if err := apply(matRecord(t, 1, 2, "current")); err != nil {
		t.Fatal(err)
	}
	if err := apply(matRecord(t, 2, 3, "next-term")); err != nil {
		t.Fatal(err)
	}
	if got := ws.Epoch(); got != 3 {
		t.Fatalf("Epoch = %d, want 3", got)
	}
	// The ratchet holds: the old term is now fenced out.
	if err := apply(matRecord(t, 3, 2, "late")); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v, want ErrStaleEpoch after ratchet", err)
	}
}

// TestApplyRecordsStaleEpochPublishesPrefix: a batch that hits a stale
// record applies and publishes the good prefix — exactly what record-at-a-
// time apply would have committed — and surfaces ErrStaleEpoch for the
// rest.
func TestApplyRecordsStaleEpochPublishesPrefix(t *testing.T) {
	ws := newTestWorkspaces(t)
	recs := []journal.Record{
		matRecord(t, 1, 1, "ok-1"),
		matRecord(t, 2, 2, "ok-2"),
		matRecord(t, 3, 1, "stale"), // epoch regressed below the fence rec 2 raised
		matRecord(t, 4, 2, "never"),
	}
	if err := ApplyRecordsWorkspaces(ws, recs); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v, want ErrStaleEpoch", err)
	}
	s := ws.Default()
	if s.Len() != 2 {
		t.Fatalf("applied %d materials, want the 2-record prefix", s.Len())
	}
	// The prefix was published: the snapshot view reflects both records.
	if got := len(s.View().Materials("")); got != 2 {
		t.Fatalf("published view holds %d materials, want 2", got)
	}
	if got := ws.Epoch(); got != 2 {
		t.Fatalf("Epoch = %d, want 2", got)
	}
}

// TestApplyRecordsFenceRaisedPerRecord: the fence ratchets on every record,
// not once per tenant run. A run for tenant x at epochs 2, 3, 1 must refuse
// the epoch-1 record, and the epoch 3 it saw must then fence a later
// epoch-2 record for another tenant.
func TestApplyRecordsFenceRaisedPerRecord(t *testing.T) {
	ws := newTestWorkspaces(t)
	forTenant := func(rec journal.Record, tenant string) journal.Record {
		rec.Tenant = tenant
		return rec
	}
	run := []journal.Record{
		forTenant(matRecord(t, 1, 2, "x-1"), "x"),
		forTenant(matRecord(t, 2, 3, "x-2"), "x"),
		forTenant(matRecord(t, 3, 1, "x-stale"), "x"),
	}
	if err := ApplyRecordsWorkspaces(ws, run); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v, want ErrStaleEpoch for the epoch-1 record", err)
	}
	err := ApplyRecordsWorkspaces(ws, []journal.Record{forTenant(matRecord(t, 4, 2, "y-1"), "y")})
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v, want ErrStaleEpoch for epoch 2 after epoch 3 applied", err)
	}
	if got := ws.Epoch(); got != 3 {
		t.Fatalf("Epoch = %d, want 3", got)
	}
}

// TestApplyRecordsWorkspacesFencesFreshTenants: the set-wide fence must
// cover workspaces materialized after the fence was raised, so a deposed
// leader cannot route stale records around it via a new tenant.
func TestApplyRecordsWorkspacesFencesFreshTenants(t *testing.T) {
	ws := newTestWorkspaces(t)
	first := matRecord(t, 1, 3, "seed")
	if err := ApplyRecordsWorkspaces(ws, []journal.Record{first}); err != nil {
		t.Fatal(err)
	}
	if got := ws.Epoch(); got != 3 {
		t.Fatalf("workspace-set epoch = %d, want 3", got)
	}
	// A stale-epoch record aimed at a tenant that does not exist yet: the
	// workspace is materialized, but it inherits the fence and refuses.
	stale := matRecord(t, 2, 2, "smuggled")
	stale.Tenant = "fresh"
	err := ApplyRecordsWorkspaces(ws, []journal.Record{stale})
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v, want ErrStaleEpoch for fresh tenant", err)
	}
	sys, ok := ws.Get("fresh")
	if !ok {
		t.Fatal("fresh workspace not materialized")
	}
	if sys.Len() != 0 {
		t.Fatalf("stale record applied to fresh tenant: %d materials", sys.Len())
	}
}
