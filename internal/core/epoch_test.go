package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"carcs/internal/corpus"
	"carcs/internal/journal"
	"carcs/internal/learn"
	"carcs/internal/material"
	"carcs/internal/workflow"
)

// matRecord builds a journaled material.add for the given id at the given
// epoch, the record shape a leader's WAL ships to followers.
func matRecord(t *testing.T, seq, epoch uint64, id string) journal.Record {
	t.Helper()
	return addRecord(t, seq, epoch, testMat(id, arrayEntry()))
}

// addRecord builds a journaled material.add of m.
func addRecord(t *testing.T, seq, epoch uint64, m *material.Material) journal.Record {
	t.Helper()
	data, err := json.Marshal(addMaterialPayload{Material: m})
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

// TestApplyRecordsAddStretchRefusals: consecutive adds build as one
// stretch, yet a refused record inside it behaves exactly as under
// record-at-a-time apply — the error names its sequence number, the adds
// before it are built and published, and nothing after it applies.
func TestApplyRecordsAddStretchRefusals(t *testing.T) {
	invalid := testMat("bad-kind", arrayEntry())
	invalid.Kind = "zeppelin"
	cases := []struct {
		name  string
		bad   journal.Record
		stale bool
	}{
		{name: "duplicate in stretch", bad: matRecord(t, 3, 1, "ok-1")},
		{name: "invalid material", bad: addRecord(t, 3, 1, invalid)},
		{name: "stale epoch", bad: matRecord(t, 3, 0, "stale"), stale: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := newTestWorkspaces(t)
			recs := []journal.Record{
				matRecord(t, 1, 1, "ok-1"),
				matRecord(t, 2, 1, "ok-2"),
				tc.bad,
				matRecord(t, 4, 1, "after"),
			}
			err := ApplyRecordsWorkspaces(ws, recs)
			if err == nil || !strings.Contains(err.Error(), "seq 3 ") {
				t.Fatalf("err = %v, want a refusal naming seq 3", err)
			}
			if tc.stale != errors.Is(err, ErrStaleEpoch) {
				t.Fatalf("err = %v, stale-epoch refusal = %v", err, tc.stale)
			}
			v := ws.Default().View()
			if got := len(v.Materials("")); got != 2 || v.Material("ok-1") == nil || v.Material("ok-2") == nil {
				t.Fatalf("published view holds %d materials, want ok-1 and ok-2", got)
			}
			if v.Material("after") != nil {
				t.Fatal("record after the refusal applied")
			}
		})
	}
}

// TestApplyRecordsStretchesMatchRecordAtATime: a real journal mixing add
// stretches with learn.train, learn.update and workflow ops must replay to
// the same relational state, learned models and review queue whether it is
// applied in one call (adds gathered into stretches) or one record per call.
func TestApplyRecordsStretchesMatchRecordAtATime(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: 48, Seed: 3}).All()
	for _, m := range mats[:20] {
		if err := sys.AddMaterial(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.TrainLearned(learn.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	wf := sys.Workflow()
	if _, err := wf.Register("sue", workflow.RoleSubmitter); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Register("ed", workflow.RoleEditor); err != nil {
		t.Fatal(err)
	}
	var subs []int64
	for _, m := range mats[20:26] {
		sub, err := wf.Submit("sue", m)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub.ID)
	}
	if err := sys.AddMaterials(mats[26:40]); err != nil {
		t.Fatal(err)
	}
	if err := wf.Review("ed", subs[0], workflow.StatusApproved, ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.LearnFromReview(mats[20], true); err != nil {
		t.Fatal(err)
	}
	for _, m := range mats[40:] {
		if err := sys.AddMaterial(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.TrainLearned(learn.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	abandon(p)

	st, err := journal.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var recs []journal.Record
	if _, err := st.Replay(func(rec journal.Record) error { recs = append(recs, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	st.Close()

	clock := func() time.Time { return time.Unix(1_600_000_000, 0) }
	replay := func(perRecord bool) *System {
		ws := newTestWorkspaces(t)
		ws.Default().Workflow().SetClock(clock)
		if !perRecord {
			if err := ApplyRecordsWorkspaces(ws, recs); err != nil {
				t.Fatal(err)
			}
			return ws.Default()
		}
		for _, rec := range recs {
			if err := ApplyRecordsWorkspaces(ws, []journal.Record{rec}); err != nil {
				t.Fatal(err)
			}
		}
		return ws.Default()
	}
	whole, single := replay(false), replay(true)
	if snapshotString(t, whole) != snapshotString(t, single) {
		t.Error("relational state differs between stretched and per-record apply")
	}
	wl, err := whole.LearnState().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sl, err := single.LearnState().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wl, sl) {
		t.Error("learned models differ between stretched and per-record apply")
	}
	wq, _ := json.Marshal(whole.Workflow().State())
	sq, _ := json.Marshal(single.Workflow().State())
	if !bytes.Equal(wq, sq) {
		t.Error("workflow queue differs between stretched and per-record apply")
	}
	if g, w := fmt.Sprint(reviewQueueIDs(whole)), fmt.Sprint(reviewQueueIDs(single)); g != w {
		t.Errorf("review queue order = %s, want %s", g, w)
	}
	if whole.Len() != len(mats)-6 {
		t.Errorf("replayed %d materials, want %d", whole.Len(), len(mats)-6)
	}
}
