package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"carcs/internal/corpus"
	"carcs/internal/material"
	"carcs/internal/ontology"
)

// The checkpoint fixtures under testdata were written by the build that
// still kept a relational copy of every material next to the search
// engine's, with the state goldenAdds and goldenEdits build:
//
//   - live-adds.json: Snapshot of goldenAdds, a live add-only System;
//   - live-edits.json: Snapshot of the same System after goldenEdits —
//     row-id gaps, entry rows no material uses any more, reclassified
//     Bloom levels;
//   - restored-edits.json: Snapshot of Restore(live-edits.json);
//   - restored-edits-materials.json: canonMaterials of that restore.
//
// They pin the checkpoint format across that change in both directions.

const (
	// goldenOrphanEntry is classified only by golden-orphan, so removing
	// it leaves the entry row unused.
	goldenOrphanEntry = "nsf-ieee-tcpp-pdc-2012/al/algorithmic-problems/specialized-computations/linear-system-solving"
	goldenFlynnEntry  = "nsf-ieee-tcpp-pdc-2012/ar/classes/taxonomy/flynn-s-taxonomy"
	goldenFilesEntry  = "acm-ieee-cs-curricula-2013/os/file-systems/describe-files-data-metadata-and-operations"
)

// goldenAdds builds a live add-only System: every eighth seeded material,
// the first half as one batch and the rest one at a time, then a test
// material with a rated classification.
func goldenAdds(t *testing.T) *System {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	all := corpus.AllMaterials()
	var picks []*material.Material
	for i := 0; i < len(all); i += 8 {
		picks = append(picks, all[i])
	}
	half := len(picks) / 2
	if err := s.AddMaterials(picks[:half]); err != nil {
		t.Fatal(err)
	}
	for _, m := range picks[half:] {
		if err := s.AddMaterial(m); err != nil {
			t.Fatal(err)
		}
	}
	rated := testMat("golden-rated", arrayEntry(), goldenFlynnEntry)
	rated.Classifications[1].Bloom = ontology.BloomApply
	if err := s.AddMaterial(rated); err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenEdits removes, reclassifies and adds on top of goldenAdds, so the
// live relational ids have gaps and an orphaned entry row.
func goldenEdits(t *testing.T, s *System) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddMaterial(testMat("golden-orphan", goldenOrphanEntry)))
	ms := s.Materials("")
	must(s.RemoveMaterial(ms[1].ID))
	must(s.RemoveMaterial(ms[4].ID))
	must(s.RemoveMaterial("golden-orphan"))
	must(s.Reclassify(ms[2].ID, []material.Classification{
		{NodeID: goldenFilesEntry, Bloom: ontology.BloomComprehend},
		{NodeID: arrayEntry(), Bloom: ontology.BloomKnow},
	}))
	for _, m := range s.Materials("itcs3145") {
		if ratedCount([]*material.Material{m}) > 0 {
			must(s.Reclassify(m.ID, []material.Classification{{NodeID: m.Classifications[0].NodeID}}))
			break
		}
	}
	must(s.Reclassify("golden-rated", []material.Classification{{NodeID: goldenFlynnEntry}}))
	must(s.AddMaterial(testMat("golden-late", goldenFilesEntry)))
}

// readGolden returns one checkpoint fixture.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenLiveAddsCheckpoint: an add-only live System writes the bytes
// the older build wrote for the same adds.
func TestGoldenLiveAddsCheckpoint(t *testing.T) {
	if got, want := snapshotString(t, goldenAdds(t)), string(readGolden(t, "live-adds.json")); got != want {
		t.Errorf("add-only checkpoint diverged from the fixture:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// TestGoldenRestoreEditedCheckpoint: a checkpoint with id gaps and
// orphaned entries restores to the materials the older build restored,
// and writes back the bytes it wrote.
func TestGoldenRestoreEditedCheckpoint(t *testing.T) {
	r, err := Restore(bytes.NewReader(readGolden(t, "live-edits.json")))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotString(t, r), string(readGolden(t, "restored-edits.json")); got != want {
		t.Errorf("checkpoint of the restore diverged from the fixture:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	var want []*material.Material
	if err := json.Unmarshal(readGolden(t, "restored-edits-materials.json"), &want); err != nil {
		t.Fatal(err)
	}
	assertSameMaterials(t, canonMaterials(r), want)
}

// TestSnapshotIsRestoreFixpoint: a live System that removed and
// reclassified writes the checkpoint it would write after a restart.
func TestSnapshotIsRestoreFixpoint(t *testing.T) {
	for _, s := range []*System{goldenEditedSystem(t), removedAndReclassified(t)} {
		live := snapshotString(t, s)
		r, err := Restore(bytes.NewReader([]byte(live)))
		if err != nil {
			t.Fatal(err)
		}
		if again := snapshotString(t, r); again != live {
			t.Errorf("Snapshot(Restore(Snapshot(s))) is %d bytes, Snapshot(s) %d", len(again), len(live))
		}
	}
}

func goldenEditedSystem(t *testing.T) *System {
	s := goldenAdds(t)
	goldenEdits(t, s)
	return s
}

// removedAndReclassified is the seeded corpus with every third material
// removed and every fifth remaining one reclassified with a Bloom level.
func removedAndReclassified(t *testing.T) *System {
	t.Helper()
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	ms := s.Materials("")
	for i := 0; i < len(ms); i += 3 {
		if err := s.RemoveMaterial(ms[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	ms = s.Materials("")
	for i := 0; i < len(ms); i += 5 {
		if err := s.Reclassify(ms[i].ID, []material.Classification{
			{NodeID: goldenFlynnEntry, Bloom: ontology.BloomApply},
			{NodeID: arrayEntry()},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestStatsLiveMatchesRestored: the entry and link counts are those in use,
// so a live System and its restore report the same stats after removes and
// reclassifications.
func TestStatsLiveMatchesRestored(t *testing.T) {
	s := removedAndReclassified(t)
	r, err := Restore(bytes.NewReader([]byte(snapshotString(t, s))))
	if err != nil {
		t.Fatal(err)
	}
	if live, restored := s.ComputeStats(), r.ComputeStats(); !reflect.DeepEqual(live, restored) {
		t.Errorf("stats diverged across restore:\n live %+v\nrestored %+v", live, restored)
	}
}

// tamperCase is a checkpoint store the decoder must refuse, with a
// fragment of the refusal.
type tamperCase struct {
	name, want string
	input      []byte
}

// tamperedStores edits a small valid store one defect at a time.
func tamperedStores(tb testing.TB) []tamperCase {
	s, err := New()
	if err != nil {
		tb.Fatal(err)
	}
	rated := testMat("tamper-1", arrayEntry(), goldenFlynnEntry)
	rated.Classifications[1].Bloom = ontology.BloomKnow
	if err := s.AddMaterials([]*material.Material{rated, testMat("tamper-2", arrayEntry())}); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	tamper := func(name, want string, edit func(tables map[string]map[string]any, doc map[string]any)) tamperCase {
		var doc map[string]any
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			tb.Fatal(err)
		}
		tables := make(map[string]map[string]any)
		for _, tbl := range doc["tables"].([]any) {
			tbl := tbl.(map[string]any)
			tables[tbl["schema"].(map[string]any)["Name"].(string)] = tbl
		}
		edit(tables, doc)
		out, err := json.Marshal(doc)
		if err != nil {
			tb.Fatal(err)
		}
		return tamperCase{name: name, want: want, input: out}
	}
	row := func(tbl map[string]any, i int) map[string]any { return tbl["rows"].([]any)[i].(map[string]any) }
	columns := func(tbl map[string]any) []any { return tbl["schema"].(map[string]any)["Columns"].([]any) }
	dupRow := func(tbl map[string]any, i int, set map[string]any) {
		cp := make(map[string]any)
		for k, v := range row(tbl, i) {
			cp[k] = v
		}
		for k, v := range set {
			cp[k] = v
		}
		tbl["rows"] = append(tbl["rows"].([]any), cp)
	}
	return []tamperCase{
		tamper("row without id", "row without id", func(ts map[string]map[string]any, _ map[string]any) {
			delete(row(ts["materials"], 1), "id")
		}),
		tamper("duplicate material id", "duplicate id 1", func(ts map[string]map[string]any, _ map[string]any) {
			dupRow(ts["materials"], 0, map[string]any{"slug": "tamper-3"})
		}),
		tamper("duplicate entry id", "duplicate id 2", func(ts map[string]map[string]any, _ map[string]any) {
			row(ts["entries"], 0)["id"] = float64(2)
		}),
		tamper("duplicate entry node", "duplicate entry node", func(ts map[string]map[string]any, _ map[string]any) {
			dupRow(ts["entries"], 0, map[string]any{"id": float64(9)})
		}),
		tamper("undeclared column", `"colour"`, func(ts map[string]map[string]any, _ map[string]any) {
			row(ts["materials"], 0)["colour"] = "red"
		}),
		tamper("undeclared blooms column", `unknown column "blooms"`, func(ts map[string]map[string]any, _ map[string]any) {
			schema := ts["materials"]["schema"].(map[string]any)
			cols := columns(ts["materials"])
			schema["Columns"] = cols[:len(cols)-1]
		}),
		tamper("schema without a column", `does not declare column "slug"`, func(ts map[string]map[string]any, _ map[string]any) {
			schema := ts["materials"]["schema"].(map[string]any)
			schema["Columns"] = columns(ts["materials"])[2:]
		}),
		tamper("column of another type", "declared with type", func(ts map[string]map[string]any, _ map[string]any) {
			columns(ts["materials"])[8].(map[string]any)["Type"] = float64(0)
		}),
		tamper("value of the wrong type", "year", func(ts map[string]map[string]any, _ map[string]any) {
			row(ts["materials"], 0)["year"] = "2018"
		}),
		tamper("list of the wrong type", "authors", func(ts map[string]map[string]any, _ map[string]any) {
			row(ts["materials"], 0)["authors"] = []any{float64(1)}
		}),
		tamper("unknown table", "not in the CAR-CS schema", func(ts map[string]map[string]any, _ map[string]any) {
			ts["entries"]["schema"].(map[string]any)["Name"] = "tags"
		}),
		tamper("table twice", "appears twice", func(_ map[string]map[string]any, doc map[string]any) {
			doc["tables"] = append(doc["tables"].([]any), doc["tables"].([]any)[0])
		}),
		tamper("link table twice", "unexpected link table", func(_ map[string]map[string]any, doc map[string]any) {
			doc["links"] = append(doc["links"].([]any), doc["links"].([]any)[0])
		}),
		tamper("duplicate slug", "duplicate material", func(ts map[string]map[string]any, _ map[string]any) {
			dupRow(ts["materials"], 0, map[string]any{"id": float64(7)})
		}),
		tamper("bad Bloom entry", "bad Bloom entry", func(ts map[string]map[string]any, _ map[string]any) {
			row(ts["materials"], 0)["blooms"] = []any{"no-level"}
		}),
	}
}

// TestRestoreRefusesTamperedStores covers the refusals no other restore
// test reaches.
func TestRestoreRefusesTamperedStores(t *testing.T) {
	for _, tc := range tamperedStores(t) {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Restore(bytes.NewReader(tc.input)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// FuzzRestore feeds the decoder arbitrary bytes: it must never panic, and a
// store it accepts must write a checkpoint that restores to itself.
func FuzzRestore(f *testing.F) {
	for _, name := range []string{"live-adds.json", "live-edits.json", "restored-edits.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, tc := range tamperedStores(f) {
		f.Add(tc.input)
	}
	f.Add([]byte("not json at all"))
	f.Add([]byte(`{"tables":null,"links":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Restore(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := snapshotString(t, s)
		r, err := Restore(strings.NewReader(once))
		if err != nil {
			t.Fatalf("restoring a written checkpoint: %v", err)
		}
		if again := snapshotString(t, r); again != once {
			t.Fatalf("checkpoint is not a restore fixpoint:\n%s\n%s", once, again)
		}
	})
}
