package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"carcs/internal/corpus"
	"carcs/internal/material"
	"carcs/internal/ontology"
)

// canonMaterials returns the system's materials as its view lists them,
// each cloned with its classifications sorted by node: a restore rebuilds
// classifications in entry-row order, so only the set (with its Bloom
// levels) is meaningful.
func canonMaterials(sys *System) []*material.Material {
	ms := sys.View().Materials("")
	out := make([]*material.Material, len(ms))
	for i, m := range ms {
		c := m.Clone()
		sort.Slice(c.Classifications, func(a, b int) bool {
			return c.Classifications[a].NodeID < c.Classifications[b].NodeID
		})
		out[i] = c
	}
	return out
}

// assertSameMaterials fails on the first material whose metadata,
// classifications or Bloom levels differ.
func assertSameMaterials(t *testing.T, got, want []*material.Material) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d materials, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("material %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// ratedCount counts the Bloom-rated classifications across ms.
func ratedCount(ms []*material.Material) int {
	n := 0
	for _, m := range ms {
		for _, cl := range m.Classifications {
			if cl.Bloom != ontology.BloomUnspecified {
				n++
			}
		}
	}
	return n
}

func TestRestoreMissingTables(t *testing.T) {
	// A well-formed store snapshot that simply isn't a CAR-CS database:
	// what an empty relational store has always written.
	buf := strings.NewReader(`{"tables":null,"links":null}` + "\n")
	if _, err := Restore(buf); err == nil || !strings.Contains(err.Error(), "missing CAR-CS tables") {
		t.Fatalf("restore of empty store = %v, want missing-tables error", err)
	}
}

func TestRestoreGarbage(t *testing.T) {
	if _, err := Restore(strings.NewReader("not json at all")); err == nil {
		t.Fatal("restore of garbage succeeded")
	}
}

func TestRestoreDanglingClassificationLink(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddMaterial(testMat("dang-1", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Point the material's classification link at an entry row that does
	// not exist.
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	links := snap["links"].([]any)
	link := links[0].(map[string]any)
	pairs := link["pairs"].([]any)
	pair := pairs[0].([]any)
	pair[1] = float64(999)
	tampered, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(tampered)); err == nil || !strings.Contains(err.Error(), "dangling entry link") {
		t.Fatalf("restore with dangling link = %v, want dangling-link error", err)
	}
}

func TestRestoreInvalidMaterialRow(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddMaterial(testMat("bad-row", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Blank the material's kind so validation fails during reconstruction.
	tampered := bytes.Replace(buf.Bytes(), []byte(`"kind":"assignment"`), []byte(`"kind":"zeppelin"`), 1)
	if bytes.Equal(tampered, buf.Bytes()) {
		t.Fatal("test setup: kind field not found in snapshot")
	}
	if _, err := Restore(bytes.NewReader(tampered)); err == nil || !strings.Contains(err.Error(), "restoring") {
		t.Fatalf("restore with invalid row = %v, want restore error", err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	// Mix in a post-seed mutation so the round trip covers more than the
	// pristine corpus.
	if err := s.AddMaterial(testMat("rt-extra", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveMaterial(s.View().Materials("nifty")[0].ID); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := s.View().Materials("")
	got := r.View().Materials("")
	if len(got) != len(want) {
		t.Fatalf("restored %d materials, want %d", len(got), len(want))
	}
	for _, wm := range want {
		gm := r.View().Material(wm.ID)
		if gm == nil {
			t.Errorf("material %s lost in round trip", wm.ID)
			continue
		}
		if gm.Title != wm.Title || gm.Kind != wm.Kind || gm.Level != wm.Level ||
			gm.Collection != wm.Collection || gm.Year != wm.Year ||
			gm.Language != wm.Language || gm.URL != wm.URL ||
			gm.Description != wm.Description {
			t.Errorf("material %s metadata diverged:\n got %+v\nwant %+v", wm.ID, gm, wm)
		}
		if g, w := strings.Join(gm.ClassificationIDs(), ","), strings.Join(wm.ClassificationIDs(), ","); g != w {
			t.Errorf("material %s classifications diverged:\n got %s\nwant %s", wm.ID, g, w)
		}
		if g, w := strings.Join(gm.Authors, "|"), strings.Join(wm.Authors, "|"); g != w {
			t.Errorf("material %s authors diverged: %q vs %q", wm.ID, g, w)
		}
		if g, w := strings.Join(gm.Tags, "|"), strings.Join(wm.Tags, "|"); g != w {
			t.Errorf("material %s tags diverged: %q vs %q", wm.ID, g, w)
		}
		if g, w := strings.Join(gm.Datasets, "|"), strings.Join(wm.Datasets, "|"); g != w {
			t.Errorf("material %s datasets diverged: %q vs %q", wm.ID, g, w)
		}
	}
	// The relational bookkeeping must agree too.
	ws, rs := s.View().Stats(), r.View().Stats()
	if ws.Materials != rs.Materials || ws.Links != rs.Links {
		t.Errorf("stats diverged: %+v vs %+v", ws, rs)
	}
	// And a second snapshot of the restored system is byte-identical —
	// snapshotting is deterministic over equal logical state.
	var buf2 bytes.Buffer
	if err := r.View().Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	r2, err := Restore(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := r2.View().Snapshot(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Error("snapshot of restored system is not stable")
	}
}

// TestRestoreKeepsBloomLevels: a checkpoint round trip must keep the
// per-material Bloom levels the seeded ITCS 3145 classifications carry,
// including ones a reclassification set or cleared, so the depth audit
// reads the same after a restart.
func TestRestoreKeepsBloomLevels(t *testing.T) {
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reclassify(s.View().Materials("nifty")[0].ID, []material.Classification{
		{NodeID: arrayEntry(), Bloom: ontology.BloomApply},
	}); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.View().Materials("itcs3145") {
		if ratedCount([]*material.Material{m}) > 0 {
			if err := s.Reclassify(m.ID, []material.Classification{{NodeID: arrayEntry()}}); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	want := canonMaterials(s)
	if ratedCount(want) < 2 {
		t.Fatalf("test setup: only %d rated classifications", ratedCount(want))
	}
	var buf bytes.Buffer
	if err := s.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMaterials(t, canonMaterials(r), want)
	wd, err := s.View().DepthReport("pdc12", "itcs3145")
	if err != nil {
		t.Fatal(err)
	}
	gd, err := r.View().DepthReport("pdc12", "itcs3145")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gd, wd) {
		t.Error("depth report changed across restore")
	}
}

// TestRestoreWithoutBloomColumn: a checkpoint written before materials rows
// carried Bloom levels still restores, with every level unspecified.
func TestRestoreWithoutBloomColumn(t *testing.T) {
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	stripped := 0
	for _, tb := range snap["tables"].([]any) {
		tb := tb.(map[string]any)
		schema := tb["schema"].(map[string]any)
		if schema["Name"] != "materials" {
			continue
		}
		var cols []any
		for _, c := range schema["Columns"].([]any) {
			if c.(map[string]any)["Name"] != "blooms" {
				cols = append(cols, c)
			}
		}
		schema["Columns"] = cols
		for _, row := range tb["rows"].([]any) {
			if _, ok := row.(map[string]any)["blooms"]; ok {
				delete(row.(map[string]any), "blooms")
				stripped++
			}
		}
	}
	if stripped == 0 {
		t.Fatal("test setup: no row carried Bloom levels")
	}
	old, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	got := canonMaterials(r)
	if len(got) != s.Len() {
		t.Fatalf("restored %d materials, want %d", len(got), s.Len())
	}
	if n := ratedCount(got); n != 0 {
		t.Fatalf("%d rated classifications restored from a checkpoint without levels", n)
	}
}

// TestRestoreMatchesSequentialAdds pins the batch restore to the path it
// replaced: restoring a checkpoint whose row ids have gaps (adds, removes
// and reclassifications) must leave byte-identical relational state and the
// same reads as adding the same reassembled materials one AddMaterial at a
// time into a fresh system. Restore publishes exactly one view.
func TestRestoreMatchesSequentialAdds(t *testing.T) {
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddMaterials(corpus.Synthetic(corpus.SyntheticOptions{N: 60, Seed: 5}).All()); err != nil {
		t.Fatal(err)
	}
	ms := s.View().Materials("")
	for i := 0; i < len(ms); i += 7 {
		if err := s.RemoveMaterial(ms[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	ms = s.View().Materials("")
	for i := 3; i < len(ms); i += 11 {
		if err := s.Reclassify(ms[i].ID, []material.Classification{
			{NodeID: arrayEntry(), Bloom: ontology.BloomComprehend},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	got, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decodeStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := New()
	if err != nil {
		t.Fatal(err)
	}
	fresh := want.Generation()
	for _, m := range decoded {
		if err := want.AddMaterial(m); err != nil {
			t.Fatal(err)
		}
	}

	if g, w := got.Generation(), fresh+1; g != w {
		t.Errorf("restored generation = %d, want %d (one publish)", g, w)
	}
	if snapshotString(t, got) != snapshotString(t, want) {
		t.Error("restored relational state differs from sequential adds")
	}
	assertSameMaterials(t, canonMaterials(got), canonMaterials(want))
	gv, wv := got.View(), want.View()
	for _, q := range []string{"parallel matrix", "sorting arrays", "threads locks speedup", "amdahl"} {
		gh, _ := gv.SearchText(q, 10)
		wh, _ := wv.SearchText(q, 10)
		if len(gh) != len(wh) {
			t.Fatalf("search %q: %d vs %d hits", q, len(gh), len(wh))
		}
		for i := range wh {
			if gh[i].Material.ID != wh[i].Material.ID || gh[i].Score != wh[i].Score {
				t.Errorf("search %q hit %d: %s/%v vs %s/%v", q, i,
					gh[i].Material.ID, gh[i].Score, wh[i].Material.ID, wh[i].Score)
			}
		}
	}
	text := "students parallelize dense matrix multiplication with shared memory threads"
	for _, method := range []string{"tfidf", "bayes"} {
		for _, ont := range []string{"cs13", "pdc12"} {
			gs, gerr := gv.SuggestDirect(method, ont, text, 5)
			ws, werr := wv.SuggestDirect(method, ont, text, 5)
			if gerr != nil || werr != nil || !reflect.DeepEqual(gs, ws) {
				t.Errorf("%s/%s suggest diverged: %v/%v\n got %v\nwant %v", method, ont, gerr, werr, gs, ws)
			}
		}
	}
	selected := []string{arrayEntry()}
	if g, w := gv.Recommend(selected, 10), wv.Recommend(selected, 10); !reflect.DeepEqual(g, w) {
		t.Errorf("co-occurrence diverged:\n got %v\nwant %v", g, w)
	}
	for _, ont := range []string{"cs13", "pdc12"} {
		gc, gerr := gv.Coverage(ont, "")
		wc, werr := wv.Coverage(ont, "")
		if gerr != nil || werr != nil || !reflect.DeepEqual(gc, wc) {
			t.Errorf("%s coverage diverged (%v/%v)", ont, gerr, werr)
		}
		gd, gerr := gv.DepthReport(ont, "")
		wd, werr := wv.DepthReport(ont, "")
		if gerr != nil || werr != nil || !reflect.DeepEqual(gd, wd) {
			t.Errorf("%s depth report diverged (%v/%v)", ont, gerr, werr)
		}
	}
}
