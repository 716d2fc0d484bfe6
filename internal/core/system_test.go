package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"carcs/internal/material"
	"carcs/internal/ontology"
)

func testMat(id string, cls ...string) *material.Material {
	m := &material.Material{
		ID: id, Title: strings.ToUpper(id), Kind: material.Assignment,
		Level: material.CS1, Collection: "test", URL: "http://x", Year: 2018,
		Description: "an exercise about " + id,
	}
	for _, c := range cls {
		m.Classifications = append(m.Classifications, material.Classification{NodeID: c})
	}
	return m
}

func arrayEntry() string {
	return ontology.CS13().RootID() + "/sdf/fundamental-data-structures/arrays"
}

func TestAddRemoveMaterial(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	m := testMat("m-one", arrayEntry())
	if err := s.AddMaterial(m); err != nil {
		t.Fatal(err)
	}
	if err := s.AddMaterial(testMat("m-one", arrayEntry())); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := s.AddMaterial(testMat("m-bad", "nowhere/at/all")); err == nil {
		t.Error("dangling classification accepted")
	}
	if s.Len() != 1 || s.View().Material("m-one") == nil {
		t.Fatal("material not stored")
	}
	st := s.View().Stats()
	if st.Materials != 1 || st.Entries != 1 || st.Links != 1 {
		t.Errorf("stats = %+v", st)
	}
	if err := s.RemoveMaterial("m-one"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveMaterial("m-one"); err == nil {
		t.Error("double remove accepted")
	}
	if s.Len() != 0 || s.View().Stats().Links != 0 {
		t.Error("links survived removal")
	}
}

func TestReclassify(t *testing.T) {
	s, _ := New()
	loops := ontology.CS13().RootID() + "/sdf/fundamental-programming-concepts/conditional-and-iterative-control-structures"
	if err := s.AddMaterial(testMat("m", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if err := s.Reclassify("ghost", nil); err == nil {
		t.Error("reclassify of unknown accepted")
	}
	if err := s.Reclassify("m", []material.Classification{{NodeID: "bad"}}); err == nil {
		t.Error("invalid reclassification accepted")
	}
	// Failed reclassify must leave the old classification intact.
	if got := s.View().Material("m").ClassificationIDs(); !reflect.DeepEqual(got, []string{arrayEntry()}) {
		t.Fatalf("classifications after failed reclassify = %v", got)
	}
	if err := s.Reclassify("m", []material.Classification{{NodeID: loops}}); err != nil {
		t.Fatal(err)
	}
	got := s.View().Material("m").ClassificationIDs()
	if !reflect.DeepEqual(got, []string{loops}) {
		t.Errorf("classifications = %v", got)
	}
	if s.View().Stats().Links != 1 {
		t.Errorf("links = %d", s.View().Stats().Links)
	}
}

func TestSeededSystem(t *testing.T) {
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() < 90 {
		t.Errorf("seeded size = %d", s.Len())
	}
	if got := s.View().Collections(); !reflect.DeepEqual(got, []string{"itcs3145", "nifty", "peachy"}) {
		t.Errorf("collections = %v", got)
	}
	if len(s.View().Materials("peachy")) != 11 {
		t.Errorf("peachy = %d", len(s.View().Materials("peachy")))
	}
	if len(s.View().Materials("")) != s.Len() {
		t.Error("Materials(\"\") size mismatch")
	}
}

func TestCoverageAndSimilarityFacade(t *testing.T) {
	s, _ := NewSeeded()
	r, err := s.View().Coverage("cs13", "nifty")
	if err != nil {
		t.Fatal(err)
	}
	if top := r.TopAreas(1); len(top) != 1 || top[0] != "SDF" {
		t.Errorf("nifty top = %v", top)
	}
	if _, err := s.View().Coverage("nope", ""); err == nil {
		t.Error("unknown ontology accepted")
	}
	all, err := s.View().Coverage("pdc12", "")
	if err != nil {
		t.Fatal(err)
	}
	if all.Collection != "all materials" {
		t.Errorf("label = %q", all.Collection)
	}
	g, _ := s.View().SimilarityGraph(context.Background(), "nifty", "peachy", 2)
	if len(g.Edges) != 24 { // 4 named peachy x 6 named nifty
		t.Errorf("fig3 edges = %d, want 24", len(g.Edges))
	}
}

func TestSuggestAndRecommendFacade(t *testing.T) {
	s, _ := NewSeeded()
	for _, method := range []string{"keyword", "tfidf", "bayes", "ensemble", ""} {
		sugg, err := s.View().Suggest(context.Background(), method, "cs13", "iterate over arrays of pixels in an image", 5)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(sugg) == 0 {
			t.Errorf("%s: no suggestions", method)
		}
	}
	if _, err := s.View().Suggest(context.Background(), "oracle", "cs13", "x", 5); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := s.View().Suggest(context.Background(), "tfidf", "ghost", "x", 5); err == nil {
		t.Error("unknown ontology accepted")
	}
	recs := s.View().Recommend([]string{arrayEntry()}, 5)
	if len(recs) == 0 {
		t.Error("no recommendations")
	}
	reps, err := s.View().PDCReplacements("uno", 0)
	if err != nil || len(reps) < 4 {
		t.Errorf("uno replacements = %v, %v", reps, err)
	}
	if _, err := s.View().PDCReplacements("ghost", 0); err == nil {
		t.Error("unknown material accepted")
	}
}

func TestSnapshotRestoreSystem(t *testing.T) {
	s, _ := NewSeeded()
	var buf bytes.Buffer
	if err := s.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("restored %d materials, want %d", back.Len(), s.Len())
	}
	for _, m := range s.View().Materials("") {
		bm := back.View().Material(m.ID)
		if bm == nil {
			t.Fatalf("lost %q", m.ID)
		}
		if bm.Title != m.Title || bm.Kind != m.Kind || bm.Year != m.Year {
			t.Errorf("%q changed: %+v vs %+v", m.ID, bm, m)
		}
		if !reflect.DeepEqual(bm.ClassificationIDs(), m.ClassificationIDs()) {
			t.Errorf("%q classifications changed", m.ID)
		}
	}
	// The restored system reproduces Figure 3.
	g, _ := back.View().SimilarityGraph(context.Background(), "nifty", "peachy", 2)
	if len(g.Edges) != 24 {
		t.Errorf("restored fig3 edges = %d", len(g.Edges))
	}
	if _, err := Restore(strings.NewReader("junk")); err == nil {
		t.Error("junk snapshot accepted")
	}
	if _, err := Restore(strings.NewReader(`{"tables":[],"links":[]}`)); err == nil {
		t.Error("snapshot without CAR-CS tables accepted")
	}
}

func TestOntologyByName(t *testing.T) {
	s, _ := New()
	if s.OntologyByName("CS13") != s.CS13() || s.OntologyByName("pdc") != s.PDC12() {
		t.Error("name resolution failed")
	}
	if s.OntologyByName("other") != nil {
		t.Error("unknown name resolved")
	}
	if s.Workflow() == nil || s.View() == nil {
		t.Error("accessors nil")
	}
}
