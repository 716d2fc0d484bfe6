package classify

import (
	"strings"
	"testing"

	"carcs/internal/corpus"
	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/textproc"
)

func TestKeywordSuggest(t *testing.T) {
	k := NewKeyword(ontology.CS13())
	sugg := k.SuggestTerms(textproc.Terms("an assignment about arrays and iterative loops over an array"), 10)
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	found := false
	for _, s := range sugg {
		if strings.HasSuffix(s.NodeID, "/sdf/fundamental-data-structures/arrays") {
			found = true
		}
		if s.Score <= 0 {
			t.Errorf("non-positive score: %+v", s)
		}
	}
	if !found {
		t.Errorf("Arrays not suggested: %+v", sugg)
	}
	for i := 1; i < len(sugg); i++ {
		if sugg[i-1].Score < sugg[i].Score {
			t.Error("suggestions not sorted")
		}
	}
	if k.SuggestTerms(textproc.Terms(""), 5) != nil {
		t.Error("empty text should yield nil")
	}
	if got := k.SuggestTerms(textproc.Terms("arrays"), 3); len(got) > 3 {
		t.Error("limit not applied")
	}
}

func TestTFIDFSuggest(t *testing.T) {
	s := NewTFIDF(ontology.PDC12())
	sugg := s.SuggestTerms(textproc.Terms("students measure speedup and efficiency of an OpenMP loop"), 8)
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	var hit bool
	for _, sg := range sugg {
		if strings.Contains(sg.NodeID, "speedup-and-efficiency") || strings.Contains(sg.NodeID, "openmp") {
			hit = true
		}
	}
	if !hit {
		t.Errorf("expected speedup/OpenMP entries, got %+v", sugg)
	}
}

func TestBayesTrainSuggest(t *testing.T) {
	b := NewBayes(ontology.PDC12())
	if b.SuggestTerms(textproc.Terms("anything"), 5) != nil {
		t.Error("untrained model should return nil")
	}
	b.TrainAll(corpus.Peachy().All())
	b.TrainAll(corpus.ITCS3145().All())
	if b.Trained() == 0 {
		t.Fatal("nothing trained")
	}
	sugg := b.SuggestTerms(textproc.Terms("parallelize a loop with OpenMP pragmas and measure the speedup"), 5)
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	if sugg[0].Score != 1 {
		t.Errorf("best score should normalize to 1, got %v", sugg[0].Score)
	}
	var hit bool
	for _, sg := range sugg {
		if strings.Contains(sg.NodeID, "openmp") || strings.Contains(sg.NodeID, "speedup") {
			hit = true
		}
	}
	if !hit {
		t.Errorf("expected OpenMP-ish suggestions, got %+v", sugg)
	}
	// Nifty materials have no PDC12 classifications, so training on them
	// adds nothing to a PDC12 model.
	before := b.Trained()
	b.TrainAll(corpus.Nifty().All())
	if b.Trained() != before {
		t.Errorf("Nifty materials trained a PDC12 model: %d -> %d", before, b.Trained())
	}
}

func TestCoOccurrence(t *testing.T) {
	mats := corpus.AllMaterials()
	co := NewCoOccurrence(mats)
	arrays := "acm-ieee-cs-curricula-2013/sdf/fundamental-data-structures/arrays"
	loops := "acm-ieee-cs-curricula-2013/sdf/fundamental-programming-concepts/conditional-and-iterative-control-structures"
	rules := co.Rules(arrays, 2)
	if len(rules) == 0 {
		t.Fatal("no rules from Arrays")
	}
	var loopRule *Rule
	for i := range rules {
		r := &rules[i]
		if r.Then == loops {
			loopRule = r
		}
		if r.Confidence <= 0 || r.Confidence > 1 || r.Support <= 0 || r.Support > 1 {
			t.Errorf("rule out of range: %+v", r)
		}
	}
	if loopRule == nil {
		t.Fatal("Arrays -> loops rule missing (the Fig. 3 cluster guarantees it)")
	}
	if loopRule.Count < 10 {
		t.Errorf("Arrays+loops joint count = %d, want >= 10 (cluster)", loopRule.Count)
	}
	if co.Rules("ghost", 1) != nil {
		t.Error("rules for unknown entry should be nil")
	}

	recs := co.Recommend([]string{arrays}, 2, 5)
	if len(recs) == 0 || len(recs) > 5 {
		t.Fatalf("Recommend = %+v", recs)
	}
	for _, r := range recs {
		if r.Then == arrays {
			t.Error("recommended an already-selected entry")
		}
	}
	// The top recommendation from {arrays} should be loops.
	if recs[0].Then != loops {
		t.Errorf("top recommendation = %s, want loops", recs[0].Then)
	}
}

func TestSuggesterQuality(t *testing.T) {
	cs13 := ontology.CS13()
	inCS13 := cs13.Has
	mats := corpus.Nifty().All()
	k := 10

	kw := Evaluate(NewKeyword(cs13), mats, inCS13, k)
	tf := Evaluate(NewTFIDF(cs13), mats, inCS13, k)
	if kw.N == 0 || tf.N == 0 {
		t.Fatal("evaluation covered no materials")
	}
	// The suggesters must beat a floor: at least a third of materials get
	// at least one correct suggestion in the top 10.
	if kw.HitRate < 0.33 {
		t.Errorf("keyword hit rate too low: %s", kw)
	}
	if tf.HitRate < 0.33 {
		t.Errorf("tfidf hit rate too low: %s", tf)
	}
	t.Logf("E11: %s", kw)
	t.Logf("E11: %s", tf)

	// Leave-one-out naive Bayes on the small Peachy set (11 materials).
	pdc := ontology.PDC12()
	loo := EvaluateLeaveOneOut(func() *Bayes { return NewBayes(pdc) }, corpus.Peachy().All(), pdc.Has, k)
	// 10, not 11: the middleware assignment has no PDC12 labels because
	// PDC12 has no middleware entries (the Sec. IV-A observation).
	if loo.N != 10 {
		t.Errorf("LOO n = %d, want 10", loo.N)
	}
	if loo.HitRate < 0.5 {
		t.Errorf("bayes LOO hit rate too low: %s", loo)
	}
	t.Logf("E11: %s", loo)
}

func TestEvaluateSkipsUnlabeled(t *testing.T) {
	cs13 := ontology.CS13()
	m := &material.Material{ID: "none", Title: "n", Kind: material.Assignment, Level: material.CS1}
	q := Evaluate(NewKeyword(cs13), []*material.Material{m}, cs13.Has, 5)
	if q.N != 0 {
		t.Errorf("unlabeled material counted: %+v", q)
	}
}

func TestEnsembleSuggest(t *testing.T) {
	cs13 := ontology.CS13()
	ens := NewEnsemble(NewKeyword(cs13), NewTFIDF(cs13))
	if got := ens.Name(); got != "ensemble(keyword+tfidf)" {
		t.Errorf("Name = %q", got)
	}
	sugg := ens.SuggestTerms(textproc.Terms("an assignment about arrays and iterative loops"), 10)
	if len(sugg) == 0 || len(sugg) > 10 {
		t.Fatalf("ensemble suggestions = %d", len(sugg))
	}
	for i := 1; i < len(sugg); i++ {
		if sugg[i-1].Score < sugg[i].Score {
			t.Error("ensemble not sorted")
		}
	}
	// Fusion should surface entries both members rank highly; Arrays is a
	// top candidate for both.
	found := false
	for _, s := range sugg {
		if strings.HasSuffix(s.NodeID, "/arrays") {
			found = true
		}
	}
	if !found {
		t.Errorf("ensemble missed Arrays: %+v", sugg[:3])
	}
	// Quality: the ensemble's hit rate is at least as good as the weaker
	// member's on the Nifty corpus.
	mats := corpus.Nifty().All()
	kw := Evaluate(NewKeyword(cs13), mats, cs13.Has, 10)
	eq := Evaluate(ens, mats, cs13.Has, 10)
	if eq.HitRate+0.05 < kw.HitRate {
		t.Errorf("ensemble hit rate %.3f well below keyword %.3f", eq.HitRate, kw.HitRate)
	}
	t.Logf("E11: %s", eq)
}
