package classify

import (
	"reflect"
	"testing"

	"carcs/internal/corpus"
	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/pmap"
	"carcs/internal/textproc"
)

// The incremental Observe/Forget paths must leave a long-lived model in the
// exact state a from-scratch rebuild over the surviving materials would
// produce — that equivalence is what lets the core system skip per-request
// retraining. Persistent maps are compared by content (two maps with the
// same entries can differ in internal tree shape depending on history).

func dumpCounts(m *pmap.Map[string, int]) map[string]int {
	out := make(map[string]int)
	m.Range(func(k string, v int) bool {
		out[k] = v
		return true
	})
	return out
}

func dumpNested(m *pmap.Map[string, *pmap.Map[string, int]]) map[string]map[string]int {
	out := make(map[string]map[string]int)
	m.Range(func(k string, v *pmap.Map[string, int]) bool {
		out[k] = dumpCounts(v)
		return true
	})
	return out
}

func bayesStateEqual(t *testing.T, got, want *Bayes) {
	t.Helper()
	if got.trained != want.trained {
		t.Errorf("trained: got %d, want %d", got.trained, want.trained)
	}
	if g, w := dumpCounts(got.docCount), dumpCounts(want.docCount); !reflect.DeepEqual(g, w) {
		t.Errorf("docCount diverged:\n got %v\nwant %v", g, w)
	}
	if g, w := dumpCounts(got.totalTerms), dumpCounts(want.totalTerms); !reflect.DeepEqual(g, w) {
		t.Errorf("totalTerms diverged:\n got %v\nwant %v", g, w)
	}
	if g, w := dumpCounts(got.vocab), dumpCounts(want.vocab); !reflect.DeepEqual(g, w) {
		t.Errorf("vocab diverged: got %d terms, want %d terms", len(g), len(w))
	}
	if !reflect.DeepEqual(dumpNested(got.termCounts), dumpNested(want.termCounts)) {
		t.Error("termCounts diverged")
	}
}

func TestBayesObserveForgetMatchesRebuild(t *testing.T) {
	o := ontology.CS13()
	mats := corpus.Nifty().All()
	if len(mats) < 6 {
		t.Fatal("corpus too small for the scenario")
	}

	// Incremental: train everything, then forget every third material.
	inc := NewBayes(o)
	for _, m := range mats {
		inc.Observe(m)
	}
	var kept []*material.Material
	for i, m := range mats {
		if i%3 == 0 {
			inc.Forget(m)
		} else {
			kept = append(kept, m)
		}
	}

	// Reference: a fresh model trained only on the survivors.
	ref := NewBayes(o)
	ref.TrainAll(kept)

	bayesStateEqual(t, inc, ref)

	// And the suggestions they produce must match exactly.
	q := "parallel sorting of arrays with threads"
	if !reflect.DeepEqual(inc.SuggestTerms(textproc.Terms(q), 8), ref.SuggestTerms(textproc.Terms(q), 8)) {
		t.Error("suggestions diverged after Forget")
	}
}

func TestBayesForgetAllEmptiesModel(t *testing.T) {
	o := ontology.PDC12()
	mats := corpus.Peachy().All()
	b := NewBayes(o)
	for _, m := range mats {
		b.Observe(m)
	}
	for _, m := range mats {
		b.Forget(m)
	}
	bayesStateEqual(t, b, NewBayes(o))
	if got := b.SuggestTerms(textproc.Terms("speedup of an openmp loop"), 5); got != nil {
		t.Errorf("empty model should suggest nothing, got %v", got)
	}
}

func TestCoOccurrenceObserveForgetMatchesRebuild(t *testing.T) {
	mats := corpus.AllMaterials()
	if len(mats) < 6 {
		t.Fatal("corpus too small for the scenario")
	}

	inc := NewCoOccurrence(mats)
	var kept []*material.Material
	for i, m := range mats {
		if i%4 == 1 {
			inc.Forget(m)
		} else {
			kept = append(kept, m)
		}
	}
	ref := NewCoOccurrence(kept)

	if inc.n != ref.n {
		t.Errorf("n: got %d, want %d", inc.n, ref.n)
	}
	if g, w := dumpCounts(inc.count), dumpCounts(ref.count); !reflect.DeepEqual(g, w) {
		t.Errorf("count diverged:\n got %v\nwant %v", g, w)
	}
	if !reflect.DeepEqual(dumpNested(inc.pair), dumpNested(ref.pair)) {
		t.Error("pair counts diverged")
	}

	sel := []string{"acm-ieee-cs-curricula-2013/sdf/fundamental-data-structures/arrays"}
	if !reflect.DeepEqual(inc.Recommend(sel, 2, 10), ref.Recommend(sel, 2, 10)) {
		t.Error("recommendations diverged after Forget")
	}
}

func TestCoOccurrenceForgetAllEmptiesModel(t *testing.T) {
	mats := corpus.Nifty().All()
	c := NewCoOccurrence(mats)
	for _, m := range mats {
		c.Forget(m)
	}
	if c.n != 0 || c.count.Len() != 0 || c.pair.Len() != 0 {
		t.Errorf("model not empty after forgetting everything: n=%d count=%d pair=%d",
			c.n, c.count.Len(), c.pair.Len())
	}
}
