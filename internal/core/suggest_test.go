package core

import (
	"context"
	"reflect"
	"testing"

	"carcs/internal/learn"
	"carcs/internal/textproc"
)

// The cached, the direct and the pre-analyzed entry points all resolve
// their engine through one dispatch and score the same analyzed terms, so
// for every method, ontology and text they must agree exactly.
func TestSuggestEntryPointsAgree(t *testing.T) {
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TrainLearned(learn.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	v := s.View()
	texts := []string{
		"students parallelize a loop with OpenMP pragmas and measure speedup",
		"iterate over arrays of pixels in an image",
		"recursive tree traversal with message passing between MPI ranks",
		"",
	}
	for _, method := range append([]string{""}, SuggestMethods...) {
		for _, ont := range []string{"cs13", "pdc12"} {
			for _, text := range texts {
				cached, err := v.Suggest(context.Background(), method, ont, text, 5)
				if err != nil {
					t.Fatalf("%s/%s: Suggest: %v", method, ont, err)
				}
				direct, err := v.SuggestDirect(method, ont, text, 5)
				if err != nil {
					t.Fatalf("%s/%s: SuggestDirect: %v", method, ont, err)
				}
				terms, err := v.SuggestTermsDirect(method, ont, textproc.Terms(text), 5)
				if err != nil {
					t.Fatalf("%s/%s: SuggestTermsDirect: %v", method, ont, err)
				}
				if !reflect.DeepEqual(cached, direct) || !reflect.DeepEqual(cached, terms) {
					t.Errorf("%s/%s %q: Suggest %v, SuggestDirect %v, SuggestTermsDirect %v",
						method, ont, text, cached, direct, terms)
				}
				if text == texts[0] && len(cached) == 0 {
					t.Errorf("%s/%s: no suggestions for %q", method, ont, text)
				}
			}
		}
	}
}
