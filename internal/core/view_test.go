package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"carcs/internal/material"
)

// TestViewPinsGeneration is the snapshot-isolation contract: a view resolved
// before a mutation keeps serving the pre-mutation state in full — counts,
// lookups, search, coverage — while a view resolved after sees the commit.
func TestViewPinsGeneration(t *testing.T) {
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	before := s.View()
	wantLen := before.Len()
	wantGen := before.Gen()
	wantStats := before.Stats()

	m := testMat("pin-probe", arrayEntry())
	m.Description = "a zanzibar probe description"
	if err := s.AddMaterial(m); err != nil {
		t.Fatal(err)
	}

	if before.Gen() != wantGen {
		t.Errorf("pinned generation moved: %d -> %d", wantGen, before.Gen())
	}
	if before.Len() != wantLen {
		t.Errorf("pinned Len = %d, want %d", before.Len(), wantLen)
	}
	if before.Material("pin-probe") != nil {
		t.Error("pinned view sees the post-pin material")
	}
	if hits, _ := before.SearchText("zanzibar", 5); len(hits) != 0 {
		t.Errorf("pinned search found post-pin material: %v", hits)
	}
	if got := before.Stats(); got.Materials != wantStats.Materials || got.Links != wantStats.Links {
		t.Errorf("pinned stats drifted: %+v, want %+v", got, wantStats)
	}

	after := s.View()
	if after.Gen() <= wantGen {
		t.Errorf("post-commit generation = %d, want > %d", after.Gen(), wantGen)
	}
	if after.Len() != wantLen+1 || after.Material("pin-probe") == nil {
		t.Error("post-commit view missing the committed material")
	}
	if hits, _ := after.SearchText("zanzibar", 5); len(hits) != 1 {
		t.Errorf("post-commit search hits = %d, want 1", len(hits))
	}

	// Removing the material restores the original corpus; the intermediate
	// view stays pinned on its own generation.
	if err := s.RemoveMaterial("pin-probe"); err != nil {
		t.Fatal(err)
	}
	if after.Material("pin-probe") == nil {
		t.Error("intermediate view lost its pinned material after removal")
	}
	if s.View().Len() != wantLen {
		t.Errorf("final Len = %d, want %d", s.View().Len(), wantLen)
	}
}

// TestReadsCompleteWhileCommitStalled is the acceptance test for the
// lock-free read path: a commit stalled mid-pipeline (inside its mutation
// hook, holding the writer lock) must not delay coverage, similarity, or
// search reads — they run on published views and never touch the writer
// lock. Before the refactor every one of these calls blocked on System.mu
// for the duration of the commit.
func TestReadsCompleteWhileCommitStalled(t *testing.T) {
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	stall := make(chan struct{})
	entered := make(chan struct{})
	s.SetMutationHook(func([]OpPayload) error {
		close(entered)
		<-stall
		return nil
	})

	commitDone := make(chan error, 1)
	go func() {
		commitDone <- s.AddMaterial(testMat("stalled", arrayEntry()))
	}()
	<-entered // the commit now holds the mutation lock, blocked in its hook

	readsDone := make(chan error, 1)
	go func() {
		readsDone <- func() error {
			v := s.View()
			if _, err := v.Coverage("cs13", ""); err != nil {
				return err
			}
			if g, err := v.SimilarityGraph(context.Background(), "nifty", "peachy", 2); err != nil || len(g.Edges) == 0 {
				return fmt.Errorf("empty similarity graph")
			}
			if hits, _ := v.SearchText("fractal", 5); len(hits) == 0 {
				return fmt.Errorf("no search hits")
			}
			if v.Material("stalled") != nil {
				return fmt.Errorf("read observed the uncommitted material")
			}
			// Resolving fresh views must not block either.
			if s.View().Gen() != v.Gen() {
				return fmt.Errorf("generation advanced during a stalled commit")
			}
			return nil
		}()
	}()

	select {
	case err := <-readsDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reads blocked behind a stalled commit")
	}

	// Unstall: the commit completes and becomes visible.
	close(stall)
	if err := <-commitDone; err != nil {
		t.Fatal(err)
	}
	s.SetMutationHook(nil)
	if s.View().Material("stalled") == nil {
		t.Error("commit not visible after unstalling")
	}
}

// TestConcurrentReadersDuringCommits races many view readers against a
// mutator under -race, asserting each reader observes internally consistent
// state: a view's store row count and engine length always agree.
func TestConcurrentReadersDuringCommits(t *testing.T) {
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 9)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.View()
				if got := v.Stats().Materials; got != v.Len() {
					errc <- fmt.Errorf("view gen %d: stats sees %d materials, engine %d", v.Gen(), got, v.Len())
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		m := testMat(fmt.Sprintf("race-%d", i), arrayEntry())
		if err := s.AddMaterial(m); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := s.RemoveMaterial(fmt.Sprintf("race-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestReclassifyVisibility pins the commit pipeline's publish ordering for
// the third mutator: a reclassification is atomic — no view ever shows the
// material half-moved between entries.
func TestReclassifyVisibility(t *testing.T) {
	s, _ := New()
	loops := "acm-ieee-cs-curricula-2013/sdf/fundamental-programming-concepts/conditional-and-iterative-control-structures"
	if err := s.AddMaterial(testMat("rv", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	before := s.View()
	if err := s.Reclassify("rv", []material.Classification{{NodeID: loops}}); err != nil {
		t.Fatal(err)
	}
	got := before.Material("rv").ClassificationIDs()
	if len(got) != 1 || got[0] != arrayEntry() {
		t.Errorf("pinned view classifications = %v, want the original", got)
	}
	now := s.View().Material("rv").ClassificationIDs()
	if len(now) != 1 || now[0] != loops {
		t.Errorf("current view classifications = %v, want %q", now, loops)
	}
}
