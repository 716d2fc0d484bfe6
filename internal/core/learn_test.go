package core

import (
	"bytes"
	"context"
	"testing"

	"carcs/internal/learn"
	"carcs/internal/workflow"
)

func learnStateBytes(t *testing.T, s *System) []byte {
	t.Helper()
	b, err := s.LearnState().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTrainLearnedAndSuggest(t *testing.T) {
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	// Before training: the method is valid but silent, and stats say so.
	if sugg, err := s.View().Suggest(context.Background(), "learned", "pdc12", "openmp speedup", 5); err != nil || sugg != nil {
		t.Fatalf("untrained learned suggest = %v, %v; want nil, nil", sugg, err)
	}
	st := s.LearnStats()
	for _, m := range st.Models {
		if m.Trained {
			t.Fatalf("model %s trained before any train op", m.Ontology)
		}
	}

	gen := s.Generation()
	if err := s.TrainLearned(learn.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if s.Generation() <= gen {
		t.Fatal("train did not publish a new generation")
	}
	st = s.LearnStats()
	for _, m := range st.Models {
		if !m.Trained || m.Version != 1 || m.Examples == 0 {
			t.Fatalf("model %s not trained: %+v", m.Ontology, m)
		}
	}
	if st.LastTrainGen == 0 {
		t.Fatal("last-train generation not recorded")
	}

	sugg, err := s.View().Suggest(context.Background(), "learned", "pdc12", "students parallelize a loop with OpenMP and measure speedup", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) == 0 {
		t.Fatal("trained learned model suggests nothing")
	}
	for _, sg := range sugg {
		if sg.Score <= 0 || sg.Score >= 1 {
			t.Fatalf("uncalibrated score %v", sg.Score)
		}
	}
	// The ensemble accepts the trained member without erroring.
	if _, err := s.View().Suggest(context.Background(), "ensemble", "cs13", "sorting arrays with loops", 5); err != nil {
		t.Fatal(err)
	}

	// A view pinned before a retrain keeps its model.
	v := s.View()
	before := v.Learned(s.PDC12()).Version()
	if err := s.TrainLearned(learn.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if got := v.Learned(s.PDC12()).Version(); got != before {
		t.Fatalf("pinned view's model changed: %d -> %d", before, got)
	}
	if got := s.View().Learned(s.PDC12()).Version(); got != before+1 {
		t.Fatalf("retrain version = %d, want %d", got, before+1)
	}
}

func TestLearnFromReviewUpdatesModel(t *testing.T) {
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	m := testMat("review-me", arrayEntry())
	// Before any train: silent no-op, nothing journaled, nothing changes.
	if err := s.LearnFromReview(m, true); err != nil {
		t.Fatal(err)
	}
	if err := s.TrainLearned(learn.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	before := s.View().Learned(s.CS13()).Version()
	if err := s.LearnFromReview(m, true); err != nil {
		t.Fatal(err)
	}
	if got := s.View().Learned(s.CS13()).Version(); got != before+1 {
		t.Fatalf("accept did not bump version: %d -> %d", before, got)
	}
	// Rejections feed negatives and bump too.
	if err := s.LearnFromReview(m, false); err != nil {
		t.Fatal(err)
	}
	if got := s.View().Learned(s.CS13()).Version(); got != before+2 {
		t.Fatalf("reject did not bump version: got %d", got)
	}
	// A material with no in-ontology labels teaches nothing.
	v := s.Generation()
	if err := s.LearnFromReview(testMat("unlabeled"), true); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != v {
		t.Fatal("label-free review published a generation")
	}
}

// TestLearnDurableRoundTrip is the crash-recovery half of the model's
// durability story: train, absorb review updates, crash without a final
// checkpoint, recover — the model must come back byte-identical, whether it
// is rebuilt from the WAL (deterministic retrain + update replay) or, after
// an explicit checkpoint, from the serialized weights.
func TestLearnDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{Seed: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainLearned(learn.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMaterial(testMat("post-train", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if err := sys.LearnFromReview(testMat("rev-1", arrayEntry()), true); err != nil {
		t.Fatal(err)
	}
	if err := sys.LearnFromReview(testMat("rev-2", arrayEntry()), false); err != nil {
		t.Fatal(err)
	}
	want := learnStateBytes(t, sys)
	wantQueue := reviewQueueIDs(sys)
	abandon(p) // crash: recovery must replay train + updates from the WAL

	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := learnStateBytes(t, sys2); !bytes.Equal(want, got) {
		t.Fatalf("WAL-replayed model differs from pre-crash model:\n pre: %d bytes\npost: %d bytes", len(want), len(got))
	}

	// Now pin the state in a checkpoint and recover from that path too.
	if err := p2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	abandon(p2)
	sys3, p3, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(p3)
	if got := learnStateBytes(t, sys3); !bytes.Equal(want, got) {
		t.Fatal("checkpoint-restored model differs from pre-crash model")
	}
	if got := reviewQueueIDs(sys3); !equalIDs(wantQueue, got) {
		t.Fatalf("review queue order changed across recovery: %v vs %v", wantQueue, got)
	}
}

func reviewQueueIDs(s *System) []int64 {
	var out []int64
	for _, it := range s.ReviewQueue() {
		out = append(out, it.Submission.ID)
	}
	return out
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReviewQueueOrdering(t *testing.T) {
	s, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Workflow().Register("alice", workflow.RoleSubmitter); err != nil {
		t.Fatal(err)
	}
	// Cold start: no model, queue is FIFO by submission ID.
	if _, err := s.Workflow().Submit("alice", testMat("sub-b", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Workflow().Submit("alice", testMat("sub-a", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	q := s.ReviewQueue()
	if len(q) != 2 {
		t.Fatalf("queue len %d", len(q))
	}
	if q[0].Submission.ID > q[1].Submission.ID {
		t.Fatal("untrained queue should be FIFO")
	}
	for _, it := range q {
		if it.Uncertainty != 1 {
			t.Fatalf("untrained uncertainty = %v, want 1", it.Uncertainty)
		}
	}

	if err := s.TrainLearned(learn.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	q = s.ReviewQueue()
	if len(q) != 2 {
		t.Fatalf("queue len %d", len(q))
	}
	for i := 1; i < len(q); i++ {
		if q[i-1].Uncertainty < q[i].Uncertainty {
			t.Fatal("queue not sorted by uncertainty desc")
		}
	}
	for _, it := range q {
		if it.Uncertainty < 0 || it.Uncertainty > 1 {
			t.Fatalf("uncertainty out of range: %v", it.Uncertainty)
		}
		if len(it.Suggestions) == 0 {
			t.Fatalf("trained queue item has no machine suggestions: %+v", it)
		}
	}
}
