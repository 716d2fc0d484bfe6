package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"carcs/internal/corpus"
	"carcs/internal/material"
)

// addChunked builds a fresh system and adds ms through the batch path in
// chunks of the given size; chunk <= 0 uses the sequential AddMaterial path.
func addChunked(t *testing.T, ms []*material.Material, chunk int) *System {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if chunk <= 0 {
		for _, m := range ms {
			if err := s.AddMaterial(m); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	for i := 0; i < len(ms); i += chunk {
		end := i + chunk
		if end > len(ms) {
			end = len(ms)
		}
		if err := s.AddMaterials(ms[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func snapshotString(t *testing.T, s *System) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAddMaterialsMatchesSequential is the batch-publish equivalence
// invariant: for any chunking of the same ordered input, AddMaterials must
// leave byte-identical relational state to N sequential AddMaterial calls —
// same row ids, same links, same everything the snapshot serializes.
func TestAddMaterialsMatchesSequential(t *testing.T) {
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: 40, Seed: 7}).All()
	want := snapshotString(t, addChunked(t, mats, 0))
	for _, chunk := range []int{1, 2, 5, len(mats)} {
		if got := snapshotString(t, addChunked(t, mats, chunk)); got != want {
			t.Errorf("chunk=%d produced different final state", chunk)
		}
	}
	// A different input order is a different (valid) final state; the
	// equivalence must hold along that order too.
	shuffled := make([]*material.Material, len(mats))
	copy(shuffled, mats)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	wantShuffled := snapshotString(t, addChunked(t, shuffled, 0))
	if got := snapshotString(t, addChunked(t, shuffled, 6)); got != wantShuffled {
		t.Error("shuffled input: batched state diverged from sequential")
	}
}

// TestAddMaterialsModelEquivalence probes the incremental models (search
// index, bayes, co-occurrence) that the relational snapshot does not
// serialize: query results must match between the batched and sequential
// fold paths.
func TestAddMaterialsModelEquivalence(t *testing.T) {
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: 30, Seed: 11}).All()
	seq := addChunked(t, mats, 0)
	bat := addChunked(t, mats, 7)
	for _, q := range []string{"parallel matrix", "sorting arrays", "threads locks speedup"} {
		sh, _ := seq.View().SearchText(q, 10)
		bh, _ := bat.View().SearchText(q, 10)
		if len(sh) != len(bh) {
			t.Fatalf("query %q: %d vs %d hits", q, len(sh), len(bh))
		}
		for i := range sh {
			if sh[i].Material.ID != bh[i].Material.ID || sh[i].Score != bh[i].Score {
				t.Errorf("query %q hit %d: %s/%v vs %s/%v",
					q, i, sh[i].Material.ID, sh[i].Score, bh[i].Material.ID, bh[i].Score)
			}
		}
	}
	text := "students parallelize dense matrix multiplication with shared memory threads"
	ss, serr := seq.View().SuggestDirect("bayes", "cs13", text, 5)
	bs, berr := bat.View().SuggestDirect("bayes", "cs13", text, 5)
	if (serr == nil) != (berr == nil) || len(ss) != len(bs) {
		t.Fatalf("bayes suggest diverged: %v/%v, %d vs %d", serr, berr, len(ss), len(bs))
	}
	for i := range ss {
		if ss[i].NodeID != bs[i].NodeID || ss[i].Score != bs[i].Score {
			t.Errorf("bayes suggestion %d: %s/%v vs %s/%v",
				i, ss[i].NodeID, ss[i].Score, bs[i].NodeID, bs[i].Score)
		}
	}
}

// TestAddMaterialsAllOrNothing: any refused item rejects the whole batch
// with a *BatchItemError naming the offender, and nothing commits.
func TestAddMaterialsAllOrNothing(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddMaterial(testMat("m-stored", arrayEntry())); err != nil {
		t.Fatal(err)
	}

	var bie *BatchItemError
	err = s.AddMaterials([]*material.Material{
		testMat("m-a", arrayEntry()),
		testMat("m-b", arrayEntry()),
		testMat("m-a", arrayEntry()), // in-batch duplicate
	})
	if !errors.As(err, &bie) || bie.Index != 2 || bie.ID != "m-a" {
		t.Fatalf("in-batch dup: err = %v", err)
	}

	err = s.AddMaterials([]*material.Material{
		testMat("m-c", arrayEntry()),
		testMat("m-stored", arrayEntry()), // duplicate against the corpus
	})
	if !errors.As(err, &bie) || bie.Index != 1 || bie.ID != "m-stored" {
		t.Fatalf("stored dup: err = %v", err)
	}

	err = s.AddMaterials([]*material.Material{
		testMat("m-d", "no/such/node"), // invalid classification
	})
	if !errors.As(err, &bie) || bie.Index != 0 || bie.ID != "m-d" {
		t.Fatalf("invalid item: err = %v", err)
	}

	if s.Len() != 1 || s.View().Material("m-a") != nil || s.View().Material("m-c") != nil {
		t.Errorf("refused batch leaked state: len=%d", s.Len())
	}
	if err := s.AddMaterials(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestAddMaterialsDurableReplay: a batch commit is journaled as one run of
// records, and replaying the log after an unclean shutdown reconstructs the
// exact same state.
func TestAddMaterialsDurableReplay(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: 12, Seed: 9}).All()
	if err := sys.AddMaterials(mats[:8]); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMaterial(mats[8]); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMaterials(mats[9:]); err != nil {
		t.Fatal(err)
	}
	want := snapshotString(t, sys)
	st := p.Stats()
	if st.Batches == 0 || st.BatchRecords < 11 {
		t.Errorf("batch commits not reflected in stats: %+v", st)
	}
	// Unclean shutdown: drain the group but skip the final checkpoint, so
	// reopening must recover the batches from the write-ahead log.
	p.group.Close()
	if err := p.st.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := snapshotString(t, sys2); got != want {
		t.Error("replayed state diverged from pre-crash state")
	}
}
