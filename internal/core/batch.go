package core

import (
	"fmt"

	"carcs/internal/material"
	"carcs/internal/textproc"
)

// BatchItemError reports which item of a batch mutation was refused. The
// whole batch is rejected — no earlier item commits — so callers can fix or
// drop the offender and retry.
type BatchItemError struct {
	// Index is the item's position in the submitted batch.
	Index int
	// ID is the material id of the offending item, when known.
	ID string
	// Err is the underlying refusal.
	Err error
}

func (e *BatchItemError) Error() string {
	return fmt.Sprintf("core: batch item %d (%s): %v", e.Index, e.ID, e.Err)
}

func (e *BatchItemError) Unwrap() error { return e.Err }

// AddMaterials validates and stores a batch of materials as one commit:
// every operation is journaled in a single durability round trip (one fsync
// under the durability layer's mutation hook), the search index and the
// incremental models fold all N materials through one builder session each,
// and a single generation bump + view publish covers the whole batch — the
// amortization BENCH_2 showed the per-record pipeline paying for dearly.
//
// The batch is all-or-nothing: any invalid or duplicate item (against the
// stored corpus or within the batch) rejects the whole call with a
// *BatchItemError naming the offender, before anything is journaled.
// Equivalence with N sequential AddMaterial calls is exact — same model
// state, same Snapshot bytes — because items apply in slice order. An empty
// batch is a no-op.
func (s *System) AddMaterials(ms []*material.Material) error {
	if len(ms) == 0 {
		return nil
	}
	clones := make([]*material.Material, len(ms))
	for i, m := range ms {
		if errs := m.Validate(s.cs13, s.pdc12); len(errs) > 0 {
			return &BatchItemError{Index: i, ID: m.ID, Err: fmt.Errorf("invalid material: %w", errs[0])}
		}
		clones[i] = m.Clone()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Every refusal must precede the journal hook: once the batch is in the
	// WAL, apply is not allowed to fail.
	inBatch := make(map[string]int, len(clones))
	for i, m := range clones {
		if prev, dup := inBatch[m.ID]; dup {
			return &BatchItemError{Index: i, ID: m.ID, Err: fmt.Errorf("duplicate of batch item %d", prev)}
		}
		inBatch[m.ID] = i
		if s.engine.Get(m.ID) != nil {
			return &BatchItemError{Index: i, ID: m.ID, Err: fmt.Errorf("duplicate material")}
		}
	}
	if err := s.quotaRoomLocked(len(clones)); err != nil {
		return fmt.Errorf("core: add batch of %d: %w", len(clones), err)
	}
	ops := make([]OpPayload, len(clones))
	for i, m := range clones {
		ops[i] = OpPayload{Op: OpAddMaterial, Payload: addMaterialPayload{Material: m}}
	}
	if err := s.hookLocked(ops...); err != nil {
		return fmt.Errorf("core: add batch of %d: %w", len(clones), err)
	}
	s.applyAddBatchLocked(clones)
	s.publishLocked()
	return nil
}

// applyAddBatchLocked commits already-validated, already-journaled materials
// to the live containers without publishing: each text is analyzed once,
// then the whole batch folds into every term-keyed structure through one
// builder session each — the same state N sequential folds produce, at a
// fraction of the node copying. Callers hold mu and publish once
// afterwards.
func (s *System) applyAddBatchLocked(ms []*material.Material) {
	termLists := make([][]string, len(ms))
	for i, m := range ms {
		termLists[i] = textproc.Terms(m.SearchText())
	}
	s.engine.AddTermsBatch(ms, termLists)
	for _, b := range s.bayes {
		b.TrainTermsBatch(ms, termLists)
	}
	s.cooccur.ObserveBatch(ms)
}
