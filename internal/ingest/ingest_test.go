package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"carcs/internal/core"
	"carcs/internal/corpus"
	"carcs/internal/jobs"
	"carcs/internal/material"
)

// testTracker records progress counters and item errors for assertions.
type testTracker struct {
	jobs.Progress
	mu   sync.Mutex
	errs []jobs.ItemError
}

func (t *testTracker) ReportItemError(e jobs.ItemError) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errs = append(t.errs, e)
}

func newEmpty(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// jsonl renders materials as the importer's input.
func jsonl(t *testing.T, mats []*material.Material) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, mats); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestImportPreClassified(t *testing.T) {
	sys := newEmpty(t)
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: 20, Seed: 1}).All()
	imp := New(sys, Options{Workers: 4})
	sum, err := imp.Run(context.Background(), strings.NewReader(jsonl(t, mats)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Added != 20 || sum.Failed != 0 || sum.Review != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sys.Len() != 20 {
		t.Errorf("corpus = %d", sys.Len())
	}
	if m := sys.View().Material(mats[7].ID); m == nil {
		t.Errorf("material %s missing", mats[7].ID)
	}
}

func TestImportAutoClassifiesUnclassified(t *testing.T) {
	sys := newEmpty(t)
	rec := Record{
		ID: "auto-1", Title: "Parallel matrix multiplication with shared memory threads",
		Description: "Students parallelize dense matrix multiplication using threads, locks, and shared memory, then measure speedup and efficiency.",
		Kind:        "assignment", Level: "intermediate",
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []*material.Material{rec.Material()}); err != nil {
		t.Fatal(err)
	}
	// A permissive threshold guarantees the suggester clears the bar.
	imp := New(sys, Options{Threshold: 0.01})
	tr := &testTracker{}
	sum, err := imp.Run(context.Background(), &buf, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Added != 1 || sum.AutoClassified != 1 {
		t.Fatalf("summary = %+v (errs %v)", sum, tr.errs)
	}
	m := sys.View().Material("auto-1")
	if m == nil {
		t.Fatal("material not added")
	}
	if len(m.Classifications) == 0 {
		t.Error("no classifications applied")
	}
	found := false
	for _, tag := range m.Tags {
		if tag == MachineClassifiedTag {
			found = true
		}
	}
	if !found {
		t.Errorf("tags = %v, want %q", m.Tags, MachineClassifiedTag)
	}
}

func TestImportRoutesLowConfidenceToReview(t *testing.T) {
	sys := newEmpty(t)
	rec := Record{
		ID: "vague-1", Title: "Untitled exercise",
		Description: "zzzqx qqquux", // matches nothing
		Kind:        "assignment", Level: "CS1",
	}
	line, _ := recordLine(rec)
	imp := New(sys, Options{Threshold: 0.99}) // nothing clears this bar
	sum, err := imp.Run(context.Background(), strings.NewReader(line), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Review != 1 || sum.Added != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sys.View().Material("vague-1") != nil {
		t.Error("low-confidence record must not enter the corpus directly")
	}
	pend := sys.Workflow().Pending()
	if len(pend) != 1 || pend[0].Material.ID != "vague-1" {
		t.Fatalf("pending = %v", pend)
	}
	if pend[0].Submitter != DefaultReviewer {
		t.Errorf("submitter = %s", pend[0].Submitter)
	}
	tagged := false
	for _, tag := range pend[0].Material.Tags {
		if tag == MachineSuggestedTag {
			tagged = true
		}
	}
	if !tagged {
		t.Errorf("tags = %v, want %q", pend[0].Material.Tags, MachineSuggestedTag)
	}
}

func recordLine(rec Record) (string, error) {
	var buf bytes.Buffer
	err := WriteJSONL(&buf, []*material.Material{rec.Material()})
	return buf.String(), err
}

func TestImportDeduplicates(t *testing.T) {
	sys := newEmpty(t)
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: 5, Seed: 2}).All()
	if err := sys.AddMaterial(mats[0]); err != nil { // pre-existing
		t.Fatal(err)
	}
	input := jsonl(t, mats) + jsonl(t, mats[1:3]) // in-file dups too
	imp := New(sys, Options{Workers: 3})
	tr := &testTracker{}
	sum, err := imp.Run(context.Background(), strings.NewReader(input), tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Added != 4 || sum.Skipped != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	if _, _, _, skipped := tr.Counts(); skipped != 3 {
		t.Errorf("tracker skipped = %d", skipped)
	}
	if sys.Len() != 5 {
		t.Errorf("corpus = %d", sys.Len())
	}
}

func TestImportReportsBadRecords(t *testing.T) {
	sys := newEmpty(t)
	good, _ := recordLine(Record{
		ID: "ok-1", Title: "Fine", Kind: "assignment", Level: "CS1",
		Classifications: []string{sys.CS13().Classifiable()[0]},
	})
	input := "{not json}\n" +
		good +
		`{"id":"bad-kind","title":"X","kind":"sculpture","level":"CS1"}` + "\n" +
		`{"id":"bad-node","title":"X","kind":"exam","level":"CS1","classifications":["no/such/node"]}` + "\n"
	imp := New(sys, Options{Workers: 2, Method: "none"})
	tr := &testTracker{}
	sum, err := imp.Run(context.Background(), strings.NewReader(input), tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Added != 1 || sum.Failed != 3 {
		t.Fatalf("summary = %+v, errs %v", sum, tr.errs)
	}
	if len(tr.errs) != 3 {
		t.Fatalf("item errors = %v", tr.errs)
	}
	// Indices identify the failing lines in the original input.
	idx := map[int]bool{}
	for _, e := range tr.errs {
		idx[e.Index] = true
	}
	if !idx[0] || !idx[2] || !idx[3] {
		t.Errorf("error indices = %v", tr.errs)
	}
}

// TestImportDeterministicAcrossWorkerCounts is the core ordering invariant:
// the committed state must be byte-identical no matter how wide the prepare
// stage fans out.
func TestImportDeterministicAcrossWorkerCounts(t *testing.T) {
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: 300, Seed: 3}).All()
	input := jsonl(t, mats)
	snapshot := func(workers int) string {
		sys := newEmpty(t)
		imp := New(sys, Options{Workers: workers})
		sum, err := imp.Run(context.Background(), strings.NewReader(input), nil)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Added != 300 {
			t.Fatalf("workers=%d summary = %+v", workers, sum)
		}
		var buf bytes.Buffer
		if err := sys.View().Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := snapshot(1)
	for _, workers := range []int{2, 4, 8} {
		if got := snapshot(workers); got != want {
			t.Fatalf("workers=%d produced different final state", workers)
		}
	}
}

func TestImportRetriesTransientCommitFailures(t *testing.T) {
	sys := newEmpty(t)
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: 3, Seed: 4}).All()
	transient := errors.New("transient blip")
	var mu sync.Mutex
	failures := map[string]int{mats[1].ID: 2} // second record fails twice
	commit := func(m *material.Material) error {
		mu.Lock()
		if failures[m.ID] > 0 {
			failures[m.ID]--
			mu.Unlock()
			return transient
		}
		mu.Unlock()
		return sys.AddMaterial(m)
	}
	imp := New(sys, Options{
		Commit: commit,
		Retry: jobs.RetryPolicy{
			Attempts: 3, Base: 1, // effectively immediate retries
			Transient: func(err error) bool { return errors.Is(err, transient) },
		},
	})
	sum, err := imp.Run(context.Background(), strings.NewReader(jsonl(t, mats)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Added != 3 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestImportRetryBudgetExhausted(t *testing.T) {
	sys := newEmpty(t)
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: 2, Seed: 5}).All()
	transient := errors.New("still down")
	commit := func(m *material.Material) error {
		if m.ID == mats[0].ID {
			return transient
		}
		return sys.AddMaterial(m)
	}
	imp := New(sys, Options{
		Commit: commit,
		Retry: jobs.RetryPolicy{
			Attempts: 2, Base: 1,
			Transient: func(err error) bool { return errors.Is(err, transient) },
		},
	})
	tr := &testTracker{}
	sum, err := imp.Run(context.Background(), strings.NewReader(jsonl(t, mats)), tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Added != 1 || sum.Failed != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(tr.errs) != 1 || tr.errs[0].Attempts != 2 {
		t.Fatalf("item errors = %+v", tr.errs)
	}
}

// TestImportCancellationIsConsistent cancels mid-import and verifies the
// system holds exactly the items reported ok — no partial applications.
func TestImportCancellationIsConsistent(t *testing.T) {
	sys := newEmpty(t)
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: 200, Seed: 6}).All()
	ctx, cancel := context.WithCancel(context.Background())
	committed := 0
	commit := func(m *material.Material) error {
		if err := sys.AddMaterial(m); err != nil {
			return err
		}
		committed++
		if committed == 50 {
			cancel()
		}
		return nil
	}
	imp := New(sys, Options{Workers: 4, Commit: commit})
	tr := &testTracker{}
	sum, err := imp.Run(ctx, strings.NewReader(jsonl(t, mats)), tr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	_, ok, _, _ := tr.Counts()
	if int(ok) != sum.Added {
		t.Errorf("tracker ok = %d, summary added = %d", ok, sum.Added)
	}
	if sys.Len() != sum.Added {
		t.Errorf("corpus = %d, reported ok = %d", sys.Len(), sum.Added)
	}
	if sum.Added < 50 || sum.Added >= 200 {
		t.Errorf("added = %d, want partial progress around 50", sum.Added)
	}
}

// TestImportDurableCancelThenRecover ties the importer to the durability
// layer: a cancelled import must leave a journal that replays to exactly
// the reported-ok items after a restart.
func TestImportDurableCancelThenRecover(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := core.OpenDurable(dir, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: 120, Seed: 7}).All()
	ctx, cancel := context.WithCancel(context.Background())
	committed := 0
	commit := func(m *material.Material) error {
		if err := sys.AddMaterial(m); err != nil {
			return err
		}
		committed++
		if committed == 40 {
			cancel()
		}
		return nil
	}
	imp := New(sys, Options{Workers: 3, Commit: commit})
	sum, err := imp.Run(ctx, strings.NewReader(jsonl(t, mats)), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// Crash-style stop: no final checkpoint, recovery comes from the WAL.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, p2, err := core.OpenDurable(dir, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if sys2.Len() != sum.Added {
		t.Errorf("recovered corpus = %d, reported ok = %d", sys2.Len(), sum.Added)
	}
	for i := 0; i < sum.Added; i++ {
		if sys2.View().Material(mats[i].ID) == nil {
			t.Fatalf("recovered corpus missing %s (in-order item %d)", mats[i].ID, i)
		}
	}
}

func TestImportScannerErrorOnGiantLine(t *testing.T) {
	sys := newEmpty(t)
	imp := New(sys, Options{})
	huge := `{"id":"big","title":"` + strings.Repeat("x", maxLineBytes+10) + `"}`
	_, err := imp.Run(context.Background(), strings.NewReader(huge), nil)
	if err == nil {
		t.Fatal("want scanner error for oversized line")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	m := corpus.Synthetic(corpus.SyntheticOptions{N: 1, Seed: 8}).All()[0]
	rec := FromMaterial(m)
	back := rec.Material()
	if back.ID != m.ID || back.Title != m.Title || len(back.Classifications) != len(m.ClassificationIDs()) {
		t.Errorf("round trip mismatch: %+v vs %+v", back, m)
	}
	if fmt.Sprint(back.Tags) != fmt.Sprint(m.Tags) {
		t.Errorf("tags: %v vs %v", back.Tags, m.Tags)
	}
}

// Every suggestion method has its own auto-apply threshold, and the table
// names no method the core does not offer.
func TestDefaultThresholdsOnePerMethod(t *testing.T) {
	if len(DefaultThresholds) != len(core.SuggestMethods) {
		t.Errorf("DefaultThresholds has %d entries, core.SuggestMethods %d", len(DefaultThresholds), len(core.SuggestMethods))
	}
	for _, m := range core.SuggestMethods {
		if _, ok := DefaultThresholds[m]; !ok {
			t.Errorf("no default threshold for method %q", m)
		}
	}
}
