// Package ingest is the streaming bulk-import pipeline: it reads a JSONL
// corpus, validates and deduplicates each record, auto-classifies records
// that arrive without classifications, and commits them through
// core.System.AddMaterial — so the write-ahead journal, checkpointing, and
// generation-keyed cache invalidation apply to bulk writes exactly as they
// do to single API calls.
//
// The paper's prototype was seeded by hand with ~85 materials; its
// companion work on automatic classification argues the system becomes
// useful only once large corpora can be classified at scale. This package
// is that path: machine suggestions above a confidence threshold are
// applied directly (tagged machine-classified), while low-confidence
// records are routed into the curation workflow for human review,
// mirroring the paper's registration/verification loop.
//
// Concurrency model: parsing, validation, and auto-classification — the
// expensive, corpus-independent work — fan out across a worker pool, while
// commits are applied strictly in input order by a single committer. The
// final system state is therefore byte-identical for any worker count:
// parallelism changes throughput, never the result.
package ingest

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"carcs/internal/core"
	"carcs/internal/jobs"
	"carcs/internal/material"
	"carcs/internal/textproc"
	"carcs/internal/workflow"
)

// MachineClassifiedTag marks a material whose classifications were applied
// automatically at import because they cleared the confidence threshold.
const MachineClassifiedTag = "machine-classified"

// MachineSuggestedTag marks a submission routed to human review whose
// attached classifications are low-confidence machine proposals.
const MachineSuggestedTag = "machine-suggested"

// DefaultThreshold is the minimum suggestion score auto-applied without
// review when the method is TF-IDF (the default). TF-IDF scores are
// cosine-like; 0.30 keeps precision high enough that editors only see the
// genuinely ambiguous records.
const DefaultThreshold = 0.30

// DefaultThresholds maps each suggestion method to its default auto-apply
// threshold. The engines score on incomparable scales, so one number
// cannot serve them all:
//
//	keyword  — fraction of the entry's terms matched, damped by entry
//	           length (hits / (terms+3)); rarely exceeds ~0.5.
//	tfidf    — cosine similarity against the entry-path vector, in [0, 1].
//	bayes    — posterior relative to the best-scoring class (best = 1);
//	           0.60 admits only classes competitive with the winner.
//	learned  — Platt-calibrated probability of the class being correct;
//	           0.50 is literally "more likely right than wrong".
//	ensemble — reciprocal-rank fusion mass; ~0.016 per member ranking the
//	           entry first, so 0.04 needs broad committee agreement.
var DefaultThresholds = map[string]float64{
	"keyword":  0.20,
	"tfidf":    DefaultThreshold,
	"bayes":    0.60,
	"learned":  0.50,
	"ensemble": 0.04,
}

// DefaultThresholdFor returns the method's default auto-apply threshold,
// falling back to DefaultThreshold for methods it has no entry for.
func DefaultThresholdFor(method string) float64 {
	if t, ok := DefaultThresholds[method]; ok {
		return t
	}
	return DefaultThreshold
}

// DefaultReviewer is the account low-confidence submissions are filed
// under when Options.Reviewer is empty.
const DefaultReviewer = "auto-import"

// maxLineBytes bounds a single JSONL record (1 MiB, matching the API's
// per-request body cap for single materials).
const maxLineBytes = 1 << 20

// DefaultCommitChunk is how many consecutive additions the committer groups
// into one batched commit when Options.CommitChunk is zero. It matches the
// journal's default group-commit window so one chunk is one fsync.
const DefaultCommitChunk = 64

// Options configure an Importer. The zero value is usable: GOMAXPROCS
// workers, TF-IDF suggestions at DefaultThreshold, no per-item retries.
type Options struct {
	// Workers sizes the parallel prepare stage (parse + validate +
	// auto-classify). Zero or negative means GOMAXPROCS. Worker count
	// affects throughput only — never the final state.
	Workers int
	// Method is the suggester used for auto-classification: "tfidf"
	// (default), "keyword", "bayes", "learned", "ensemble", or "none" to
	// disable auto-classification entirely. The default is training-free
	// and corpus-independent, keeping imports deterministic; "bayes",
	// "learned", and "ensemble" depend on what has already been ingested
	// and trained, so their suggestions can vary with commit interleaving.
	Method string
	// Threshold is the minimum score a suggestion must reach to be
	// auto-applied; below it the record is routed to human review. Zero
	// means the method's entry in DefaultThresholds — the engines score on
	// different scales (see that table), so override it only with a value
	// chosen for the configured Method.
	Threshold float64
	// MaxAuto caps auto-applied suggestions per ontology (default 3).
	MaxAuto int
	// Reviewer is the workflow account low-confidence records are
	// submitted under (registered on first use; default DefaultReviewer).
	Reviewer string
	// Retry governs per-item commit retries. Its Transient predicate
	// decides what is worth retrying; nil retries nothing, so
	// deterministic failures (validation, duplicates) fail immediately.
	Retry jobs.RetryPolicy
	// Commit overrides the commit step (default sys.AddMaterial); tests
	// inject failures through it. Setting it forces record-at-a-time
	// commits, bypassing chunked batching.
	Commit func(*material.Material) error
	// CommitChunk is how many consecutive additions the in-order committer
	// groups into one batched commit (core.System.AddMaterials): one
	// journal fsync window and one view publish per chunk instead of per
	// record. Zero means DefaultCommitChunk; 1 commits record-at-a-time.
	// Chunk size affects throughput only, never the final state.
	CommitChunk int
}

// Summary is the outcome of one import run.
type Summary struct {
	// Total records seen (non-blank lines).
	Total int `json:"total"`
	// Added materials committed to the corpus.
	Added int `json:"added"`
	// AutoClassified is how many of Added had machine-applied
	// classifications.
	AutoClassified int `json:"auto_classified"`
	// Review records routed to the curation queue for human review.
	Review int `json:"review"`
	// Skipped duplicates (already in the corpus or earlier in the file).
	Skipped int `json:"skipped"`
	// Failed records (parse errors, validation errors, commit errors).
	Failed int `json:"failed"`
}

// Tracker observes per-item progress while an import runs. *jobs.Job
// implements it; NopTracker satisfies it for synchronous callers.
type Tracker interface {
	AddTotal(n int64)
	AddOK()
	AddFailed()
	AddSkipped()
	ReportItemError(e jobs.ItemError)
}

// NopTracker is a Tracker that records nothing.
type NopTracker struct{}

func (NopTracker) AddTotal(int64)                 {}
func (NopTracker) AddOK()                         {}
func (NopTracker) AddFailed()                     {}
func (NopTracker) AddSkipped()                    {}
func (NopTracker) ReportItemError(jobs.ItemError) {}

// Importer runs JSONL imports against one system.
type Importer struct {
	sys *core.System
	opt Options
}

// New creates an importer; see Options for defaults.
func New(sys *core.System, opt Options) *Importer {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Method == "" {
		opt.Method = "tfidf"
	}
	if opt.Threshold == 0 {
		opt.Threshold = DefaultThresholdFor(opt.Method)
	}
	if opt.MaxAuto <= 0 {
		opt.MaxAuto = 3
	}
	if opt.Reviewer == "" {
		opt.Reviewer = DefaultReviewer
	}
	if opt.CommitChunk <= 0 {
		opt.CommitChunk = DefaultCommitChunk
	}
	return &Importer{sys: sys, opt: opt}
}

// routing decides what the committer does with a prepared record.
type routing int

const (
	routeAdd    routing = iota // commit to the corpus
	routeReview                // submit to the curation queue
	routeError                 // failed preparation; report only
)

// item is one line handed to the prepare workers.
type item struct {
	idx  int
	line string
}

// prepared is a worker's output: the parsed material plus its route.
type prepared struct {
	idx   int
	id    string // best-effort identifier for error reports
	m     *material.Material
	route routing
	auto  bool // classifications were machine-applied
	err   error
}

// Run streams JSONL records from r into the system. It returns the
// summary of what happened and a terminal error: nil when the input was
// fully processed (even if some records failed), ctx.Err() when cancelled
// mid-stream, or a read error. Partial progress is never rolled back —
// each committed item went through the durability hooks individually, so
// cancellation leaves exactly the reported-ok items applied.
func (imp *Importer) Run(ctx context.Context, r io.Reader, tr Tracker) (Summary, error) {
	if tr == nil {
		tr = NopTracker{}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Preparation (parsing, validation, auto-classification) runs against
	// one view pinned here: every worker sees the same suggestion models
	// regardless of commits landing mid-import (including this import's
	// own), so a record's classification depends only on the input and the
	// state at import start, not on scheduling. Commits still go through
	// the live system and its duplicate checks.
	v := imp.sys.View()

	in := make(chan item, 2*imp.opt.Workers)
	out := make(chan prepared, 2*imp.opt.Workers)

	// Producer: scan lines, assign indices, feed the workers.
	scanErr := make(chan error, 1)
	go func() {
		defer close(in)
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64*1024), maxLineBytes)
		idx := 0
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			tr.AddTotal(1)
			select {
			case in <- item{idx: idx, line: line}:
			case <-ctx.Done():
				scanErr <- nil
				return
			}
			idx++
		}
		scanErr <- sc.Err()
	}()

	// Prepare workers: parse, validate, auto-classify.
	var wg sync.WaitGroup
	wg.Add(imp.opt.Workers)
	for i := 0; i < imp.opt.Workers; i++ {
		go func() {
			defer wg.Done()
			for it := range in {
				p := imp.prepare(v, it)
				select {
				case out <- p:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	// Committer: apply strictly in input order so the resulting state is
	// independent of worker count and scheduling. Consecutive additions
	// accumulate into a chunk committed through the batched pipeline; the
	// chunk flushes when full and at end of stream. Chunking preserves
	// input order (additions apply in slice order within the batch), so
	// the final state is byte-identical for any chunk size.
	var sum Summary
	var batch []prepared
	pending := make(map[int]prepared)
	next := 0
	seen := make(map[string]bool)
	for p := range out {
		pending[p.idx] = p
		for {
			q, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if err := ctx.Err(); err != nil {
				// Cancelled: the unflushed chunk is abandoned unapplied —
				// exactly the reported-ok items are in the corpus.
				return sum, err
			}
			batch = imp.commit(ctx, q, &sum, seen, tr, batch)
			if len(batch) >= imp.opt.CommitChunk {
				batch = imp.flush(ctx, &sum, tr, batch)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return sum, err
	}
	imp.flush(ctx, &sum, tr, batch)
	if err := <-scanErr; err != nil {
		return sum, fmt.Errorf("ingest: read input: %w", err)
	}
	return sum, nil
}

// prepare parses and validates one record against the pinned view and,
// when it has no classifications, runs the suggestion engines to
// auto-classify it.
func (imp *Importer) prepare(v *core.View, it item) prepared {
	var rec Record
	dec := json.NewDecoder(strings.NewReader(it.line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return prepared{idx: it.idx, route: routeError, err: fmt.Errorf("bad record: %w", err)}
	}
	m := rec.Material()
	p := prepared{idx: it.idx, id: m.ID, m: m, route: routeAdd}
	if len(m.Classifications) == 0 && imp.opt.Method != "none" {
		if imp.autoClassify(v, m) {
			p.auto = true
		} else {
			// Low confidence: autoClassify attached the best guesses
			// (below threshold) so the reviewer starts from a proposal;
			// route to the curation queue.
			m.Tags = append(m.Tags, MachineSuggestedTag)
			p.route = routeReview
		}
	}
	if errs := m.Validate(v.CS13(), v.PDC12()); len(errs) > 0 {
		return prepared{idx: it.idx, id: m.ID, route: routeError, err: errs[0]}
	}
	return p
}

// autoClassify applies suggestions scoring at or above the threshold,
// tagging the material machine-classified, and reports whether anything
// cleared the bar. When nothing did, it instead attaches the single best
// sub-threshold suggestion per ontology so the reviewer starts from a
// proposal.
//
// The record's search text is analyzed exactly once, before anything is
// appended to it, and the term list is shared across both ontologies —
// one tokenizer pass and one suggestion query per ontology, where the old
// two-phase path (classify, then re-query for proposals) paid the
// analyzer up to four times per record.
func (imp *Importer) autoClassify(v *core.View, m *material.Material) bool {
	terms := textproc.Terms(m.SearchText())
	var proposals []material.Classification
	applied := false
	for _, ont := range []string{"cs13", "pdc12"} {
		sugg, err := v.SuggestTermsDirect(imp.opt.Method, ont, terms, imp.opt.MaxAuto)
		if err != nil || len(sugg) == 0 {
			continue
		}
		cleared := false
		for _, sg := range sugg {
			if sg.Score < imp.opt.Threshold {
				break // suggestions arrive best-first
			}
			m.Classifications = append(m.Classifications, material.Classification{NodeID: sg.NodeID})
			applied, cleared = true, true
		}
		if !cleared && sugg[0].Score > 0 {
			proposals = append(proposals, material.Classification{NodeID: sugg[0].NodeID})
		}
	}
	if applied {
		m.Tags = append(m.Tags, MachineClassifiedTag)
		return true
	}
	m.Classifications = append(m.Classifications, proposals...)
	return false
}

// commit routes one prepared record in order: report failures, skip
// duplicates, buffer additions into the current chunk, or submit to review.
// It returns the (possibly grown) chunk.
func (imp *Importer) commit(ctx context.Context, p prepared, sum *Summary, seen map[string]bool, tr Tracker, batch []prepared) []prepared {
	sum.Total++
	switch p.route {
	case routeError:
		sum.Failed++
		tr.AddFailed()
		tr.ReportItemError(jobs.ItemError{Index: p.idx, Item: p.id, Err: p.err.Error()})
		return batch
	default:
	}
	// In-file duplicates are caught by seen — which includes buffered, not
	// yet flushed additions — and pre-existing ones by the live corpus.
	if seen[p.m.ID] || imp.sys.View().Material(p.m.ID) != nil {
		sum.Skipped++
		tr.AddSkipped()
		return batch
	}
	seen[p.m.ID] = true
	switch p.route {
	case routeAdd:
		return append(batch, p)
	case routeReview:
		if err := imp.submitForReview(p.m); err != nil {
			sum.Failed++
			tr.AddFailed()
			tr.ReportItemError(jobs.ItemError{Index: p.idx, Item: p.m.ID, Err: err.Error()})
			return batch
		}
		sum.Review++
		tr.AddOK()
	}
	return batch
}

// flush commits the buffered chunk of additions: through the batched
// pipeline (one journaled fsync window, one view publish) when possible,
// falling back to record-at-a-time commits — which report per-item errors
// and keep the good records — when a batch is refused or a commit override
// is installed. It returns the emptied chunk buffer for reuse.
func (imp *Importer) flush(ctx context.Context, sum *Summary, tr Tracker, batch []prepared) []prepared {
	if len(batch) == 0 {
		return batch
	}
	if imp.opt.Commit == nil && len(batch) > 1 {
		ms := make([]*material.Material, len(batch))
		for i, p := range batch {
			ms[i] = p.m
		}
		if err := imp.sys.AddMaterials(ms); err == nil {
			for _, p := range batch {
				sum.Added++
				if p.auto {
					sum.AutoClassified++
				}
				tr.AddOK()
			}
			return batch[:0]
		}
		// AddMaterials is all-or-nothing, so nothing applied; fall through
		// to the per-record path for per-item reporting and partial success.
	}
	for _, p := range batch {
		imp.commitOne(ctx, p, sum, tr)
	}
	return batch[:0]
}

// commitOne applies one addition with the retry policy.
func (imp *Importer) commitOne(ctx context.Context, p prepared, sum *Summary, tr Tracker) {
	commit := imp.opt.Commit
	if commit == nil {
		commit = imp.sys.AddMaterial
	}
	attempts, err := imp.opt.Retry.Do(ctx, func() error { return commit(p.m) })
	if err != nil {
		if ctx.Err() != nil {
			return // cancelled mid-item; nothing was applied
		}
		sum.Failed++
		tr.AddFailed()
		tr.ReportItemError(jobs.ItemError{Index: p.idx, Item: p.m.ID, Err: err.Error(), Attempts: attempts})
		return
	}
	sum.Added++
	if p.auto {
		sum.AutoClassified++
	}
	tr.AddOK()
}

// submitForReview files the material into the curation queue under the
// importer's reviewer account, registering it on first use.
func (imp *Importer) submitForReview(m *material.Material) error {
	q := imp.sys.Workflow()
	if _, ok := q.Account(imp.opt.Reviewer); !ok {
		if _, err := q.Register(imp.opt.Reviewer, workflow.RoleSubmitter); err != nil {
			return fmt.Errorf("ingest: register reviewer: %w", err)
		}
	}
	if _, err := q.Submit(imp.opt.Reviewer, m); err != nil {
		return fmt.Errorf("ingest: submit for review: %w", err)
	}
	return nil
}
