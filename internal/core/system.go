// Package core is the CAR-CS system: a single facade wiring the curriculum
// ontologies, the relational store, the search engine, the classification
// suggesters, the coverage and similarity analyses, and the curation
// workflow into the API the paper's prototype exposes through its web
// service.
//
// The system is split into two halves. The commit pipeline — AddMaterial,
// RemoveMaterial, Reclassify — serializes mutations under a single mutex:
// each journals through the durability hook, applies to the live containers,
// and atomically publishes a new immutable View. The read model — View,
// obtained from System.View() — is a frozen snapshot of every container
// pinned at one generation; reads on it take no locks and never observe a
// concurrent commit. Containers use persistent (copy-on-write) structures,
// so publishing a view costs O(changed rows), not a copy of the data.
package core

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"carcs/internal/cache"
	"carcs/internal/classify"
	"carcs/internal/corpus"
	"carcs/internal/coverage"
	"carcs/internal/learn"
	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/relstore"
	"carcs/internal/search"
	"carcs/internal/similarity"
	"carcs/internal/textproc"
	"carcs/internal/workflow"
)

// suggesters bundles the training-free engines kept per ontology. Building
// them costs a full pass over the ontology's classifiable entries, so they
// are constructed once at system creation, never per request.
type suggesters struct {
	keyword *classify.Keyword
	tfidf   *classify.TFIDF
}

// System is one CAR-CS instance.
type System struct {
	// mu serializes the commit pipeline: every mutation (material add/
	// remove/reclassify) runs under it end to end. Reads never take it —
	// they go through the published View.
	mu    sync.Mutex
	cs13  *ontology.Ontology
	pdc12 *ontology.Ontology

	store     *relstore.Store
	materials *relstore.Table
	entries   *relstore.Table
	links     *relstore.LinkTable

	engine *search.Engine
	queue  *workflow.Queue

	// sug holds the per-ontology training-free suggestion engines.
	sug map[*ontology.Ontology]suggesters
	// bayes holds one incrementally maintained naive-Bayes model per
	// ontology; cooccur is the incrementally maintained rule miner. All
	// three are updated under mu by every material mutation and snapped
	// into each published view.
	bayes   map[*ontology.Ontology]*classify.Bayes
	cooccur *classify.CoOccurrence

	// learned holds the trained classifier per ontology, nil until the
	// first train op. Models are immutable; train and review updates
	// replace the pointer under mu, and views snap the current pointers.
	learned map[*ontology.Ontology]*learn.Model
	// lastTrainGen is the generation at which the current learned models
	// were installed by a full retrain. Guarded by mu.
	lastTrainGen uint64

	// gen counts committed mutations. Every published view carries the
	// generation it was built at; cached results are keyed by it.
	gen atomic.Uint64
	// pubMu is a leaf lock guarding the (generation bump, view publish)
	// pair so the served generation is monotonic: no reader can observe a
	// generation whose view has not been stored yet. Commits take it with
	// mu held; the workflow observer takes it alone (it runs with the
	// queue's lock held and must never touch mu — see New).
	pubMu sync.Mutex
	// view is the atomically published read model. Never nil after New.
	view atomic.Pointer[View]

	// results memoizes analysis results by (request key, generation).
	results *cache.Cache

	// hook, when set, journals every mutation before it commits (see
	// MutationHook). Guarded by mu.
	hook MutationHook
	// batchHook, when set, journals a whole batch of mutations in one
	// durability round trip (see BatchMutationHook). Guarded by mu.
	batchHook BatchMutationHook

	// limit, when positive, caps the number of stored materials
	// (workspace quota). Enforced only on the public mutation paths —
	// never during WAL replay or replication apply, so a quota lowered
	// after writes were accepted can never wedge recovery. Guarded by mu.
	limit int
}

// ErrQuotaExceeded is returned (wrapped) by AddMaterial/AddMaterials when a
// workspace material quota would be exceeded. The server maps it to 429.
var ErrQuotaExceeded = fmt.Errorf("material quota exceeded")

// SetMaterialLimit caps the number of materials this system accepts through
// AddMaterial/AddMaterials; zero or negative removes the cap. Replayed and
// replicated ops bypass the check.
func (s *System) SetMaterialLimit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = n
}

// MaterialLimit reports the configured material quota (0 = unlimited).
func (s *System) MaterialLimit() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limit
}

// quotaRoomLocked refuses an addition of n materials that would push the
// stored count past the quota. Callers hold mu.
func (s *System) quotaRoomLocked(n int) error {
	if s.limit > 0 && s.engine.Len()+n > s.limit {
		return fmt.Errorf("%w (limit %d, stored %d, adding %d)", ErrQuotaExceeded, s.limit, s.engine.Len(), n)
	}
	return nil
}

// MutationHook observes a mutation before it commits. The durability layer
// installs one that appends the operation to the write-ahead log; if the
// hook fails, the mutation is refused, so no accepted write can outlive the
// journal. The hook runs with the system's mutation lock held.
type MutationHook func(op string, payload any) error

// OpPayload is one not-yet-journaled operation inside a batch mutation.
type OpPayload struct {
	Op      string
	Payload any
}

// BatchMutationHook journals every operation of a batch mutation before any
// of it commits — the durability layer appends them all with one fsync. Like
// MutationHook it runs with the system's mutation lock held, and a failure
// refuses the whole batch.
type BatchMutationHook func(ops []OpPayload) error

// SetMutationHook installs (or, with nil, removes) the mutation hook.
func (s *System) SetMutationHook(h MutationHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// SetBatchMutationHook installs (or, with nil, removes) the batch mutation
// hook. Without one, batch mutations fall back to journaling through the
// per-op MutationHook.
func (s *System) SetBatchMutationHook(h BatchMutationHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchHook = h
}

func (s *System) hookLocked(op string, payload any) error {
	if s.hook == nil {
		return nil
	}
	return s.hook(op, payload)
}

// batchHookLocked journals a batch of operations: through the batch hook
// when one is installed (one fsync for the whole slice), else op-by-op
// through the per-mutation hook.
func (s *System) batchHookLocked(ops []OpPayload) error {
	if s.batchHook != nil {
		return s.batchHook(ops)
	}
	for _, op := range ops {
		if err := s.hookLocked(op.Op, op.Payload); err != nil {
			return err
		}
	}
	return nil
}

// New creates an empty CAR-CS system bound to the CS13 and PDC12 curricula.
func New() (*System, error) {
	s := &System{
		cs13:   ontology.CS13(),
		pdc12:  ontology.PDC12(),
		store:  relstore.NewStore(),
		queue:  workflow.NewQueue(),
		engine: search.NewEngine(ontology.CS13(), ontology.PDC12()),
	}
	var err error
	s.materials, err = s.store.CreateTable(relstore.Schema{
		Name: "materials",
		Columns: []relstore.Column{
			{Name: "slug", Type: relstore.String, Unique: true},
			{Name: "title", Type: relstore.String},
			{Name: "kind", Type: relstore.String, Indexed: true},
			{Name: "level", Type: relstore.String, Indexed: true},
			{Name: "language", Type: relstore.String, Indexed: true},
			{Name: "collection", Type: relstore.String, Indexed: true},
			{Name: "url", Type: relstore.String},
			{Name: "description", Type: relstore.String},
			{Name: "year", Type: relstore.Int, Indexed: true},
			{Name: "authors", Type: relstore.StringList},
			{Name: "datasets", Type: relstore.StringList},
			{Name: "tags", Type: relstore.StringList},
		},
	})
	if err != nil {
		return nil, err
	}
	s.entries, err = s.store.CreateTable(relstore.Schema{
		Name: "entries",
		Columns: []relstore.Column{
			{Name: "node", Type: relstore.String, Unique: true},
			{Name: "bloom", Type: relstore.String},
		},
	})
	if err != nil {
		return nil, err
	}
	s.links, err = s.store.CreateLink("material_classifications", "materials", "entries")
	if err != nil {
		return nil, err
	}
	// The training-free suggesters are immutable once built and the
	// ontologies are process-wide singletons, so every System shares one
	// instance per ontology instead of re-tokenizing the whole curriculum
	// on each construction (which dominated cold-start profiles).
	s.sug = map[*ontology.Ontology]suggesters{
		s.cs13:  {keyword: classify.SharedKeyword(s.cs13), tfidf: classify.SharedTFIDF(s.cs13)},
		s.pdc12: {keyword: classify.SharedKeyword(s.pdc12), tfidf: classify.SharedTFIDF(s.pdc12)},
	}
	s.bayes = map[*ontology.Ontology]*classify.Bayes{
		s.cs13:  classify.NewBayes(s.cs13),
		s.pdc12: classify.NewBayes(s.pdc12),
	}
	s.learned = map[*ontology.Ontology]*learn.Model{}
	s.cooccur = classify.NewCoOccurrence(nil)
	s.results = cache.New(0)
	// Publish the empty initial view before the workflow observer can fire.
	s.view.Store(s.buildViewLocked(0))
	// Workflow transitions are mutations too: a submission moving through
	// review changes what the curation endpoints report, so they advance
	// the generation. The observer runs with the queue's lock held, so it
	// must not take mu (the checkpoint path locks mu before freezing the
	// queue); containers are untouched by workflow transitions, so it
	// republishes the last view under the new generation via pubMu alone.
	s.queue.SetObserver(func() {
		s.pubMu.Lock()
		defer s.pubMu.Unlock()
		gen := s.gen.Add(1)
		nv := *s.view.Load()
		nv.gen = gen
		s.view.Store(&nv)
	})
	return s, nil
}

// buildViewLocked assembles a view of the current containers at the given
// generation. Callers hold mu (or, in New, have exclusive access).
func (s *System) buildViewLocked(gen uint64) *View {
	bayes := make(map[*ontology.Ontology]*classify.Bayes, len(s.bayes))
	for o, b := range s.bayes {
		bayes[o] = b.Snap()
	}
	// Learned models are immutable; snapping is copying the pointers.
	learned := make(map[*ontology.Ontology]*learn.Model, len(s.learned))
	for o, m := range s.learned {
		learned[o] = m
	}
	return &View{
		sys:     s,
		gen:     gen,
		eng:     s.engine.Snap(),
		store:   s.store.Snap(),
		bayes:   bayes,
		learned: learned,
		cooccur: s.cooccur.Snap(),
	}
}

// publishLocked bumps the generation and atomically publishes a fresh view
// of the just-mutated containers. Callers hold mu; the generation bump and
// the view store happen together under pubMu so the served generation is
// monotonic.
func (s *System) publishLocked() {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.view.Store(s.buildViewLocked(s.gen.Add(1)))
}

// View returns the current published read model. The returned View is
// immutable and pinned at one generation: every read on it is lock-free and
// mutually consistent, no matter how many commits land afterwards. Callers
// that make several related reads should resolve one View and use it for
// all of them.
func (s *System) View() *View { return s.view.Load() }

// Generation returns the generation of the current published view. It
// increases monotonically on every committed mutation (material add/remove/
// reclassify, workflow transition) and is the cache-invalidation key for
// every memoized analysis — and the value served as the HTTP ETag.
func (s *System) Generation() uint64 { return s.View().Gen() }

// ResultCache exposes the generation-keyed result cache so other layers
// (the server's SVG rendering, for instance) can memoize derived artifacts
// under the same invalidation discipline.
func (s *System) ResultCache() *cache.Cache { return s.results }

// CacheStats reports result-cache effectiveness for /api/health.
func (s *System) CacheStats() cache.Stats { return s.results.Stats() }

// observeLocked folds a newly committed material into the incrementally
// maintained models. The caller passes the material's already-analyzed
// search terms so the per-ontology models need not re-tokenize. Callers
// hold mu and publish once per mutation after all model updates.
func (s *System) observeLocked(m *material.Material, terms []string) {
	for _, b := range s.bayes {
		b.ObserveTerms(m, terms)
	}
	s.cooccur.Observe(m)
}

// forgetLocked removes a previously committed material from the maintained
// models. Callers hold mu and must pass the exact stored value.
func (s *System) forgetLocked(m *material.Material) {
	for _, b := range s.bayes {
		b.Forget(m)
	}
	s.cooccur.Forget(m)
}

// NewSeeded creates a system pre-loaded with the paper's three collections:
// Nifty, Peachy, and ITCS 3145.
func NewSeeded() (*System, error) {
	s, err := New()
	if err != nil {
		return nil, err
	}
	for _, m := range corpus.AllMaterials() {
		if err := s.AddMaterial(m); err != nil {
			return nil, fmt.Errorf("core: seeding %s: %w", m.ID, err)
		}
	}
	return s, nil
}

// CS13 returns the CS13 ontology.
func (s *System) CS13() *ontology.Ontology { return s.cs13 }

// PDC12 returns the PDC12 ontology.
func (s *System) PDC12() *ontology.Ontology { return s.pdc12 }

// OntologyByName resolves "cs13" or "pdc12" (case-insensitive), else nil.
func (s *System) OntologyByName(name string) *ontology.Ontology {
	switch strings.ToLower(name) {
	case "cs13", "cs2013", "acm", "acm-ieee":
		return s.cs13
	case "pdc12", "pdc", "tcpp":
		return s.pdc12
	}
	return nil
}

// Workflow returns the curation queue.
func (s *System) Workflow() *workflow.Queue { return s.queue }

// Store exposes the underlying live relational store (read-mostly;
// mutations should go through the System so the search index stays
// consistent). Readers that need a stable picture should use View().Store.
func (s *System) Store() *relstore.Store { return s.store }

// AddMaterial validates and stores a material, indexes it for search,
// records its classification links, and publishes a new view. Duplicate IDs
// are rejected. The system stores a deep copy, so later edits to the
// argument (or through other systems sharing the same seed corpus) never
// leak in.
func (s *System) AddMaterial(m *material.Material) error {
	m, err := s.validated(m)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.uniqueLocked(m.ID); err != nil {
		return err
	}
	if err := s.quotaRoomLocked(1); err != nil {
		return fmt.Errorf("core: add %q: %w", m.ID, err)
	}
	if err := s.hookLocked(OpAddMaterial, addMaterialPayload{Material: m}); err != nil {
		return fmt.Errorf("core: add %q: %w", m.ID, err)
	}
	if err := s.applyAddLocked(m); err != nil {
		return err
	}
	s.publishLocked()
	return nil
}

// materialRow maps a material onto its relational row.
func materialRow(m *material.Material) relstore.Row {
	return relstore.Row{
		"slug":        m.ID,
		"title":       m.Title,
		"kind":        string(m.Kind),
		"level":       string(m.Level),
		"language":    m.Language,
		"collection":  m.Collection,
		"url":         m.URL,
		"description": m.Description,
		"year":        int64(m.Year),
		"authors":     append([]string{}, m.Authors...),
		"datasets":    append([]string{}, m.Datasets...),
		"tags":        append([]string{}, m.Tags...),
	}
}

// applyAddLocked commits one already-validated, already-journaled material
// to the live containers — row, classification links, search index, and
// incremental models — without publishing. The search text is analyzed once
// here and shared by every term-keyed structure. Callers hold mu and
// publish once after all applies in the batch.
func (s *System) applyAddLocked(m *material.Material) error {
	rowID, err := s.materials.Insert(materialRow(m))
	if err != nil {
		return fmt.Errorf("core: add %q: %w", m.ID, err)
	}
	for _, cl := range m.Classifications {
		entryID, err := s.entryRowIDLocked(cl)
		if err != nil {
			return err
		}
		s.links.Add(rowID, entryID)
	}
	terms := textproc.Terms(m.SearchText())
	s.engine.AddTerms(m, terms)
	s.observeLocked(m, terms)
	return nil
}

func (s *System) entryRowIDLocked(cl material.Classification) (int64, error) {
	if id, ok := s.entries.UniqueID("node", cl.NodeID); ok {
		return id, nil
	}
	return s.entries.Insert(relstore.Row{
		"node":  cl.NodeID,
		"bloom": cl.Bloom.String(),
	})
}

// RemoveMaterial deletes a material and its links, and publishes a new view.
func (s *System) RemoveMaterial(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rowID, err := s.rowIDLocked(id)
	if err != nil {
		return err
	}
	if err := s.hookLocked(OpRemoveMaterial, removeMaterialPayload{ID: id}); err != nil {
		return fmt.Errorf("core: remove %q: %w", id, err)
	}
	if err := s.applyRemoveLocked(id, rowID); err != nil {
		return err
	}
	s.publishLocked()
	return nil
}

// validated checks a material against the curricula and returns the deep
// copy the system stores. It reads only the immutable ontologies, so
// AddMaterial runs it before taking the mutation lock.
func (s *System) validated(m *material.Material) (*material.Material, error) {
	if errs := m.Validate(s.cs13, s.pdc12); len(errs) > 0 {
		return nil, fmt.Errorf("core: invalid material %q: %w", m.ID, errs[0])
	}
	return m.Clone(), nil
}

// uniqueLocked refuses a material id that is already stored.
func (s *System) uniqueLocked(id string) error {
	if _, taken := s.materials.UniqueID("slug", id); taken {
		return fmt.Errorf("core: add %q: duplicate material", id)
	}
	return nil
}

// rowIDLocked resolves a stored material's relational row id.
func (s *System) rowIDLocked(id string) (int64, error) {
	rowID, ok := s.materials.UniqueID("slug", id)
	if !ok {
		return 0, fmt.Errorf("core: no material %q", id)
	}
	return rowID, nil
}

// reclassifiedLocked validates a reclassification and returns the stored
// material, its replacement carrying cls, and its row id.
func (s *System) reclassifiedLocked(id string, cls []material.Classification) (prev, next *material.Material, rowID int64, err error) {
	prev = s.engine.Get(id)
	if prev == nil {
		return nil, nil, 0, fmt.Errorf("core: no material %q", id)
	}
	next = prev.Clone()
	next.Classifications = append([]material.Classification(nil), cls...)
	if errs := next.Validate(s.cs13, s.pdc12); len(errs) > 0 {
		return nil, nil, 0, fmt.Errorf("core: reclassify %q: %w", id, errs[0])
	}
	rowID, ok := s.materials.UniqueID("slug", id)
	if !ok {
		return nil, nil, 0, fmt.Errorf("core: store out of sync for %q", id)
	}
	return prev, next, rowID, nil
}

// addMaterialLocked is AddMaterial without the quota, hook, lock, or
// publish: the validate-check-apply core that recovery and replication
// apply share.
func (s *System) addMaterialLocked(m *material.Material) error {
	m, err := s.validated(m)
	if err != nil {
		return err
	}
	if err := s.uniqueLocked(m.ID); err != nil {
		return err
	}
	return s.applyAddLocked(m)
}

// removeMaterialLocked is RemoveMaterial without the hook, lock, or publish.
func (s *System) removeMaterialLocked(id string) error {
	rowID, err := s.rowIDLocked(id)
	if err != nil {
		return err
	}
	return s.applyRemoveLocked(id, rowID)
}

// reclassifyLocked is Reclassify without the hook, lock, or publish.
func (s *System) reclassifyLocked(id string, cls []material.Classification) error {
	prev, next, rowID, err := s.reclassifiedLocked(id, cls)
	if err != nil {
		return err
	}
	return s.applyReclassifyLocked(prev, next, rowID)
}

// applyRemoveLocked commits an already-journaled removal without publishing.
func (s *System) applyRemoveLocked(id string, rowID int64) error {
	if err := s.materials.Delete(rowID); err != nil {
		return err
	}
	s.links.RemoveLeft(rowID)
	if m := s.engine.Get(id); m != nil {
		s.forgetLocked(m)
	}
	s.engine.Remove(id)
	return nil
}

// Reclassify replaces a material's classification set, the editing flow of
// Fig. 1b. The stored material is replaced copy-on-write — the previous
// value is never mutated in place — so views pinned at older generations
// stay internally consistent; they are superseded by the published view,
// never mutated under their feet.
func (s *System) Reclassify(id string, cls []material.Classification) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, next, rowID, err := s.reclassifiedLocked(id, cls)
	if err != nil {
		return err
	}
	if err := s.hookLocked(OpReclassify, reclassifyPayload{ID: id, Classifications: cls}); err != nil {
		return fmt.Errorf("core: reclassify %q: %w", id, err)
	}
	if err := s.applyReclassifyLocked(prev, next, rowID); err != nil {
		return err
	}
	s.publishLocked()
	return nil
}

// applyReclassifyLocked commits an already-validated, already-journaled
// reclassification without publishing.
func (s *System) applyReclassifyLocked(prev, next *material.Material, rowID int64) error {
	s.links.RemoveLeft(rowID)
	for _, cl := range next.Classifications {
		entryID, err := s.entryRowIDLocked(cl)
		if err != nil {
			return err
		}
		s.links.Add(rowID, entryID)
	}
	s.forgetLocked(prev)
	terms := textproc.Terms(next.SearchText())
	s.engine.AddTerms(next, terms)
	s.observeLocked(next, terms)
	return nil
}

// The methods below are conveniences that resolve the current view and
// answer from it. Callers making several related reads should resolve one
// View themselves so all reads pin the same generation.

// Material returns the stored material with the given id, or nil.
func (s *System) Material(id string) *material.Material { return s.View().Material(id) }

// Materials returns all stored materials, optionally filtered by collection
// name (empty for all), in insertion order.
func (s *System) Materials(collection string) []*material.Material {
	return s.View().Materials(collection)
}

// Collections lists the distinct collection names present, sorted.
func (s *System) Collections() []string { return s.View().Collections() }

// Len returns the number of stored materials.
func (s *System) Len() int { return s.View().Len() }

// ontologyKey returns the canonical cache-key name of one of the system's
// ontologies, so "acm" and "cs2013" share cache entries with "cs13".
func (s *System) ontologyKey(o *ontology.Ontology) string {
	if o == s.cs13 {
		return "cs13"
	}
	return "pdc12"
}

// Coverage computes the Figure 2 report through the current view.
func (s *System) Coverage(ontologyName, collection string) (*coverage.Report, error) {
	return s.View().Coverage(ontologyName, collection)
}

// DepthReport computes the Bloom-level depth report through the current view.
func (s *System) DepthReport(ontologyName, collection string) (*coverage.DepthReport, error) {
	return s.View().DepthReport(ontologyName, collection)
}

// GapReport returns the uncovered-subtree analysis through the current view.
func (s *System) GapReport(ontologyName, collection string, coreOnly bool) ([]coverage.Gap, error) {
	return s.View().GapReport(ontologyName, collection, coreOnly)
}

// SimilarityGraph builds the Figure 3 graph through the current view.
func (s *System) SimilarityGraph(leftCollection, rightCollection string, threshold int) *similarity.Graph {
	return s.View().SimilarityGraph(leftCollection, rightCollection, threshold)
}

// Suggest proposes classification entries through the current view.
func (s *System) Suggest(method, ontologyName, text string, k int) ([]classify.Suggestion, error) {
	return s.View().Suggest(method, ontologyName, text, k)
}

// SuggestDirect computes suggestions through the current view without
// consulting or filling the result cache.
func (s *System) SuggestDirect(method, ontologyName, text string, k int) ([]classify.Suggestion, error) {
	return s.View().SuggestDirect(method, ontologyName, text, k)
}

// Recommend proposes co-occurring classification entries through the
// current view.
func (s *System) Recommend(selected []string, k int) []classify.Rule {
	return s.View().Recommend(selected, k)
}

// PDCReplacements is the Sec. IV-D query through the current view.
func (s *System) PDCReplacements(id string, k int) ([]similarity.Edge, error) {
	return s.View().PDCReplacements(id, k)
}

// Snapshot writes the relational state of the current view as JSON.
func (s *System) Snapshot(w io.Writer) error { return s.View().Snapshot(w) }

// Stats summarizes the system for the CLI and the server's status endpoint.
type Stats struct {
	Materials   int
	Collections []string
	Entries     int
	Links       int
	CS13Size    int
	PDC12Size   int
}

// ComputeStats gathers the summary from the current view.
func (s *System) ComputeStats() Stats { return s.View().Stats() }
