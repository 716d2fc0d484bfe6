package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"carcs/internal/cache"
	"carcs/internal/classify"
	"carcs/internal/coverage"
	"carcs/internal/learn"
	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/search"
	"carcs/internal/similarity"
	"carcs/internal/textproc"
)

// View is one immutable snapshot of the system: every container it holds
// (search engine, Bayes models, rule miner) is a frozen copy pinned at a
// single generation. Reads on a View take no locks and never observe a
// concurrent commit — a handler that resolves a View at the top of a
// request gets the same answers from every call for the request's whole
// lifetime, even while the commit pipeline publishes new generations
// underneath it.
//
// Views are cheap: publishing one costs O(1) snapshots of persistent
// structures, not copies of the data. Hold them as long as needed; a pinned
// View keeps only the structure shared with its generation alive.
type View struct {
	sys     *System
	gen     uint64
	eng     *search.Engine
	bayes   map[*ontology.Ontology]*classify.Bayes
	learned map[*ontology.Ontology]*learn.Model
	cooccur *classify.CoOccurrence
}

// Gen returns the mutation generation this view is pinned at. It is the
// cache-invalidation key for every analysis memoized through the view and
// the value the HTTP layer serves as the ETag.
func (v *View) Gen() uint64 { return v.gen }

// CS13 returns the CS13 ontology (shared and immutable).
func (v *View) CS13() *ontology.Ontology { return v.sys.cs13 }

// PDC12 returns the PDC12 ontology (shared and immutable).
func (v *View) PDC12() *ontology.Ontology { return v.sys.pdc12 }

// OntologyByName resolves "cs13" or "pdc12" (case-insensitive), else nil.
func (v *View) OntologyByName(name string) *ontology.Ontology {
	return v.sys.OntologyByName(name)
}

// ontology resolves an ontology name like OntologyByName, erring on an
// unknown one.
func (v *View) ontology(name string) (*ontology.Ontology, error) {
	if o := v.sys.OntologyByName(name); o != nil {
		return o, nil
	}
	return nil, fmt.Errorf("core: unknown ontology %q", name)
}

// Material returns the material with the given id at this generation.
func (v *View) Material(id string) *material.Material { return v.eng.Get(id) }

// Materials returns the materials at this generation, optionally filtered
// by collection name (empty for all), in insertion order.
func (v *View) Materials(collection string) []*material.Material {
	if collection == "" {
		return v.eng.All()
	}
	return v.eng.Select(search.ByCollection(collection))
}

// Collections lists the distinct collection names present, sorted.
func (v *View) Collections() []string { return v.Stats().Collections }

// Len returns the number of materials at this generation.
func (v *View) Len() int { return v.eng.Len() }

// Select runs a filtered scan over the pinned corpus.
func (v *View) Select(f search.Filter) []*material.Material {
	return v.eng.Select(f)
}

// SearchText runs ranked free-text search with spell correction over the
// pinned index. The returned string is the corrected query when one was
// used ("did you mean"), empty otherwise.
func (v *View) SearchText(query string, k int, filters ...search.Filter) ([]search.Hit, string) {
	return v.eng.TextCorrected(query, k, filters...)
}

// SearchQuery evaluates the structured query mini-language over the pinned
// index.
func (v *View) SearchQuery(q string, k int) ([]search.Hit, error) {
	return v.eng.Query(q, k)
}

// doCached memoizes compute under (key, generation) like results.Do, with
// one extra rule for cancellation: concurrent requests for the same key
// share one in-flight computation, so when the request that happened to own
// the flight gets cancelled, every waiter sees its context error. A caller
// whose own ctx is still healthy retries instead of failing — without this,
// one impatient client could fail an unbounded number of healthy ones.
func (v *View) doCached(ctx context.Context, key string, compute func() (any, error)) (any, error) {
	var res any
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		res, err = v.sys.results.Do(key, v.gen, compute)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return res, err
}

// Coverage computes the Figure 2 report of a collection (empty for all
// materials) against the named ontology ("cs13" or "pdc12"), memoized per
// generation in the shared result cache.
func (v *View) Coverage(ontologyName, collection string) (*coverage.Report, error) {
	return v.CoverageCtx(context.Background(), ontologyName, collection)
}

// CoverageCtx is Coverage with cooperative cancellation threaded into the
// sharded scan, so a shed or timed-out request stops computing promptly.
func (v *View) CoverageCtx(ctx context.Context, ontologyName, collection string) (*coverage.Report, error) {
	o, err := v.ontology(ontologyName)
	if err != nil {
		return nil, err
	}
	key := cache.Key("coverage", v.sys.ontologyKey(o), collection)
	res, err := v.doCached(ctx, key, func() (any, error) {
		mats := v.Materials(collection)
		label := collection
		if label == "" {
			label = "all materials"
		}
		return coverage.ComputeCtx(ctx, o, label, mats)
	})
	if err != nil {
		return nil, err
	}
	return res.(*coverage.Report), nil
}

// DepthReport computes the Bloom-level depth report (the Sec. IV-A proposed
// extension), memoized per generation.
func (v *View) DepthReport(ontologyName, collection string) (*coverage.DepthReport, error) {
	o, err := v.ontology(ontologyName)
	if err != nil {
		return nil, err
	}
	key := cache.Key("depth", v.sys.ontologyKey(o), collection)
	res, err := v.doCached(context.Background(), key, func() (any, error) {
		return coverage.ComputeDepth(o, v.Materials(collection)), nil
	})
	if err != nil {
		return nil, err
	}
	return res.(*coverage.DepthReport), nil
}

// GapReport returns the uncovered-subtree analysis of a collection against
// an ontology, optionally restricted to core-tier gaps, memoized per
// generation on top of the (also memoized) coverage report. ctx cancels
// the underlying coverage scan.
func (v *View) GapReport(ctx context.Context, ontologyName, collection string, coreOnly bool) ([]coverage.Gap, error) {
	rep, err := v.CoverageCtx(ctx, ontologyName, collection)
	if err != nil {
		return nil, err
	}
	key := cache.Key("gaps", v.sys.ontologyKey(rep.Ontology), collection, strconv.FormatBool(coreOnly))
	res, err := v.doCached(ctx, key, func() (any, error) {
		if coreOnly {
			return rep.CoreGaps(rep.Ontology.RootID()), nil
		}
		return rep.Gaps(rep.Ontology.RootID()), nil
	})
	if err != nil {
		return nil, err
	}
	return res.([]coverage.Gap), nil
}

// SimilarityGraph builds the Figure 3 bipartite graph between two
// collections with the paper's shared-count metric at the given threshold
// (2 in the paper), memoized per generation. ctx cancels the sharded pair
// scoring.
func (v *View) SimilarityGraph(ctx context.Context, leftCollection, rightCollection string, threshold int) (*similarity.Graph, error) {
	key := cache.Key("similarity", leftCollection, rightCollection, strconv.Itoa(threshold))
	res, err := v.doCached(ctx, key, func() (any, error) {
		left := v.Materials(leftCollection)
		right := v.Materials(rightCollection)
		return similarity.BuildBipartiteCtx(ctx, left, right, similarity.SharedCount, float64(threshold))
	})
	if err != nil {
		return nil, err
	}
	return res.(*similarity.Graph), nil
}

// suggestEngines is the one mapping from a suggestion method's name to its
// engine over a view's pinned models. The training-free engines are shared
// (built once at system construction, read-only); the Bayes and learned
// models are the view's frozen snapshots, so no locking is needed anywhere.
// A nil or untrained learned model suggests nothing rather than erroring,
// like an untrained Bayes: the method exists as soon as the binary does,
// the answers arrive after the first train.
var suggestEngines = []struct {
	name   string
	engine func(v *View, o *ontology.Ontology) classify.Suggester
}{
	{"tfidf", func(v *View, o *ontology.Ontology) classify.Suggester { return v.sys.sug[o].tfidf }},
	{"keyword", func(v *View, o *ontology.Ontology) classify.Suggester { return v.sys.sug[o].keyword }},
	{"bayes", func(v *View, o *ontology.Ontology) classify.Suggester { return v.bayes[o] }},
	{"learned", func(v *View, o *ontology.Ontology) classify.Suggester { return v.learned[o] }},
	{"ensemble", func(v *View, o *ontology.Ontology) classify.Suggester {
		return classify.NewEnsemble(v.ensembleMembers(o)...)
	}},
}

// SuggestMethods names every suggestion method Suggest accepts; the empty
// method means the first, "tfidf".
var SuggestMethods = func() []string {
	names := make([]string, len(suggestEngines))
	for i, e := range suggestEngines {
		names[i] = e.name
	}
	return names
}()

// suggester resolves a method name ("" for the default) to its engine for
// ontology o in this view.
func (v *View) suggester(method string, o *ontology.Ontology) (classify.Suggester, error) {
	if method == "" {
		method = suggestEngines[0].name
	}
	for _, e := range suggestEngines {
		if e.name == method {
			return e.engine(v, o), nil
		}
	}
	return nil, fmt.Errorf("core: unknown suggester %q", method)
}

// suggestTerms scores analyzed terms with one engine. The ensemble checks
// ctx between members, so a shed or timed-out request pays for at most one
// member's pass.
func suggestTerms(ctx context.Context, eng classify.Suggester, terms []string, k int) ([]classify.Suggestion, error) {
	if ens, ok := eng.(*classify.Ensemble); ok {
		return ens.SuggestTermsCtx(ctx, terms, k)
	}
	return eng.SuggestTerms(terms, k), nil
}

// Suggest proposes classification entries for free text against the named
// ontology using the requested method (one of SuggestMethods), over the
// models pinned in this view. Results are memoized per (query, generation).
func (v *View) Suggest(ctx context.Context, method, ontologyName, text string, k int) ([]classify.Suggestion, error) {
	o, err := v.ontology(ontologyName)
	if err != nil {
		return nil, err
	}
	eng, err := v.suggester(method, o)
	if err != nil {
		return nil, err
	}
	key := cache.Key("suggest", method, v.sys.ontologyKey(o), strconv.Itoa(k), text)
	res, err := v.doCached(ctx, key, func() (any, error) {
		return suggestTerms(ctx, eng, textproc.Terms(text), k)
	})
	if err != nil {
		return nil, err
	}
	return res.([]classify.Suggestion), nil
}

// SuggestDirect computes suggestions without consulting or filling the
// result cache. Bulk pipelines use it: their queries never repeat, and each
// of their own commits bumps the generation, so caching the results would
// only pile up dead entries.
func (v *View) SuggestDirect(method, ontologyName, text string, k int) ([]classify.Suggestion, error) {
	return v.SuggestTermsDirect(method, ontologyName, textproc.Terms(text), k)
}

// SuggestTermsDirect is SuggestDirect over analyzed terms. The ingest
// auto-classifier tokenizes each record's search text once and fans the
// term list across both ontologies.
func (v *View) SuggestTermsDirect(method, ontologyName string, terms []string, k int) ([]classify.Suggestion, error) {
	o, err := v.ontology(ontologyName)
	if err != nil {
		return nil, err
	}
	eng, err := v.suggester(method, o)
	if err != nil {
		return nil, err
	}
	return suggestTerms(context.Background(), eng, terms, k)
}

// ensembleMembers assembles the fusion committee for an ontology: the
// pinned Bayes model and the shared training-free engines, plus the
// learned model once it has been trained. Rank fusion lets the trained
// model outvote the heuristics without silencing them.
func (v *View) ensembleMembers(o *ontology.Ontology) []classify.Suggester {
	sg := v.sys.sug[o]
	members := []classify.Suggester{v.bayes[o], sg.keyword, sg.tfidf}
	if lm := v.learned[o]; lm.Trained() {
		members = append([]classify.Suggester{lm}, members...)
	}
	return members
}

// Learned returns this view's pinned learned model for the ontology, which
// may be nil before the first train.
func (v *View) Learned(o *ontology.Ontology) *learn.Model { return v.learned[o] }

// Recommend proposes classification entries commonly used together with the
// already-selected ones, from the association rules pinned in this view.
// Results are memoized per (selection, generation).
func (v *View) Recommend(selected []string, k int) []classify.Rule {
	key := cache.Key(append([]string{"recommend", strconv.Itoa(k)}, selected...)...)
	res, _ := v.doCached(context.Background(), key, func() (any, error) {
		return v.cooccur.Recommend(selected, 2, k), nil
	})
	return res.([]classify.Rule)
}

// PDCReplacements is the Sec. IV-D query over the pinned corpus, memoized
// per generation.
func (v *View) PDCReplacements(id string, k int) ([]similarity.Edge, error) {
	key := cache.Key("replacements", id, strconv.Itoa(k))
	res, err := v.doCached(context.Background(), key, func() (any, error) {
		m := v.eng.Get(id)
		if m == nil {
			return nil, fmt.Errorf("core: no material %q", id)
		}
		return v.eng.PDCReplacements(m, 2, k), nil
	})
	if err != nil {
		return nil, err
	}
	return res.([]similarity.Edge), nil
}

// Snapshot writes the pinned materials as JSON in the checkpoint's
// relational form: materials, classification entries and the link between
// them, with row ids numbered afresh (see encodeStore).
func (v *View) Snapshot(w io.Writer) error { return encodeStore(w, v.eng.All()) }

// Stats summarizes the system for the CLI and the server's status endpoint.
type Stats struct {
	Materials   int
	Collections []string
	// Entries counts the distinct classification entries in use, Links
	// the (material, entry) classifications.
	Entries   int
	Links     int
	CS13Size  int
	PDC12Size int
}

// Stats summarizes the pinned state.
func (v *View) Stats() Stats {
	st := Stats{
		Materials: v.Len(),
		CS13Size:  v.sys.cs13.Len(),
		PDC12Size: v.sys.pdc12.Len(),
	}
	collections := make(map[string]struct{})
	inUse := make(map[string]struct{})
	for _, m := range v.eng.All() {
		collections[m.Collection] = struct{}{}
		for _, cl := range m.Classifications {
			inUse[cl.NodeID] = struct{}{}
		}
		st.Links += len(m.Classifications)
	}
	st.Collections = make([]string, 0, len(collections))
	for c := range collections {
		st.Collections = append(st.Collections, c)
	}
	sort.Strings(st.Collections)
	st.Entries = len(inUse)
	return st
}

// SortedMaterials returns the pinned corpus (optionally filtered), sorted by
// material ID — the listing order the API pages over. The sorted slice is
// memoized per (filter key, generation): the first page of a listing pays
// one O(n log n) sort, every further page of the same generation reuses it,
// which is what keeps cursor pagination constant-latency at millions of
// rows. filterKey must canonically encode f (callers build it from the
// normalized query parameters); f == nil means the whole corpus. Callers
// must not mutate the returned slice.
func (v *View) SortedMaterials(filterKey string, f search.Filter) []*material.Material {
	key := cache.Key("sorted-materials", filterKey)
	res, _ := v.doCached(context.Background(), key, func() (any, error) {
		var mats []*material.Material
		if f == nil {
			mats = v.eng.All()
		} else {
			mats = v.eng.Select(f)
		}
		sort.Slice(mats, func(i, j int) bool { return mats[i].ID < mats[j].ID })
		return mats, nil
	})
	return res.([]*material.Material)
}

// MaterialsPage returns one keyset page of the sorted, filtered corpus:
// up to limit materials with ID strictly greater than after (empty after
// starts at the beginning), the total filtered count, and the cursor for
// the next page ("" when this page reaches the end). Finding the page is a
// binary search over the memoized sorted slice, so page latency is
// O(log n + limit) regardless of corpus size or cursor depth — unlike
// limit/offset, which walks the offset every call.
func (v *View) MaterialsPage(filterKey string, f search.Filter, after string, limit int) (page []*material.Material, total int, next string) {
	mats := v.SortedMaterials(filterKey, f)
	total = len(mats)
	start := 0
	if after != "" {
		start = sort.Search(len(mats), func(i int) bool { return mats[i].ID > after })
	}
	end := start + limit
	if limit <= 0 || end > len(mats) {
		end = len(mats)
	}
	page = mats[start:end]
	if end < len(mats) && len(page) > 0 {
		next = page[len(page)-1].ID
	}
	return page, total, next
}
