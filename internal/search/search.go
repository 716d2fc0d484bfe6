// Package search implements the query side of CAR-CS: attribute filters
// (course level, material kind, language, dataset usage, years), ontology
// subtree filters ("An instructor can search for materials on precise
// topics"), ranked free-text search over titles and descriptions, and the
// Sec. IV-D query — find materials similar to one you already use but that
// also cover PDC topics.
package search

import (
	"sort"

	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/pmap"
	"carcs/internal/similarity"
	"carcs/internal/textproc"
)

// Engine indexes a set of materials for querying. Add materials, then query;
// the engine re-indexes incrementally on Add. Internals are persistent, so
// Snap produces a frozen copy in O(1) that shares structure with the live
// engine; every read method works identically on a snapshot.
type Engine struct {
	cs13  *ontology.Ontology
	pdc12 *ontology.Ontology
	// mats is copy-on-write: Add of a new id may append in place, but any
	// replacement or removal copies the slice, so a Snap taken earlier
	// (which capped the slice) never observes mutation.
	mats  []*material.Material
	byID  *pmap.Map[string, *material.Material]
	index *textproc.Index
	// positional enables exact-phrase and proximity queries.
	positional *textproc.PositionalIndex
	// speller powers "did you mean" corrections for free-text queries.
	speller *textproc.Speller
}

// NewEngine returns an engine bound to the two curriculum ontologies.
func NewEngine(cs13, pdc12 *ontology.Ontology) *Engine {
	return &Engine{
		cs13:       cs13,
		pdc12:      pdc12,
		byID:       pmap.NewStrings[*material.Material](),
		index:      textproc.NewIndex(),
		positional: textproc.NewPositionalIndex(),
		speller:    textproc.NewSpeller(),
	}
}

// Snap returns an immutable snapshot of the engine at its current version.
// The snapshot shares structure with the live engine; subsequent Add/Remove
// calls on the live engine do not affect it.
func (e *Engine) Snap() *Engine {
	cp := *e
	cp.mats = e.mats[:len(e.mats):len(e.mats)]
	cp.index = e.index.Snap()
	cp.positional = e.positional.Snap()
	cp.speller = e.speller.Snap()
	return &cp
}

// Add indexes a material; re-adding an ID replaces the previous version.
func (e *Engine) Add(m *material.Material) {
	e.AddTerms(m, textproc.Terms(m.SearchText()))
}

// AddTerms is Add for a material whose search text has already been
// analyzed: the engine maintains three term-keyed structures over the same
// text, and the commit pipeline's incremental models tokenize it too, so
// analyzing once per commit and sharing the term list saves four
// re-tokenizations per material. Re-adding an id first un-indexes and
// un-trains the stored version's terms.
func (e *Engine) AddTerms(m *material.Material, terms []string) {
	if old, exists := e.byID.Get(m.ID); exists {
		e.unindex(old.ID, textproc.Terms(old.SearchText()))
		e.swap(m)
	} else {
		e.mats = append(e.mats, m)
		e.byID = e.byID.Set(m.ID, m)
	}
	e.index.AddTerms(m.ID, terms)
	e.positional.AddTerms(m.ID, terms)
	e.speller.TrainTerms(terms)
}

// Replace swaps the stored material with m's id for m without touching the
// text indexes or the speller. It is the reclassify path: the search text
// (title, description, language, tags, datasets) excludes classifications,
// so a material whose classifications alone changed indexes exactly as
// before. m must carry the stored version's search text; an unknown id is
// a no-op.
func (e *Engine) Replace(m *material.Material) {
	if _, exists := e.byID.Get(m.ID); exists {
		e.swap(m)
	}
}

// swap replaces the stored material with m's id by m, copying mats so
// snapshots taken earlier keep the previous version.
func (e *Engine) swap(m *material.Material) {
	next := make([]*material.Material, len(e.mats))
	copy(next, e.mats)
	for i, old := range next {
		if old.ID == m.ID {
			next[i] = m
			break
		}
	}
	e.mats = next
	e.byID = e.byID.Set(m.ID, m)
}

// unindex drops a stored material's analyzed terms from the text indexes
// and the speller, touching only its own postings.
func (e *Engine) unindex(id string, terms []string) {
	e.index.RemoveTerms(id, terms)
	e.positional.RemoveTerms(id, terms)
	e.speller.ForgetTerms(terms)
}

// AddTermsBatch indexes a batch of materials with one builder session per
// underlying structure, equivalent to calling AddTerms for each pair in
// order. termLists[i] must be the analyzed terms of ms[i]. Replacements
// (re-added ids) fall back to the sequential path, which the batch commit
// pipeline never takes — it rejects duplicate ids up front.
func (e *Engine) AddTermsBatch(ms []*material.Material, termLists [][]string) {
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		if _, exists := e.byID.Get(m.ID); exists || seen[m.ID] {
			for i := range ms {
				e.AddTerms(ms[i], termLists[i])
			}
			return
		}
		seen[m.ID] = true
	}
	ids := make([]string, len(ms))
	bb := e.byID.Builder()
	for i, m := range ms {
		ids[i] = m.ID
		e.mats = append(e.mats, m)
		bb.Set(m.ID, m)
	}
	e.byID = bb.Map()
	e.index.AddTermsBatch(ids, termLists)
	e.positional.AddTermsBatch(ids, termLists)
	e.speller.TrainTermsBatch(termLists)
}

// Remove drops a material from the engine: its postings, its speller
// training and its stored pointer.
func (e *Engine) Remove(id string) {
	if m := e.Get(id); m != nil {
		e.RemoveTerms(id, textproc.Terms(m.SearchText()))
	}
}

// RemoveTerms is Remove for a material whose stored search text has
// already been analyzed; terms must be that analysis, the list AddTerms
// was given.
func (e *Engine) RemoveTerms(id string, terms []string) {
	if _, exists := e.byID.Get(id); !exists {
		return
	}
	e.unindex(id, terms)
	e.byID = e.byID.Delete(id)
	next := make([]*material.Material, 0, len(e.mats)-1)
	for _, m := range e.mats {
		if m.ID != id {
			next = append(next, m)
		}
	}
	e.mats = next
}

// Get returns the indexed material with the given id, or nil.
func (e *Engine) Get(id string) *material.Material { return e.byID.GetOr(id, nil) }

// Len returns the number of indexed materials.
func (e *Engine) Len() int { return len(e.mats) }

// All returns the indexed materials in insertion order (copy of the slice).
func (e *Engine) All() []*material.Material {
	out := make([]*material.Material, len(e.mats))
	copy(out, e.mats)
	return out
}

// Filter is a material predicate.
type Filter func(*material.Material) bool

// ByKind matches materials of the given kind.
func ByKind(k material.Kind) Filter {
	return func(m *material.Material) bool { return m.Kind == k }
}

// ByLevel matches materials at the given course level.
func ByLevel(l material.Level) Filter {
	return func(m *material.Material) bool { return m.Level == l }
}

// ByLanguage matches materials in the given programming language.
func ByLanguage(lang string) Filter {
	return func(m *material.Material) bool { return m.Language == lang }
}

// ByCollection matches materials from the named collection.
func ByCollection(name string) Filter {
	return func(m *material.Material) bool { return m.Collection == name }
}

// ByYearRange matches materials published in [from, to] inclusive; zero
// bounds are open.
func ByYearRange(from, to int) Filter {
	return func(m *material.Material) bool {
		if from != 0 && m.Year < from {
			return false
		}
		if to != 0 && m.Year > to {
			return false
		}
		return true
	}
}

// UsesDataset matches materials that use any real-world dataset (the CORGIS
// dimension), or a specific one when name is non-empty.
func UsesDataset(name string) Filter {
	return func(m *material.Material) bool {
		if name == "" {
			return len(m.Datasets) > 0
		}
		for _, d := range m.Datasets {
			if d == name {
				return true
			}
		}
		return false
	}
}

// InSubtree builds a filter matching materials classified anywhere inside
// the subtree rooted at nodeID of the given ontology.
func InSubtree(o *ontology.Ontology, nodeID string) Filter {
	return func(m *material.Material) bool { return m.ClassifiedIn(o, nodeID) }
}

// HasEntry matches materials classified exactly at the given entry.
func HasEntry(nodeID string) Filter {
	return func(m *material.Material) bool { return m.HasClassification(nodeID) }
}

// AllOf is the conjunction of filters; with none it matches everything.
func AllOf(fs ...Filter) Filter {
	return func(m *material.Material) bool {
		for _, f := range fs {
			if !f(m) {
				return false
			}
		}
		return true
	}
}

// AnyOf is the disjunction; with none it matches nothing.
func AnyOf(fs ...Filter) Filter {
	return func(m *material.Material) bool {
		for _, f := range fs {
			if f(m) {
				return true
			}
		}
		return false
	}
}

// Not negates a filter.
func Not(f Filter) Filter {
	return func(m *material.Material) bool { return !f(m) }
}

// Select returns the indexed materials matching the filter, in insertion
// order. A nil filter matches everything.
func (e *Engine) Select(f Filter) []*material.Material {
	var out []*material.Material
	for _, m := range e.mats {
		if f == nil || f(m) {
			out = append(out, m)
		}
	}
	return out
}

// Phrase returns the indexed materials containing the exact analyzed
// phrase, in insertion order.
func (e *Engine) Phrase(phrase string) []*material.Material {
	ids := e.positional.Phrase(phrase)
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return e.Select(func(m *material.Material) bool { return set[m.ID] })
}

// Hit is one ranked search result.
type Hit struct {
	Material *material.Material
	Score    float64
}

// Text runs ranked free-text search over titles, descriptions, tags, and
// dataset names; optional filters restrict the candidates. Returns the top
// k hits (k <= 0 for all).
func (e *Engine) Text(query string, k int, filters ...Filter) []Hit {
	f := AllOf(filters...)
	var out []Hit
	for _, s := range e.index.Search(query, 0) {
		m := e.byID.GetOr(s.ID, nil)
		if m == nil || !f(m) {
			continue
		}
		out = append(out, Hit{Material: m, Score: s.Score})
	}
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TextCorrected is Text with spelling assistance: when the raw query yields
// nothing, the engine corrects unknown terms against the indexed vocabulary
// and retries. The returned string is the corrected query when a correction
// was used ("did you mean"), empty otherwise.
func (e *Engine) TextCorrected(query string, k int, filters ...Filter) ([]Hit, string) {
	hits := e.Text(query, k, filters...)
	if len(hits) > 0 {
		return hits, ""
	}
	fixed, changed := e.speller.CorrectQuery(query, 2)
	if !changed {
		return hits, ""
	}
	return e.Text(fixed, k, filters...), fixed
}

// Known reports whether the word's analyzed form is in the vocabulary the
// "did you mean" corrections draw on.
func (e *Engine) Known(word string) bool { return e.speller.Known(word) }

// PDCCoverage reports whether the material covers any PDC content: a PDC12
// classification or a CS13 classification inside the PD area.
func (e *Engine) PDCCoverage(m *material.Material) bool {
	pdArea := e.cs13.AreaByCode("PD")
	for _, cl := range m.Classifications {
		if e.pdc12.Has(cl.NodeID) {
			return true
		}
		if pdArea != "" && e.cs13.Within(cl.NodeID, pdArea) {
			return true
		}
	}
	return false
}

// PDCReplacements implements the Sec. IV-D use case: given a (typically
// non-PDC) material, return indexed materials that share classification
// items with it AND cover PDC topics, ranked by shared count then rarity.
// This is the "replace a lecture on looping constructs with one that also
// includes parallel loops" query.
func (e *Engine) PDCReplacements(m *material.Material, minShared int, k int) []similarity.Edge {
	if minShared <= 0 {
		minShared = 2 // the paper's threshold
	}
	var candidates []*material.Material
	for _, c := range e.mats {
		if c.ID != m.ID && e.PDCCoverage(c) {
			candidates = append(candidates, c)
		}
	}
	edges := similarity.MostSimilar(m, candidates, similarity.SharedCount, 0)
	var out []similarity.Edge
	for _, ed := range edges {
		if int(ed.Score) >= minShared {
			out = append(out, ed)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].B < out[j].B
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// EntryUsage returns how often each classification entry is used across the
// indexed materials, for "understand how a topic or a learning outcome is
// typically covered" queries. Sorted by count descending, then ID.
type EntryCount struct {
	NodeID string
	Count  int
}

// EntryUsage tallies classification usage, optionally restricted to a
// subtree of one of the engine's ontologies (empty rootID for all entries).
func (e *Engine) EntryUsage(o *ontology.Ontology, rootID string) []EntryCount {
	counts := make(map[string]int)
	for _, m := range e.mats {
		for _, id := range m.ClassificationIDs() {
			if o != nil && !o.Has(id) {
				continue
			}
			if rootID != "" && !o.Within(id, rootID) {
				continue
			}
			counts[id]++
		}
	}
	out := make([]EntryCount, 0, len(counts))
	for id, n := range counts {
		out = append(out, EntryCount{NodeID: id, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].NodeID < out[j].NodeID
	})
	return out
}
