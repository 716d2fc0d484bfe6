// Package classify implements classification assistance for CAR-CS. The
// paper identifies manual classification as the bottleneck ("each item
// taking between 15-25 minutes to input and classify") and proposes two
// remedies as future work: suggesting classifications from material text,
// and recommending entries "commonly used together" once enough materials
// are classified. This package implements both, plus an evaluation harness
// (precision@k against the hand-curated corpus) so the remedies can be
// compared (experiments E8 and E11).
package classify

import (
	"sort"
	"sync"

	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/textproc"
)

// Suggestion is one proposed classification entry.
type Suggestion struct {
	// NodeID is the proposed ontology entry.
	NodeID string
	// Path is its display path.
	Path string
	// Score is suggester-specific; higher is better.
	Score float64
}

// Suggester proposes classification entries for a material description.
// It scores analyzed text — textproc.Terms output — so a caller tokenizes
// a document once and fans the term list across every engine and ontology.
type Suggester interface {
	// SuggestTerms returns up to k suggestions for the analyzed
	// (tokenized, stopped, stemmed) terms, best first.
	SuggestTerms(terms []string, k int) []Suggestion
	// Name identifies the suggester in reports.
	Name() string
}

// entryText renders an ontology entry as the text it is matched against:
// its label plus the labels of its ancestors, so "Data" deep inside
// Programming :: Performance Issues matches performance-related queries.
func entryText(o *ontology.Ontology, id string) string {
	return o.Path(id)
}

// ---------------------------------------------------------------------------
// Keyword matcher
// ---------------------------------------------------------------------------

// Keyword suggests entries by stemmed-term overlap between the text and the
// entry's path, normalized by entry length. It needs no training data.
type Keyword struct {
	o       *ontology.Ontology
	entries []string
	terms   map[string][]string // entry -> analyzed terms
}

// NewKeyword builds a keyword matcher over the classifiable entries of the
// ontology.
func NewKeyword(o *ontology.Ontology) *Keyword {
	k := &Keyword{o: o, terms: make(map[string][]string)}
	for _, id := range o.Classifiable() {
		k.entries = append(k.entries, id)
		k.terms[id] = textproc.Terms(entryText(o, id))
	}
	return k
}

// Name implements Suggester.
func (k *Keyword) Name() string { return "keyword" }

// SuggestTerms implements Suggester.
func (k *Keyword) SuggestTerms(qterms []string, limit int) []Suggestion {
	qset := make(map[string]bool)
	for _, t := range qterms {
		qset[t] = true
	}
	if len(qset) == 0 {
		return nil
	}
	var out []Suggestion
	for _, id := range k.entries {
		terms := k.terms[id]
		if len(terms) == 0 {
			continue
		}
		hits := 0
		seen := make(map[string]bool, len(terms))
		for _, t := range terms {
			if qset[t] && !seen[t] {
				seen[t] = true
				hits++
			}
		}
		if hits == 0 {
			continue
		}
		score := float64(hits) / float64(len(terms)+3)
		out = append(out, Suggestion{NodeID: id, Path: k.o.Path(id), Score: score})
	}
	return top(out, limit)
}

// ---------------------------------------------------------------------------
// TF-IDF suggester
// ---------------------------------------------------------------------------

// TFIDF suggests entries by cosine similarity between the text and TF-IDF
// vectors of entry paths, treating the ontology itself as the document
// corpus. Also training-free.
type TFIDF struct {
	o      *ontology.Ontology
	corpus *textproc.Corpus
}

// NewTFIDF builds the TF-IDF suggester over the classifiable entries.
func NewTFIDF(o *ontology.Ontology) *TFIDF {
	c := textproc.NewCorpus()
	for _, id := range o.Classifiable() {
		c.Add(id, entryText(o, id))
	}
	c.Finalize()
	return &TFIDF{o: o, corpus: c}
}

// Name implements Suggester.
func (t *TFIDF) Name() string { return "tfidf" }

// SuggestTerms implements Suggester.
func (t *TFIDF) SuggestTerms(terms []string, limit int) []Suggestion {
	var out []Suggestion
	for _, s := range t.corpus.Similar(t.corpus.QueryTerms(terms), limit) {
		out = append(out, Suggestion{NodeID: s.ID, Path: t.o.Path(s.ID), Score: s.Score})
	}
	return out
}

// ---------------------------------------------------------------------------
// shared instances
// ---------------------------------------------------------------------------

// The keyword and TF-IDF suggesters are training-free — their entire state is
// derived from the ontology at construction and never mutated afterwards
// (SuggestTerms only reads) — and the curriculum ontologies are process-wide
// singletons. Rebuilding them for every System is therefore pure waste: the
// TF-IDF corpus alone tokenizes and vectorizes every classifiable entry path,
// which dominated System construction in ingest profiles. Shared* memoizes
// one instance per ontology for the life of the process.
var (
	sharedMu      sync.Mutex
	sharedKeyword = map[*ontology.Ontology]*Keyword{}
	sharedTFIDF   = map[*ontology.Ontology]*TFIDF{}
)

// SharedKeyword returns a process-wide cached NewKeyword(o). The result is
// safe for concurrent use; callers must not mutate it.
func SharedKeyword(o *ontology.Ontology) *Keyword {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	k, ok := sharedKeyword[o]
	if !ok {
		k = NewKeyword(o)
		sharedKeyword[o] = k
	}
	return k
}

// SharedTFIDF returns a process-wide cached NewTFIDF(o). The result is safe
// for concurrent use; callers must not mutate it.
func SharedTFIDF(o *ontology.Ontology) *TFIDF {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	t, ok := sharedTFIDF[o]
	if !ok {
		t = NewTFIDF(o)
		sharedTFIDF[o] = t
	}
	return t
}

// ---------------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------------

func top(s []Suggestion, k int) []Suggestion {
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Score != s[j].Score {
			return s[i].Score > s[j].Score
		}
		return s[i].NodeID < s[j].NodeID
	})
	if k > 0 && len(s) > k {
		s = s[:k]
	}
	return s
}

// SuggestForMaterial runs a suggester over a material's search text.
func SuggestForMaterial(s Suggester, m *material.Material, k int) []Suggestion {
	return s.SuggestTerms(textproc.Terms(m.SearchText()), k)
}
