package textproc

import (
	"math"
	"sort"

	"carcs/internal/pmap"
)

// Index is an inverted index from analyzed terms to document ids, with
// per-document term frequencies. It backs the free-text search endpoint of
// the reproduction's web service.
//
// The postings are persistent maps, so Snap captures an immutable snapshot
// in O(1); mutations on the live index path-copy only the postings they
// touch and never disturb a snapshot taken earlier.
type Index struct {
	postings *pmap.Map[string, *pmap.Map[string, int]] // term -> doc id -> tf
	lengths  *pmap.Map[string, int]                    // doc id -> token count
	n        int
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		postings: pmap.NewStrings[*pmap.Map[string, int]](),
		lengths:  pmap.NewStrings[int](),
	}
}

// Snap returns an immutable snapshot of the index: a frozen copy sharing
// all structure with the receiver. Snapshots must not be mutated; reads on
// them are safe concurrently with mutations of the live index.
func (ix *Index) Snap() *Index {
	cp := *ix
	return &cp
}

// Add indexes text under the document id, replacing any previous content for
// the same id.
func (ix *Index) Add(id, text string) { ix.AddTerms(id, Terms(text)) }

// AddTerms is Add for already-analyzed terms, so callers maintaining several
// indexes over the same text (the search engine, on every commit) analyze it
// once and share the term list.
func (ix *Index) AddTerms(id string, terms []string) {
	if _, ok := ix.lengths.Get(id); ok {
		ix.Remove(id)
	}
	ix.lengths = ix.lengths.Set(id, len(terms))
	ix.n++
	// One document touches many terms; a transient builder copies each
	// near-root trie node once for the whole batch instead of once per term.
	b := ix.postings.Builder()
	for t, tf := range CountTerms(terms) {
		inner := b.GetOr(t, nil)
		if inner == nil {
			inner = pmap.NewStrings[int]()
		}
		b.Set(t, inner.Set(id, tf))
	}
	ix.postings = b.Map()
}

// AddTermsBatch indexes many documents in one builder session, equivalent to
// calling AddTerms for each (id, terms) pair in order. The batch commit path
// uses it: postings trie nodes touched by several documents are copied once
// for the whole batch instead of once per document, which is where most of
// the per-record indexing cost went.
func (ix *Index) AddTermsBatch(ids []string, termLists [][]string) {
	lb := ix.lengths.Builder()
	b := ix.postings.Builder()
	// Per-term posting builders stay open across the whole batch: a term
	// occurring in many of the batch's documents copies its posting-list
	// nodes once, not once per document.
	inner := make(map[string]*pmap.Builder[string, int])
	seal := func() {
		for t, pb := range inner {
			b.Set(t, pb.Map())
		}
		clear(inner)
		ix.lengths = lb.Map()
		ix.postings = b.Map()
	}
	for i, id := range ids {
		terms := termLists[i]
		if _, ok := lb.Get(id); ok {
			// Replacement needs the full Remove walk; seal the session,
			// take the sequential route for this document, and re-open.
			seal()
			ix.AddTerms(id, terms)
			lb = ix.lengths.Builder()
			b = ix.postings.Builder()
			continue
		}
		lb.Set(id, len(terms))
		ix.n++
		for t, tf := range CountTerms(terms) {
			pb := inner[t]
			if pb == nil {
				m := b.GetOr(t, nil)
				if m == nil {
					m = pmap.NewStrings[int]()
				}
				pb = m.Builder()
				inner[t] = pb
			}
			pb.Set(id, tf)
		}
	}
	seal()
}

// Remove deletes a document from the index; unknown ids are a no-op. It
// walks the whole vocabulary to find the document's terms; a caller that
// still has them should use RemoveTerms.
func (ix *Index) Remove(id string) { ix.RemoveTerms(id, docTerms(ix.postings, id)) }

// RemoveTerms deletes a document whose analyzed terms are known, touching
// only those terms' postings: O(document terms), not O(vocabulary). terms
// must be the terms the document was indexed with (in any order, repeats
// allowed); unknown ids are a no-op.
func (ix *Index) RemoveTerms(id string, terms []string) {
	if _, ok := ix.lengths.Get(id); !ok {
		return
	}
	ix.lengths = ix.lengths.Delete(id)
	ix.n--
	ix.postings = dropPostings(ix.postings, id, terms)
}

// docTerms lists the terms whose postings hold id, walking the whole
// vocabulary.
func docTerms[P any](postings *pmap.Map[string, *pmap.Map[string, P]], id string) []string {
	var terms []string
	postings.Range(func(t string, inner *pmap.Map[string, P]) bool {
		if _, ok := inner.Get(id); ok {
			terms = append(terms, t)
		}
		return true
	})
	return terms
}

// dropPostings removes id from each term's posting map, dropping terms left
// with no document, through one builder session.
func dropPostings[P any](postings *pmap.Map[string, *pmap.Map[string, P]], id string, terms []string) *pmap.Map[string, *pmap.Map[string, P]] {
	b := postings.Builder()
	for _, t := range terms {
		inner := b.GetOr(t, nil)
		if inner == nil {
			continue
		}
		if _, ok := inner.Get(id); !ok {
			continue
		}
		if next := inner.Delete(id); next.Len() == 0 {
			b.Delete(t)
		} else {
			b.Set(t, next)
		}
	}
	return b.Map()
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return ix.n }

// Search scores documents against the query with a TF-IDF sum (lnc-style),
// returning the top k best-first; k <= 0 returns all matches. Documents must
// contain at least one query term to appear.
func (ix *Index) Search(query string, k int) []Scored {
	qterms := Terms(query)
	if len(qterms) == 0 {
		return nil
	}
	// Query terms are summed in sorted order: float addition is not
	// associative, so map order would let equal indexes score a document
	// differently in the last bit.
	counts := CountTerms(qterms)
	uniq := make([]string, 0, len(counts))
	for qt := range counts {
		uniq = append(uniq, qt)
	}
	sort.Strings(uniq)
	scores := make(map[string]float64)
	for _, qt := range uniq {
		qtf := counts[qt]
		m := ix.postings.GetOr(qt, nil)
		if m.Len() == 0 {
			continue
		}
		idf := idfOf(ix.n, m.Len())
		m.Range(func(id string, tf int) bool {
			norm := float64(ix.lengths.GetOr(id, 0))
			if norm == 0 {
				norm = 1
			}
			scores[id] += float64(qtf) * idf * (1 + logf(tf)) / norm
			return true
		})
	}
	if len(scores) == 0 {
		return nil
	}
	out := make([]Scored, 0, len(scores))
	for id, s := range scores {
		out = append(out, Scored{ID: id, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// SearchAll returns the ids of documents containing every query term.
func (ix *Index) SearchAll(query string) []string {
	qterms := Terms(query)
	if len(qterms) == 0 {
		return nil
	}
	var candidate map[string]bool
	for _, qt := range qterms {
		m := ix.postings.GetOr(qt, nil)
		if m.Len() == 0 {
			return nil
		}
		next := make(map[string]bool, m.Len())
		m.Range(func(id string, _ int) bool {
			if candidate == nil || candidate[id] {
				next[id] = true
			}
			return true
		})
		candidate = next
		if len(candidate) == 0 {
			return nil
		}
	}
	out := make([]string, 0, len(candidate))
	for id := range candidate {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func idfOf(n, df int) float64 {
	return math.Log((float64(n)+1)/(float64(df)+1)) + 1
}

func logf(tf int) float64 {
	return math.Log(float64(tf))
}
