package textproc

import (
	"sort"

	"carcs/internal/pmap"
)

// PositionalIndex is an inverted index that also records token positions,
// enabling exact phrase queries ("monte carlo", "data race") on top of the
// bag-of-words ranking the plain Index provides. Like Index, its postings
// are persistent maps: Snap is O(1) and snapshots are immune to later
// mutations. Stored position slices are written once at Add time and never
// modified afterwards.
type PositionalIndex struct {
	postings *pmap.Map[string, *pmap.Map[string, []int]] // term -> doc -> sorted positions
	docs     *pmap.Map[string, int]                      // doc -> analyzed length
}

// NewPositionalIndex returns an empty positional index.
func NewPositionalIndex() *PositionalIndex {
	return &PositionalIndex{
		postings: pmap.NewStrings[*pmap.Map[string, []int]](),
		docs:     pmap.NewStrings[int](),
	}
}

// Snap returns an immutable snapshot sharing all structure with the
// receiver; see Index.Snap.
func (ix *PositionalIndex) Snap() *PositionalIndex {
	cp := *ix
	return &cp
}

// Add indexes text under id, replacing any previous content.
func (ix *PositionalIndex) Add(id, text string) { ix.AddTerms(id, Terms(text)) }

// AddTerms is Add for already-analyzed terms; see Index.AddTerms.
func (ix *PositionalIndex) AddTerms(id string, terms []string) {
	if _, ok := ix.docs.Get(id); ok {
		ix.Remove(id)
	}
	ix.docs = ix.docs.Set(id, len(terms))
	// Collect each term's positions fully before storing, so the slice in
	// the index is never appended to after publication.
	byTerm := make(map[string][]int)
	for pos, t := range terms {
		byTerm[t] = append(byTerm[t], pos)
	}
	b := ix.postings.Builder()
	for t, positions := range byTerm {
		inner := b.GetOr(t, nil)
		if inner == nil {
			inner = pmap.NewStrings[[]int]()
		}
		b.Set(t, inner.Set(id, positions))
	}
	ix.postings = b.Map()
}

// AddTermsBatch indexes many documents in one builder session; see
// Index.AddTermsBatch. Equivalent to calling AddTerms for each pair in order.
func (ix *PositionalIndex) AddTermsBatch(ids []string, termLists [][]string) {
	db := ix.docs.Builder()
	b := ix.postings.Builder()
	inner := make(map[string]*pmap.Builder[string, []int])
	seal := func() {
		for t, pb := range inner {
			b.Set(t, pb.Map())
		}
		clear(inner)
		ix.docs = db.Map()
		ix.postings = b.Map()
	}
	for i, id := range ids {
		terms := termLists[i]
		if _, ok := db.Get(id); ok {
			seal()
			ix.AddTerms(id, terms)
			db = ix.docs.Builder()
			b = ix.postings.Builder()
			continue
		}
		db.Set(id, len(terms))
		byTerm := make(map[string][]int)
		for pos, t := range terms {
			byTerm[t] = append(byTerm[t], pos)
		}
		for t, positions := range byTerm {
			pb := inner[t]
			if pb == nil {
				m := b.GetOr(t, nil)
				if m == nil {
					m = pmap.NewStrings[[]int]()
				}
				pb = m.Builder()
				inner[t] = pb
			}
			pb.Set(id, positions)
		}
	}
	seal()
}

// Remove drops a document, walking the whole vocabulary; see
// Index.Remove.
func (ix *PositionalIndex) Remove(id string) { ix.RemoveTerms(id, docTerms(ix.postings, id)) }

// RemoveTerms drops a document whose analyzed terms are known, in
// O(document terms); see Index.RemoveTerms.
func (ix *PositionalIndex) RemoveTerms(id string, terms []string) {
	if _, ok := ix.docs.Get(id); !ok {
		return
	}
	ix.docs = ix.docs.Delete(id)
	ix.postings = dropPostings(ix.postings, id, terms)
}

// Len returns the number of indexed documents.
func (ix *PositionalIndex) Len() int { return ix.docs.Len() }

// positionsOf returns the recorded positions of term in doc id.
func (ix *PositionalIndex) positionsOf(term, id string) []int {
	inner := ix.postings.GetOr(term, nil)
	if inner == nil {
		return nil
	}
	return inner.GetOr(id, nil)
}

// Phrase returns the sorted ids of documents containing the exact analyzed
// phrase (stop words removed, terms stemmed — so "monte carlo methods"
// matches "Monte Carlo method"). Empty or all-stopword phrases return nil.
func (ix *PositionalIndex) Phrase(phrase string) []string {
	terms := Terms(phrase)
	if len(terms) == 0 {
		return nil
	}
	// Candidate docs must contain every term.
	first := ix.postings.GetOr(terms[0], nil)
	if first.Len() == 0 {
		return nil
	}
	var out []string
	first.Range(func(id string, basePositions []int) bool {
		// For each start position of the first term, check the rest
		// follow consecutively.
		for _, p := range basePositions {
			ok := true
			for off := 1; off < len(terms); off++ {
				if !contains(ix.positionsOf(terms[off], id), p+off) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, id)
				break
			}
		}
		return true
	})
	sort.Strings(out)
	return out
}

// Near returns the sorted ids of documents where all the phrase's terms
// occur within a window of the given size (in analyzed-token positions),
// in any order. window < len(terms) always yields nil.
func (ix *PositionalIndex) Near(phrase string, window int) []string {
	terms := Terms(phrase)
	if len(terms) == 0 || window < len(terms) {
		return nil
	}
	// Candidates: docs containing all terms.
	candidate := map[string]bool{}
	for i, t := range terms {
		m := ix.postings.GetOr(t, nil)
		if m.Len() == 0 {
			return nil
		}
		next := map[string]bool{}
		prev := candidate
		first := i == 0
		m.Range(func(id string, _ []int) bool {
			if first || prev[id] {
				next[id] = true
			}
			return true
		})
		candidate = next
	}
	var out []string
	for id := range candidate {
		// Merge all positions tagged by term, then slide the window.
		type tagged struct{ pos, term int }
		var all []tagged
		for ti, t := range terms {
			for _, p := range ix.positionsOf(t, id) {
				all = append(all, tagged{p, ti})
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
		count := make([]int, len(terms))
		have := 0
		lo := 0
		for hi := 0; hi < len(all); hi++ {
			if count[all[hi].term] == 0 {
				have++
			}
			count[all[hi].term]++
			for all[hi].pos-all[lo].pos >= window {
				count[all[lo].term]--
				if count[all[lo].term] == 0 {
					have--
				}
				lo++
			}
			if have == len(terms) {
				out = append(out, id)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// contains reports whether the sorted ints include x.
func contains(sortedInts []int, x int) bool {
	i := sort.SearchInts(sortedInts, x)
	return i < len(sortedInts) && sortedInts[i] == x
}
