package textproc

import (
	"sort"

	"carcs/internal/pmap"
)

// Speller suggests corrections for misspelled query terms against a learned
// vocabulary — the "did you mean" assist for free-text search, so "paralell
// sortng" still finds the parallel sorting materials. The vocabulary is a
// persistent map, so Snap captures an immutable snapshot in O(1).
type Speller struct {
	// freq counts how often each analyzed term occurred in training text.
	freq *pmap.Map[string, int]
}

// NewSpeller returns an empty speller.
func NewSpeller() *Speller {
	return &Speller{freq: pmap.NewStrings[int]()}
}

// Snap returns an immutable snapshot sharing the vocabulary with the
// receiver; see Index.Snap.
func (s *Speller) Snap() *Speller {
	cp := *s
	return &cp
}

// Train adds the analyzed terms of the text to the vocabulary.
func (s *Speller) Train(text string) { s.TrainTerms(Terms(text)) }

// TrainTerms is Train for already-analyzed terms; see Index.AddTerms.
func (s *Speller) TrainTerms(terms []string) {
	b := s.freq.Builder()
	for _, t := range terms {
		b.Set(t, b.GetOr(t, 0)+1)
	}
	s.freq = b.Map()
}

// TrainTermsBatch trains on many term lists in one builder session,
// equivalent to calling TrainTerms for each in order; see Index.AddTermsBatch.
func (s *Speller) TrainTermsBatch(termLists [][]string) {
	b := s.freq.Builder()
	for _, terms := range termLists {
		for _, t := range terms {
			b.Set(t, b.GetOr(t, 0)+1)
		}
	}
	s.freq = b.Map()
}

// ForgetTerms removes one training occurrence of each analyzed term,
// dropping terms whose count reaches zero. Passing exactly the terms that
// were trained undoes that training.
func (s *Speller) ForgetTerms(terms []string) {
	b := s.freq.Builder()
	for _, t := range terms {
		switch f := b.GetOr(t, 0); {
		case f > 1:
			b.Set(t, f-1)
		case f == 1:
			b.Delete(t)
		}
	}
	s.freq = b.Map()
}

// Known reports whether the analyzed form of the word is in the vocabulary.
func (s *Speller) Known(word string) bool {
	return s.freq.GetOr(Stem(word), 0) > 0
}

// Correct returns the most frequent vocabulary term within edit distance
// maxDist of the word's analyzed form, or "" when none qualifies. The input
// itself is returned unchanged when already known.
func (s *Speller) Correct(word string, maxDist int) string {
	w := Stem(word)
	if s.freq.GetOr(w, 0) > 0 {
		return w
	}
	best, bestFreq, bestDist := "", 0, maxDist+1
	s.freq.Range(func(v string, f int) bool {
		// Cheap length bound before the DP.
		d := len(v) - len(w)
		if d < 0 {
			d = -d
		}
		if d > maxDist {
			return true
		}
		dist := editDistance(w, v, maxDist)
		if dist > maxDist {
			return true
		}
		if dist < bestDist || (dist == bestDist && f > bestFreq) ||
			(dist == bestDist && f == bestFreq && (best == "" || v < best)) {
			best, bestFreq, bestDist = v, f, dist
		}
		return true
	})
	return best
}

// CorrectQuery rewrites a query term by term, keeping known terms and
// substituting the best correction for unknown ones; terms with no
// correction survive unchanged. The second result reports whether anything
// changed.
func (s *Speller) CorrectQuery(query string, maxDist int) (string, bool) {
	toks := Tokenize(query)
	changed := false
	out := make([]string, 0, len(toks))
	for _, tok := range toks {
		if IsStopword(tok) || len(tok) <= 2 || s.Known(tok) {
			out = append(out, tok)
			continue
		}
		if fix := s.Correct(tok, maxDist); fix != "" {
			out = append(out, fix)
			changed = true
			continue
		}
		out = append(out, tok)
	}
	return join(out), changed
}

// Vocabulary returns the terms sorted by descending frequency then
// alphabetically; mostly for diagnostics and tests.
func (s *Speller) Vocabulary() []string {
	out := make([]string, 0, s.freq.Len())
	s.freq.Range(func(t string, _ int) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		fi, fj := s.freq.GetOr(out[i], 0), s.freq.GetOr(out[j], 0)
		if fi != fj {
			return fi > fj
		}
		return out[i] < out[j]
	})
	return out
}

// editDistance computes Levenshtein distance with early exit once the
// distance provably exceeds bound.
func editDistance(a, b string, bound int) int {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1 // deletion
			if v := cur[j-1] + 1; v < m {
				m = v // insertion
			}
			if v := prev[j-1] + cost; v < m {
				m = v // substitution
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > bound {
			return bound + 1
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func join(toks []string) string {
	n := 0
	for _, t := range toks {
		n += len(t) + 1
	}
	b := make([]byte, 0, n)
	for i, t := range toks {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, t...)
	}
	return string(b)
}
