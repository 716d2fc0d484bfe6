package textproc

import (
	"math"
	"sort"
)

// Vector is a sparse term-weight vector.
type Vector map[string]float64

// Norm returns the Euclidean norm of the vector. It sums in sorted term
// order, so the same vector has bit-for-bit the same norm on every call;
// map order would move the last bits of every score divided by it.
func (v Vector) Norm() float64 {
	terms := make([]string, 0, len(v))
	for t := range v {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	var s float64
	for _, t := range terms {
		s += v[t] * v[t]
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of two sparse vectors, in [0, 1] for
// non-negative weights; either vector being empty yields 0.
func Cosine(a, b Vector) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	var dot float64
	for t, wa := range a {
		if wb, ok := b[t]; ok {
			dot += wa * wb
		}
	}
	if dot == 0 {
		return 0
	}
	return dot / (a.Norm() * b.Norm())
}

// Jaccard returns |A ∩ B| / |A ∪ B| over the term sets of two vectors; two
// empty vectors yield 0.
func Jaccard(a, b Vector) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for t := range a {
		if _, ok := b[t]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// Corpus builds TF-IDF vectors over a set of documents identified by string
// keys. Add all documents, then call Finalize before querying; Vector and
// Similar panic if called earlier.
type Corpus struct {
	docs      map[string][]string // id -> analyzed terms
	df        map[string]int      // term -> number of docs containing it
	idf       map[string]float64
	vecs      map[string]Vector
	norms     map[string]float64   // id -> Euclidean norm, fixed at Finalize
	postings  map[string][]posting // term -> docs containing it, sorted by id
	finalized bool
}

// posting is one inverted-index entry: a document containing the term and
// the term's weight in that document's vector.
type posting struct {
	id string
	w  float64
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{
		docs: make(map[string][]string),
		df:   make(map[string]int),
	}
}

// Add analyzes text (tokenize, stop, stem) and registers it under id,
// replacing any previous document with the same id.
func (c *Corpus) Add(id, text string) {
	if c.finalized {
		panic("textproc: Add after Finalize")
	}
	if old, ok := c.docs[id]; ok {
		for t := range CountTerms(old) {
			c.df[t]--
			if c.df[t] == 0 {
				delete(c.df, t)
			}
		}
	}
	terms := Terms(text)
	c.docs[id] = terms
	for t := range CountTerms(terms) {
		c.df[t]++
	}
}

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.docs) }

// Finalize computes IDF weights and document vectors. Idempotent.
func (c *Corpus) Finalize() {
	if c.finalized {
		return
	}
	n := float64(len(c.docs))
	c.idf = make(map[string]float64, len(c.df))
	for t, df := range c.df {
		// Smoothed IDF keeps terms present in every document from
		// vanishing entirely, which matters for tiny corpora such as
		// the 11 Peachy assignments.
		c.idf[t] = math.Log((n+1)/(float64(df)+1)) + 1
	}
	c.vecs = make(map[string]Vector, len(c.docs))
	for id, terms := range c.docs {
		c.vecs[id] = c.vectorize(terms)
	}
	// Precompute per-document norms and the inverted index so Similar costs
	// O(matching postings), not a full scan recomputing every norm — the
	// difference between ~3000 cosine evaluations per query over the CS13
	// entry corpus and a few dozen posting-list walks.
	c.norms = make(map[string]float64, len(c.vecs))
	c.postings = make(map[string][]posting, len(c.df))
	for id, v := range c.vecs {
		c.norms[id] = v.Norm()
		for t, w := range v {
			c.postings[t] = append(c.postings[t], posting{id: id, w: w})
		}
	}
	for _, ps := range c.postings {
		sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	}
	c.finalized = true
}

func (c *Corpus) vectorize(terms []string) Vector {
	tf := CountTerms(terms)
	v := make(Vector, len(tf))
	if len(terms) == 0 {
		return v
	}
	for t, n := range tf {
		idf, ok := c.idf[t]
		if !ok {
			idf = math.Log(float64(len(c.docs))+1) + 1 // unseen term
		}
		v[t] = (1 + math.Log(float64(n))) * idf
	}
	return v
}

// Vector returns the TF-IDF vector of a registered document, or nil for an
// unknown id.
func (c *Corpus) Vector(id string) Vector {
	c.mustFinal()
	return c.vecs[id]
}

// Query vectorizes ad-hoc text against the corpus IDF table.
func (c *Corpus) Query(text string) Vector {
	c.mustFinal()
	return c.vectorize(Terms(text))
}

// QueryTerms vectorizes already-analyzed terms against the corpus IDF
// table, so bulk pipelines that tokenize a document once can query several
// corpora without re-analyzing.
func (c *Corpus) QueryTerms(terms []string) Vector {
	c.mustFinal()
	return c.vectorize(terms)
}

// Scored pairs a document id with a similarity score.
type Scored struct {
	ID    string
	Score float64
}

// Similar returns the k documents most cosine-similar to the query vector,
// best first, excluding zero scores. k <= 0 returns all matches. Scoring
// walks the inverted index — only documents sharing a term with the query
// are touched — and iterates query terms in sorted order so each document's
// dot product accumulates identically on every run and every node.
func (c *Corpus) Similar(q Vector, k int) []Scored {
	c.mustFinal()
	if len(q) == 0 {
		return nil
	}
	qn := q.Norm()
	if qn == 0 {
		return nil
	}
	terms := make([]string, 0, len(q))
	for t := range q {
		if _, ok := c.postings[t]; ok {
			terms = append(terms, t)
		}
	}
	sort.Strings(terms)
	dots := make(map[string]float64, 64)
	for _, t := range terms {
		wq := q[t]
		for _, p := range c.postings[t] {
			dots[p.id] += wq * p.w
		}
	}
	out := make([]Scored, 0, len(dots))
	for id, dot := range dots {
		if dot > 0 {
			out = append(out, Scored{ID: id, Score: dot / (qn * c.norms[id])})
		}
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

// IDF returns the inverse document frequency of an analyzed term (after
// stemming); unknown terms return 0.
func (c *Corpus) IDF(term string) float64 {
	c.mustFinal()
	return c.idf[term]
}

func (c *Corpus) mustFinal() {
	if !c.finalized {
		panic("textproc: corpus not finalized")
	}
}
