package classify

import (
	"math"

	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/pmap"
	"carcs/internal/textproc"
)

// Bayes is a multinomial naive Bayes suggester trained on already-classified
// materials: each ontology entry is a class whose training text is the
// concatenation of the texts of materials tagged with it. Once enough
// materials are classified, it learns corpus-specific vocabulary (e.g. that
// "OpenMP" signals the compiler-pragmas entry) that the training-free
// suggesters cannot. Counts live in persistent maps, so Snap freezes the
// model in O(1) and reads work identically on live models and snapshots.
type Bayes struct {
	o *ontology.Ontology
	// termCounts[entry][term] = occurrences in the entry's training text.
	termCounts *pmap.Map[string, *pmap.Map[string, int]]
	totalTerms *pmap.Map[string, int]
	docCount   *pmap.Map[string, int]
	trained    int
	// vocab reference-counts term occurrences across all classes so that
	// Forget can shrink the vocabulary exactly when a term's last
	// occurrence leaves the model.
	vocab *pmap.Map[string, int]
}

// NewBayes returns an untrained model bound to the ontology.
func NewBayes(o *ontology.Ontology) *Bayes {
	return &Bayes{
		o:          o,
		termCounts: pmap.NewStrings[*pmap.Map[string, int]](),
		totalTerms: pmap.NewStrings[int](),
		docCount:   pmap.NewStrings[int](),
		vocab:      pmap.NewStrings[int](),
	}
}

// Name implements Suggester.
func (b *Bayes) Name() string { return "naive-bayes" }

// Snap returns an immutable snapshot of the model at its current version;
// later Observe/Forget calls on the live model do not affect it.
func (b *Bayes) Snap() *Bayes {
	cp := *b
	return &cp
}

// Train adds one classified material to the model. Classifications outside
// the model's ontology are ignored.
func (b *Bayes) Train(m *material.Material) {
	b.TrainTerms(m, textproc.Terms(m.SearchText()))
}

// TrainTerms is Train for a material whose search text is already analyzed,
// so the commit pipeline — which feeds one Bayes model per ontology plus the
// search indexes from the same text — tokenizes it once and shares the list.
func (b *Bayes) TrainTerms(m *material.Material, terms []string) {
	trained := false
	// Builders amortize the path copying across the material's whole term
	// list; see pmap.Builder.
	vb := b.vocab.Builder()
	for _, id := range m.ClassificationIDs() {
		if !b.o.Has(id) {
			continue
		}
		trained = true
		b.docCount = b.docCount.Set(id, b.docCount.GetOr(id, 0)+1)
		tc := b.termCounts.GetOr(id, nil)
		if tc == nil {
			tc = pmap.NewStrings[int]()
		}
		tb := tc.Builder()
		for _, t := range terms {
			tb.Set(t, tb.GetOr(t, 0)+1)
			vb.Set(t, vb.GetOr(t, 0)+1)
		}
		b.termCounts = b.termCounts.Set(id, tb.Map())
		b.totalTerms = b.totalTerms.Set(id, b.totalTerms.GetOr(id, 0)+len(terms))
	}
	b.vocab = vb.Map()
	if trained {
		b.trained++
	}
}

// TrainTermsBatch trains on a batch of materials in one builder session per
// count structure, equivalent to calling TrainTerms for each pair in order.
// termLists[i] must be the analyzed terms of ms[i]. Entries shared by many
// materials in the batch — the common case for a themed import — keep one
// open term-count builder across the whole batch, so their trie nodes are
// copied once instead of once per material. Each material's terms are
// counted once, so every class's counts and the vocabulary move once per
// distinct term rather than once per occurrence.
func (b *Bayes) TrainTermsBatch(ms []*material.Material, termLists [][]string) {
	vb := b.vocab.Builder()
	db := b.docCount.Builder()
	ttb := b.totalTerms.Builder()
	tcb := b.termCounts.Builder()
	inner := make(map[string]*pmap.Builder[string, int])
	for i, m := range ms {
		terms := termLists[i]
		var counts map[string]int
		classes := 0
		for _, id := range m.ClassificationIDs() {
			if !b.o.Has(id) {
				continue
			}
			classes++
			if counts == nil {
				counts = textproc.CountTerms(terms)
			}
			db.Set(id, db.GetOr(id, 0)+1)
			tb := inner[id]
			if tb == nil {
				tc := tcb.GetOr(id, nil)
				if tc == nil {
					tc = pmap.NewStrings[int]()
				}
				tb = tc.Builder()
				inner[id] = tb
			}
			for t, c := range counts {
				tb.Set(t, tb.GetOr(t, 0)+c)
			}
			ttb.Set(id, ttb.GetOr(id, 0)+len(terms))
		}
		if classes == 0 {
			continue
		}
		for t, c := range counts {
			vb.Set(t, vb.GetOr(t, 0)+c*classes)
		}
		b.trained++
	}
	for id, tb := range inner {
		tcb.Set(id, tb.Map())
	}
	b.termCounts = tcb.Map()
	b.docCount = db.Map()
	b.totalTerms = ttb.Map()
	b.vocab = vb.Map()
}

// Observe is Train under the name the incremental-maintenance interfaces
// use: the model absorbs one material in O(len(terms) × classifications)
// without a corpus rescan.
func (b *Bayes) Observe(m *material.Material) { b.Train(m) }

// ObserveTerms is Observe with pre-analyzed terms; see TrainTerms.
func (b *Bayes) ObserveTerms(m *material.Material, terms []string) { b.TrainTerms(m, terms) }

// Forget removes a previously trained material from the model — the exact
// inverse of Train, so add/remove/reclassify flows can keep a long-lived
// model current instead of retraining from scratch. Forgetting a material
// that was never trained (or whose text changed since) corrupts the counts;
// callers must pass the same material value they trained.
func (b *Bayes) Forget(m *material.Material) { b.ForgetTerms(m, textproc.Terms(m.SearchText())) }

// ForgetTerms is Forget with pre-analyzed terms: terms must be the analyzed
// search text of m, the list TrainTerms was given.
func (b *Bayes) ForgetTerms(m *material.Material, terms []string) {
	forgot := false
	vb := b.vocab.Builder()
	for _, id := range m.ClassificationIDs() {
		if !b.o.Has(id) {
			continue
		}
		forgot = true
		b.docCount = b.docCount.Set(id, b.docCount.GetOr(id, 0)-1)
		tc := b.termCounts.GetOr(id, nil)
		var tb *pmap.Builder[string, int]
		if tc != nil {
			tb = tc.Builder()
		}
		for _, t := range terms {
			if tb != nil {
				if n := tb.GetOr(t, 0) - 1; n <= 0 {
					tb.Delete(t)
				} else {
					tb.Set(t, n)
				}
			}
			if n := vb.GetOr(t, 0) - 1; n <= 0 {
				vb.Delete(t)
			} else {
				vb.Set(t, n)
			}
		}
		if tb != nil {
			b.termCounts = b.termCounts.Set(id, tb.Map())
		}
		b.totalTerms = b.totalTerms.Set(id, b.totalTerms.GetOr(id, 0)-len(terms))
		if b.docCount.GetOr(id, 0) <= 0 {
			b.docCount = b.docCount.Delete(id)
			b.termCounts = b.termCounts.Delete(id)
			b.totalTerms = b.totalTerms.Delete(id)
		}
	}
	b.vocab = vb.Map()
	if forgot && b.trained > 0 {
		b.trained--
	}
}

// TrainAll trains on a whole collection.
func (b *Bayes) TrainAll(mats []*material.Material) {
	for _, m := range mats {
		b.Train(m)
	}
}

// Trained returns the number of training materials seen.
func (b *Bayes) Trained() int { return b.trained }

// SuggestTerms implements Suggester: it scores every entry with training
// data by log P(entry) + Σ log P(term|entry) with Laplace smoothing, and
// returns the top k as suggestions. Scores are shifted so the best
// suggestion has score 1 and others fall off exponentially (comparable
// across queries).
func (b *Bayes) SuggestTerms(terms []string, k int) []Suggestion {
	if b.trained == 0 || len(terms) == 0 {
		return nil
	}
	v := float64(b.vocab.Len() + 1)
	var out []Suggestion
	var best float64
	first := true
	b.termCounts.Range(func(id string, tc *pmap.Map[string, int]) bool {
		logp := math.Log(float64(b.docCount.GetOr(id, 0)) / float64(b.trained))
		denom := float64(b.totalTerms.GetOr(id, 0)) + v
		for _, t := range terms {
			logp += math.Log((float64(tc.GetOr(t, 0)) + 1) / denom)
		}
		if first || logp > best {
			best = logp
			first = false
		}
		out = append(out, Suggestion{NodeID: id, Path: b.o.Path(id), Score: logp})
		return true
	})
	// Normalize to (0, 1] with the best at 1.
	for i := range out {
		out[i].Score = math.Exp((out[i].Score - best) / float64(len(terms)))
	}
	return top(out, k)
}
