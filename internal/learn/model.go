package learn

import (
	"math"
	"sort"

	"carcs/internal/classify"
	"carcs/internal/ontology"
)

// Model is a trained one-vs-rest logistic regression classifier over one
// ontology's entries. A Model is immutable after construction: Train
// builds one, Update clones into a new one, and views snapshot it by
// pointer — exactly the copy-on-write discipline of the other snapped
// containers.
type Model struct {
	o   *ontology.Ontology
	ftz *Featurizer

	version  int
	examples int
	params   Params

	// classes is the sorted list of entries with at least one positive
	// training example; w and b hold each class's sparse weights and bias.
	classes []string
	w       map[string]map[string]float64
	b       map[string]float64

	// plattA/plattB map a raw margin onto a calibrated probability
	// 1/(1+exp(A*margin+B)), fitted on held-out folds at train time.
	plattA, plattB float64
}

// Name implements classify.Suggester.
func (m *Model) Name() string { return "learned" }

// Version is the model's training generation: bumped by every Train and
// every online Update, and exposed on /api/health.
func (m *Model) Version() int { return m.version }

// Examples is how many training observations the model has absorbed.
func (m *Model) Examples() int { return m.examples }

// Classes is how many ontology entries the model can propose.
func (m *Model) Classes() int { return len(m.classes) }

// Params returns the hyperparameters the model was trained with.
func (m *Model) Params() Params { return m.params }

// Trained reports whether the model has any usable classes.
func (m *Model) Trained() bool { return m != nil && len(m.classes) > 0 }

func sigmoid(x float64) float64 {
	// Split on sign so the exp argument is always non-positive: no
	// overflow, and bit-identical results for the replay path.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// margin computes b + w·x for one class, iterating the (sorted) feature
// slice so the accumulation order is deterministic.
func (m *Model) margin(class string, feats []Feature) float64 {
	s := m.b[class]
	w := m.w[class]
	if w == nil {
		return s
	}
	for _, f := range feats {
		if wt, ok := w[f.Term]; ok {
			s += wt * f.W
		}
	}
	return s
}

// Calibrated maps a raw margin onto the Platt-calibrated probability.
func (m *Model) Calibrated(margin float64) float64 {
	return sigmoid(-(m.plattA*margin + m.plattB))
}

// scoreAll returns every class's raw margin, in class order.
func (m *Model) scoreAll(feats []Feature) []float64 {
	out := make([]float64, len(m.classes))
	for i, c := range m.classes {
		out[i] = m.margin(c, feats)
	}
	return out
}

// SuggestTerms implements classify.Suggester: the top-k entries by
// calibrated probability. Scores are calibrated posteriors in (0, 1),
// comparable across queries and against the ingest auto-apply threshold.
func (m *Model) SuggestTerms(terms []string, k int) []classify.Suggestion {
	if !m.Trained() || len(terms) == 0 {
		return nil
	}
	feats := m.ftz.Features(terms)
	if len(feats) == 0 {
		return nil
	}
	margins := m.scoreAll(feats)
	out := make([]classify.Suggestion, len(m.classes))
	for i, c := range m.classes {
		out[i] = classify.Suggestion{NodeID: c, Path: m.o.Path(c), Score: m.Calibrated(margins[i])}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].NodeID < out[j].NodeID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Uncertainty scores a document for active-learning review ordering:
// 1 - (p1 - p2), the margin-sampling criterion over the two best
// calibrated posteriors, in [0, 1]. A document the model is sure about
// (one class far ahead) scores near 0; a toss-up scores near 1, and an
// untrained or empty-feature case scores exactly 1 — maximum expected
// gain from a human look.
func (m *Model) Uncertainty(terms []string) float64 {
	if !m.Trained() {
		return 1
	}
	feats := m.ftz.Features(terms)
	if len(feats) == 0 {
		return 1
	}
	var p1, p2 float64
	for i := range m.classes {
		p := m.Calibrated(m.margin(m.classes[i], feats))
		if p > p1 {
			p1, p2 = p, p1
		} else if p > p2 {
			p2 = p
		}
	}
	return 1 - (p1 - p2)
}

// Entropy is the binary entropy of the top calibrated posterior, an
// alternative uncertainty reading exposed for diagnostics.
func (m *Model) Entropy(terms []string) float64 {
	if !m.Trained() {
		return 1
	}
	feats := m.ftz.Features(terms)
	if len(feats) == 0 {
		return 1
	}
	var p1 float64
	for i := range m.classes {
		if p := m.Calibrated(m.margin(m.classes[i], feats)); p > p1 {
			p1 = p
		}
	}
	if p1 <= 0 || p1 >= 1 {
		return 0
	}
	return -(p1*math.Log2(p1) + (1-p1)*math.Log2(1-p1))
}

// ---------------------------------------------------------------------------
// training
// ---------------------------------------------------------------------------

// Train fits a model on the examples with the given params. Training is
// bit-deterministic: the same examples (in any order — they are sorted by
// ID first) and params produce an identical model everywhere.
func Train(o *ontology.Ontology, exs []Example, p Params) *Model {
	p = p.withDefaults()
	exs = append([]Example(nil), exs...)
	sort.Slice(exs, func(i, j int) bool { return exs[i].ID < exs[j].ID })

	m := &Model{o: o, ftz: SharedFeaturizer(o), version: 1, params: p, examples: len(exs)}
	m.classes = classUnion(exs)
	m.w = make(map[string]map[string]float64, len(m.classes))
	m.b = make(map[string]float64, len(m.classes))
	if len(m.classes) == 0 {
		return m
	}

	feats := make([][]Feature, len(exs))
	for i, ex := range exs {
		feats[i] = m.ftz.Features(ex.Terms)
	}

	// Calibration first, on held-out folds, so the sigmoid is fitted to
	// margins the final model has not memorized; then the final fit on
	// everything.
	m.plattA, m.plattB = calibrate(o, exs, p)
	m.fit(exs, feats, p)
	return m
}

// classUnion returns the sorted distinct positive labels.
func classUnion(exs []Example) []string {
	seen := make(map[string]bool)
	for _, ex := range exs {
		for _, c := range ex.Pos {
			seen[c] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// fit runs the SGD epochs over the examples, mutating m's weights. Only
// Train and Update (on a fresh clone) call it.
func (m *Model) fit(exs []Example, feats [][]Feature, p Params) {
	for epoch := 0; epoch < p.Epochs; epoch++ {
		lr := p.LearnRate / (1 + 0.5*float64(epoch))
		for _, i := range shuffle(len(exs), p.Seed+uint64(epoch)*1000003) {
			m.step(exs[i], feats[i], lr, p)
		}
	}
}

// step applies one SGD update for one example: gradient descent on the
// logistic loss for every positive class, and for the HardNegatives
// top-scoring wrong classes — the ones currently outranking the truth.
func (m *Model) step(ex Example, feats []Feature, lr float64, p Params) {
	if len(feats) == 0 {
		return
	}
	if len(ex.Pos) == 0 {
		// Rejection example: push down only the explicitly refused classes.
		for _, c := range ex.Neg {
			if hasClass(m.classes, c) {
				m.gradStep(c, feats, 0, lr, p.L2)
			}
		}
		return
	}
	pos := make(map[string]bool, len(ex.Pos))
	for _, c := range ex.Pos {
		pos[c] = true
		m.gradStep(c, feats, 1, lr, p.L2)
	}
	// Hard negatives: the top-scoring classes not in the label set, by
	// margin then class id so selection is deterministic.
	type scored struct {
		c string
		s float64
	}
	var negs []scored
	for _, c := range m.classes {
		if pos[c] {
			continue
		}
		negs = append(negs, scored{c, m.margin(c, feats)})
	}
	sort.Slice(negs, func(i, j int) bool {
		if negs[i].s != negs[j].s {
			return negs[i].s > negs[j].s
		}
		return negs[i].c < negs[j].c
	})
	n := p.HardNegatives
	if n > len(negs) {
		n = len(negs)
	}
	for _, ng := range negs[:n] {
		m.gradStep(ng.c, feats, 0, lr, p.L2)
	}
}

// gradStep is one logistic-loss gradient step for one class.
func (m *Model) gradStep(class string, feats []Feature, y float64, lr, l2 float64) {
	g := sigmoid(m.margin(class, feats)) - y
	m.b[class] -= lr * g
	w := m.w[class]
	if w == nil {
		w = make(map[string]float64)
		m.w[class] = w
	}
	for _, f := range feats {
		w[f.Term] -= lr * (g*f.W + l2*w[f.Term])
	}
}

func hasClass(classes []string, c string) bool {
	i := sort.SearchStrings(classes, c)
	return i < len(classes) && classes[i] == c
}

// ---------------------------------------------------------------------------
// online updates
// ---------------------------------------------------------------------------

// Update returns a new model that has absorbed one review outcome: pos are
// entries a human confirmed for the document, neg are machine proposals a
// human rejected. The receiver is untouched (views pinned on it stay
// consistent); the clone gets one decayed SGD pass and a bumped version.
func (m *Model) Update(terms []string, pos, neg []string) *Model {
	if m == nil {
		return nil
	}
	nm := m.clone()
	nm.version++
	nm.examples++
	pos = append([]string(nil), pos...)
	sort.Strings(pos)
	neg = append([]string(nil), neg...)
	sort.Strings(neg)
	// Confirmed labels the model has never seen become new classes.
	for _, c := range pos {
		if !hasClass(nm.classes, c) {
			nm.classes = append(nm.classes, c)
		}
	}
	sort.Strings(nm.classes)
	p := nm.params.withDefaults()
	feats := nm.ftz.Features(terms)
	ex := Example{Terms: terms, Pos: pos, Neg: neg}
	// A few small steps rather than one big one: the online path mirrors
	// the tail of the decayed epoch schedule, so a single review nudges
	// the model without erasing the batch fit.
	for i := 0; i < 3; i++ {
		lr := p.LearnRate / (1 + 0.5*float64(p.Epochs+i))
		nm.step(ex, feats, lr, p)
	}
	return nm
}

// clone deep-copies the mutable containers; the featurizer and ontology
// are shared immutable singletons.
func (m *Model) clone() *Model {
	nm := *m
	nm.classes = append([]string(nil), m.classes...)
	nm.b = make(map[string]float64, len(m.b))
	for c, v := range m.b {
		nm.b[c] = v
	}
	nm.w = make(map[string]map[string]float64, len(m.w))
	for c, w := range m.w {
		cw := make(map[string]float64, len(w))
		for t, v := range w {
			cw[t] = v
		}
		nm.w[c] = cw
	}
	return &nm
}

// SetVersion stamps the model's version before it is installed; the core
// system uses it to keep the version monotonic across retrains.
func (m *Model) SetVersion(v int) { m.version = v }
