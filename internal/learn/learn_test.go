package learn

import (
	"bytes"
	"encoding/json"
	"testing"

	"carcs/internal/corpus"
	"carcs/internal/ontology"
	"carcs/internal/textproc"
)

func pdcExamples(t *testing.T) []Example {
	t.Helper()
	exs := ExamplesFromMaterials(ontology.PDC12(), corpus.AllMaterials())
	if len(exs) < 20 {
		t.Fatalf("expected a usable PDC training set, got %d examples", len(exs))
	}
	return exs
}

func marshalState(t *testing.T, m *Model) []byte {
	t.Helper()
	b, err := json.Marshal(m.State())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTrainDeterministic(t *testing.T) {
	o := ontology.PDC12()
	exs := pdcExamples(t)
	p := DefaultParams()
	a := Train(o, exs, p)
	// Reversed input order must not matter: Train sorts by ID.
	rev := make([]Example, len(exs))
	for i, ex := range exs {
		rev[len(exs)-1-i] = ex
	}
	b := Train(o, rev, p)
	ba, bb := marshalState(t, a), marshalState(t, b)
	if !bytes.Equal(ba, bb) {
		t.Fatal("two trainings on the same examples produced different state bytes")
	}
	if !a.Trained() || a.Classes() == 0 {
		t.Fatal("model should be trained")
	}
	if a.Version() != 1 || a.Examples() != len(exs) {
		t.Fatalf("version=%d examples=%d", a.Version(), a.Examples())
	}
}

func TestSuggestQuality(t *testing.T) {
	o := ontology.PDC12()
	exs := pdcExamples(t)
	m := Train(o, exs, DefaultParams())

	// In-sample sanity: most training documents should get one of their
	// own labels into the top 3.
	hits := 0
	for _, ex := range exs {
		truth := make(map[string]bool)
		for _, c := range ex.Pos {
			truth[c] = true
		}
		for _, sg := range m.SuggestTerms(ex.Terms, 3) {
			if truth[sg.NodeID] {
				hits++
				break
			}
		}
	}
	if frac := float64(hits) / float64(len(exs)); frac < 0.7 {
		t.Fatalf("in-sample hit@3 = %.2f, want >= 0.7", frac)
	}

	sugg := m.SuggestTerms(textproc.Terms("students parallelize a loop with OpenMP pragmas and measure speedup"), 5)
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	for i, sg := range sugg {
		if sg.Score <= 0 || sg.Score >= 1 {
			t.Errorf("score %v not a calibrated probability in (0,1)", sg.Score)
		}
		if sg.Path == "" {
			t.Errorf("missing path for %s", sg.NodeID)
		}
		if i > 0 && sugg[i-1].Score < sg.Score {
			t.Error("suggestions not sorted by score")
		}
	}
	if m.SuggestTerms(textproc.Terms(""), 5) != nil {
		t.Error("empty text should yield nil")
	}
}

func TestCalibrationMonotonic(t *testing.T) {
	m := Train(ontology.PDC12(), pdcExamples(t), DefaultParams())
	// Higher margin must map to higher calibrated probability, or the
	// suggestion ranking would disagree with the raw scores.
	if m.Calibrated(2) <= m.Calibrated(0) || m.Calibrated(0) <= m.Calibrated(-2) {
		t.Fatalf("calibration not increasing in margin: %v %v %v",
			m.Calibrated(-2), m.Calibrated(0), m.Calibrated(2))
	}
}

func TestUpdateCopyOnWrite(t *testing.T) {
	o := ontology.PDC12()
	m := Train(o, pdcExamples(t), DefaultParams())
	before := marshalState(t, m)

	terms := textproc.Terms("map reduce over a distributed key value store")
	classes := o.Classifiable()
	nm := m.Update(terms, []string{classes[0]}, []string{classes[1]})
	if nm == m {
		t.Fatal("Update must return a new model")
	}
	if nm.Version() != m.Version()+1 || nm.Examples() != m.Examples()+1 {
		t.Fatalf("version/examples not bumped: %d/%d vs %d/%d",
			nm.Version(), nm.Examples(), m.Version(), m.Examples())
	}
	if after := marshalState(t, m); !bytes.Equal(before, after) {
		t.Fatal("Update mutated the receiver")
	}

	// Determinism of the online path too.
	nm2 := m.Update(terms, []string{classes[0]}, []string{classes[1]})
	if !bytes.Equal(marshalState(t, nm), marshalState(t, nm2)) {
		t.Fatal("same Update produced different state bytes")
	}

	// A confirmed label the model had never seen becomes a class.
	novel := ""
	for _, c := range classes {
		if !hasClass(m.classes, c) {
			novel = c
			break
		}
	}
	if novel != "" {
		grown := m.Update(terms, []string{novel}, nil)
		if !hasClass(grown.classes, novel) {
			t.Fatal("Update did not absorb a novel confirmed class")
		}
	}
}

func TestUncertainty(t *testing.T) {
	o := ontology.PDC12()
	var untrained *Model
	if untrained.Uncertainty([]string{"x"}) != 1 {
		t.Error("nil model uncertainty should be 1")
	}
	m := Train(o, pdcExamples(t), DefaultParams())
	if m.Uncertainty(nil) != 1 {
		t.Error("empty terms should be maximally uncertain")
	}
	clear := textproc.Terms("parallelize a loop with OpenMP pragmas measure speedup and efficiency of static and dynamic scheduling")
	vague := textproc.Terms("course homework assignment week two")
	uc, uv := m.Uncertainty(clear), m.Uncertainty(vague)
	if uc < 0 || uc > 1 || uv < 0 || uv > 1 {
		t.Fatalf("uncertainty out of range: %v %v", uc, uv)
	}
	if uc >= uv {
		t.Fatalf("clear doc (%v) should be less uncertain than vague doc (%v)", uc, uv)
	}
}

func TestStateRoundTrip(t *testing.T) {
	o := ontology.PDC12()
	m := Train(o, pdcExamples(t), DefaultParams())
	b1 := marshalState(t, m)

	var st ModelState
	if err := json.Unmarshal(b1, &st); err != nil {
		t.Fatal(err)
	}
	m2, err := FromState(o, &st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, marshalState(t, m2)) {
		t.Fatal("state round trip changed bytes")
	}
	// The restored model must behave identically, not just serialize alike.
	terms := textproc.Terms("message passing with MPI send and receive")
	s1, s2 := m.SuggestTerms(terms, 5), m2.SuggestTerms(terms, 5)
	if len(s1) != len(s2) {
		t.Fatalf("restored model suggests differently: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("suggestion %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}

	if _, err := FromState(o, &ModelState{Classes: []string{"not-an-entry"}}); err == nil {
		t.Fatal("FromState should reject classes outside the ontology")
	}
	if _, err := FromState(o, nil); err == nil {
		t.Fatal("FromState should reject nil state")
	}
}

func TestCrossValidate(t *testing.T) {
	o := ontology.PDC12()
	exs := pdcExamples(t)
	q := CrossValidate(o, exs, DefaultParams(), 3)
	if q.N == 0 {
		t.Fatal("cross-validation scored nothing")
	}
	if q.PrecisionAtK < 0 || q.PrecisionAtK > 1 || q.RecallAtK < 0 || q.RecallAtK > 1 {
		t.Fatalf("metrics out of range: %+v", q)
	}
	// Held-out quality should clear a modest floor on the curated corpus —
	// the heuristics manage ~0.3 hit rate, a trained model must not be junk.
	if q.HitRate == 0 {
		t.Fatalf("zero held-out hit rate: %+v", q)
	}
	q2 := CrossValidate(o, exs, DefaultParams(), 3)
	if q != q2 {
		t.Fatalf("cross-validation not deterministic: %+v vs %+v", q, q2)
	}
}

func TestShuffleDeterministic(t *testing.T) {
	a, b := shuffle(100, 7), shuffle(100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different permutations")
		}
	}
	seen := make([]bool, 100)
	for _, v := range a {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d missing from permutation", i)
		}
	}
	if c := shuffle(100, 8); func() bool {
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical permutations")
	}
}
