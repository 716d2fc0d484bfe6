package core

import (
	"bytes"
	"fmt"
	"testing"

	"carcs/internal/search"
	"carcs/internal/textproc"
)

// hitIDs renders a hit list as its material ids, best first.
func hitIDs(hits []search.Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Material.ID
	}
	return out
}

// misspellings returns, for each analyzed term of text, the term itself and
// three near misses within the speller's edit distance.
func misspellings(text string) []string {
	var out []string
	for _, t := range textproc.Terms(text) {
		out = append(out, t, t+"x", "q"+t[1:], t[:len(t)-1]+"zz")
	}
	return out
}

// TestLiveSpellerMatchesRestore: after RemoveMaterial and Reclassify, the
// live system's "did you mean" answers and vocabulary must match a system
// rebuilt from its checkpoint. A removed material's terms must leave the
// vocabulary, and a reclassification (which does not change the search
// text) must not count its terms twice.
func TestLiveSpellerMatchesRestore(t *testing.T) {
	live, err := NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	removed := live.View().Material("hurricane-tracker")
	if removed == nil {
		t.Fatal("seed corpus lacks hurricane-tracker")
	}
	if err := live.RemoveMaterial(removed.ID); err != nil {
		t.Fatal(err)
	}
	texts := []string{removed.SearchText()}
	ms := live.View().Materials("")
	for i := 0; i < 12; i++ {
		m, donor := ms[i*5], ms[i*5+1]
		if err := live.Reclassify(m.ID, donor.Classifications); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, m.SearchText())
	}
	var buf bytes.Buffer
	if err := live.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lv, rv := live.View(), restored.View()
	queries := []string{removed.Title + "x", "hurricane cracker"}
	for _, text := range texts {
		queries = append(queries, misspellings(text)...)
	}
	for _, q := range queries {
		lh, lfix := lv.SearchText(q, 10)
		rh, rfix := rv.SearchText(q, 10)
		if g, w := fmt.Sprint(lfix, hitIDs(lh)), fmt.Sprint(rfix, hitIDs(rh)); g != w {
			t.Errorf("SearchText(%q): live %s, restored %s", q, g, w)
		}
		for _, tok := range textproc.Tokenize(q) {
			if g, w := lv.eng.Known(tok), rv.eng.Known(tok); g != w {
				t.Errorf("Known(%q): live %v, restored %v", tok, g, w)
			}
		}
	}
}
