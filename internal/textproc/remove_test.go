package textproc

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"carcs/internal/pmap"
)

// removalDocs generates n deterministic documents over a small vocabulary,
// so terms repeat within and across documents and some occur in only one.
func removalDocs(n int) (ids []string, texts []string) {
	words := []string{
		"parallel", "sorting", "merge", "threads", "race", "data", "monte",
		"carlo", "simulation", "grid", "forest", "fire", "matrix", "cache",
		"locks", "barrier", "reduction", "prefix", "scan", "graph",
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		k := 3 + rng.Intn(12)
		toks := make([]string, k)
		for j := range toks {
			toks[j] = words[rng.Intn(len(words))]
		}
		// A word unique to this document, so removing it drops a term.
		toks = append(toks, fmt.Sprintf("unique%dword", i))
		ids = append(ids, fmt.Sprintf("doc-%d", i))
		texts = append(texts, strings.Join(toks, " "))
	}
	return ids, texts
}

// TestRemoveTermsMatchesFreshBuild: removing documents by their terms must
// leave the same postings, lengths and query answers as an index built
// without them, for both the ranked and the positional index.
func TestRemoveTermsMatchesFreshBuild(t *testing.T) {
	ids, texts := removalDocs(60)
	gone := map[string]bool{}
	for i := 0; i < len(ids); i += 3 {
		gone[ids[i]] = true
	}
	live, livePos := NewIndex(), NewPositionalIndex()
	fresh, freshPos := NewIndex(), NewPositionalIndex()
	for i, id := range ids {
		live.Add(id, texts[i])
		livePos.Add(id, texts[i])
		if !gone[id] {
			fresh.Add(id, texts[i])
			freshPos.Add(id, texts[i])
		}
	}
	for i, id := range ids {
		if gone[id] {
			live.RemoveTerms(id, Terms(texts[i]))
			livePos.RemoveTerms(id, Terms(texts[i]))
		}
	}
	// Unknown ids are a no-op.
	live.RemoveTerms("missing", []string{"parallel"})
	livePos.RemoveTerms("missing", []string{"parallel"})

	if live.Len() != fresh.Len() || livePos.Len() != freshPos.Len() {
		t.Fatalf("len = %d/%d, fresh %d/%d", live.Len(), livePos.Len(), fresh.Len(), freshPos.Len())
	}
	if g, w := dumpIndex(live), dumpIndex(fresh); !reflect.DeepEqual(g, w) {
		t.Errorf("postings differ from a fresh build:\n got %v\nwant %v", g, w)
	}
	if g, w := dumpPositional(livePos), dumpPositional(freshPos); !reflect.DeepEqual(g, w) {
		t.Errorf("positional postings differ from a fresh build:\n got %v\nwant %v", g, w)
	}
	queries := []string{"parallel sorting", "monte carlo", "data race", "fire", "unique0word", "unique1word", "grid cache locks"}
	for _, q := range queries {
		if g, w := live.Search(q, 0), fresh.Search(q, 0); !reflect.DeepEqual(g, w) {
			t.Errorf("Search(%q) = %v, want %v", q, g, w)
		}
		if g, w := livePos.Phrase(q), freshPos.Phrase(q); !reflect.DeepEqual(g, w) {
			t.Errorf("Phrase(%q) = %v, want %v", q, g, w)
		}
	}
}

func dumpIndex(ix *Index) map[string]map[string]int {
	out := map[string]map[string]int{}
	ix.postings.Range(func(term string, docs *pmap.Map[string, int]) bool {
		m := map[string]int{}
		docs.Range(func(id string, tf int) bool { m[id] = tf; return true })
		out[term] = m
		return true
	})
	ix.lengths.Range(func(id string, n int) bool {
		out["#len "+id] = map[string]int{"": n}
		return true
	})
	return out
}

func dumpPositional(ix *PositionalIndex) map[string]map[string][]int {
	out := map[string]map[string][]int{}
	ix.postings.Range(func(term string, docs *pmap.Map[string, []int]) bool {
		m := map[string][]int{}
		docs.Range(func(id string, pos []int) bool { m[id] = pos; return true })
		out[term] = m
		return true
	})
	ix.docs.Range(func(id string, n int) bool {
		out["#len "+id] = map[string][]int{"": {n}}
		return true
	})
	return out
}
