package textproc

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"Amdahl's law", []string{"amdahl", "law"}},
		{"divide-and-conquer", []string{"divide", "and", "conquer"}},
		{"OpenMP for-loops in C++14", []string{"openmp", "for", "loops", "in", "c", "14"}},
		{"", nil},
		{"   \t\n", nil},
		{"e.g., MPI; pthreads", []string{"e", "g", "mpi", "pthreads"}},
		{"don't", []string{"don't"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTermsDropsStopwordsAndStems(t *testing.T) {
	got := Terms("The students are implementing parallel sorting algorithms")
	want := []string{"implement", "parallel", "sort", "algorithm"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Terms = %v, want %v", got, want)
	}
	if !IsStopword("the") || IsStopword("parallel") {
		t.Error("IsStopword misbehaves")
	}
}

func TestPorterFixtures(t *testing.T) {
	// Classic fixtures from Porter's paper plus domain vocabulary.
	cases := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"callousness":  "callous",
		"formaliti":    "formal",
		"sensitiviti":  "sensit",
		"sensibiliti":  "sensibl",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"gyroscopic":   "gyroscop",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"homologou":    "homolog",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
		// Domain words used across classification matching.
		"parallelism":  "parallel",
		"scheduling":   "schedul",
		"synchronized": "synchron",
		"programming":  "program",
		"computation":  "comput",
		"computing":    "comput",
		"distributed":  "distribut",
		"arrays":       "arrai",
		"iteration":    "iter",
		"recursion":    "recurs",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"", "a", "is", "be"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemIdempotentOnVocabulary(t *testing.T) {
	// The Porter stemmer is not idempotent on all of English, but it must
	// be on the vocabulary our pipeline actually produces, so repeated
	// analysis never drifts.
	vocab := []string{
		"parallel", "schedul", "comput", "distribut", "program", "thread",
		"messag", "memori", "array", "sort", "search", "graph", "matrix",
		"integr", "fractal", "simul", "loop", "openmp", "mpi", "pthread",
	}
	for _, w := range vocab {
		once := Stem(w)
		if twice := Stem(once); twice != once {
			t.Errorf("Stem not idempotent: %q -> %q -> %q", w, once, twice)
		}
	}
}

func TestNGrams(t *testing.T) {
	toks := []string{"a", "b", "c", "d"}
	if got := NGrams(toks, 2); !reflect.DeepEqual(got, []string{"a b", "b c", "c d"}) {
		t.Errorf("bigrams = %v", got)
	}
	if got := NGrams(toks, 4); !reflect.DeepEqual(got, []string{"a b c d"}) {
		t.Errorf("4-grams = %v", got)
	}
	if NGrams(toks, 5) != nil || NGrams(toks, 0) != nil {
		t.Error("degenerate n-grams should be nil")
	}
}

func TestCosineProperties(t *testing.T) {
	a := Vector{"x": 1, "y": 2}
	b := Vector{"x": 2, "y": 4}
	if s := Cosine(a, b); math.Abs(s-1) > 1e-12 {
		t.Errorf("colinear cosine = %v", s)
	}
	if s := Cosine(a, Vector{"z": 3}); s != 0 {
		t.Errorf("orthogonal cosine = %v", s)
	}
	if Cosine(a, nil) != 0 || Cosine(nil, nil) != 0 {
		t.Error("empty cosine should be 0")
	}
	if Cosine(a, b) != Cosine(b, a) {
		t.Error("cosine not symmetric")
	}
}

func TestJaccard(t *testing.T) {
	a := Vector{"x": 1, "y": 1}
	b := Vector{"y": 1, "z": 1}
	if got := Jaccard(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Jaccard = %v", got)
	}
	if Jaccard(nil, nil) != 0 {
		t.Error("empty Jaccard")
	}
	if Jaccard(a, a) != 1 {
		t.Error("self Jaccard")
	}
}

func TestCorpusSimilar(t *testing.T) {
	c := NewCorpus()
	c.Add("sort", "parallel merge sort on shared memory with OpenMP")
	c.Add("heat", "stencil computation for heat diffusion with MPI message passing")
	c.Add("game", "a console game of tic tac toe with menus")
	c.Finalize()
	got := c.Similar(c.Query("parallel sorting with OpenMP threads"), 2)
	if len(got) == 0 || got[0].ID != "sort" {
		t.Fatalf("Similar = %v", got)
	}
	for _, s := range got {
		if s.Score <= 0 || s.Score > 1+1e-9 {
			t.Errorf("score out of range: %+v", s)
		}
	}
	// Self-similarity of a stored doc with its own text is maximal.
	self := Cosine(c.Vector("sort"), c.Vector("sort"))
	if math.Abs(self-1) > 1e-12 {
		t.Errorf("self cosine = %v", self)
	}
}

// Every call must score the same query identically, down to the last bit:
// restored and replicated nodes are compared on exact suggestion scores.
func TestSimilarScoresRepeatExactly(t *testing.T) {
	words := strings.Fields("parallel merge sort shared memory openmp threads stencil heat " +
		"diffusion mpi message passing dense matrix multiplication tiling cache " +
		"speedup amdahl lock mutex barrier reduction scan prefix graph search")
	c := NewCorpus()
	for i := range words {
		// Document i holds words[0..i], so every term has its own IDF.
		c.Add(fmt.Sprint(i), strings.Join(words[:i+1], " "))
	}
	c.Finalize()
	q := c.Query(strings.Join(words, " ") + " " + strings.Join(words[:9], " "))
	want := c.Similar(q, 0)
	for i := 0; i < 200; i++ {
		if got := c.Similar(q, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: Similar = %v, first call %v", i, got, want)
		}
	}
}

func TestCorpusReAddReplaces(t *testing.T) {
	c := NewCorpus()
	c.Add("d", "alpha beta")
	c.Add("d", "gamma delta")
	c.Finalize()
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if v := c.Vector("d"); v["alpha"] != 0 {
		t.Errorf("stale term survived re-add: %v", v)
	}
	if c.IDF("gamma") == 0 {
		t.Error("df not updated on re-add")
	}
}

func TestCorpusPanics(t *testing.T) {
	c := NewCorpus()
	c.Add("d", "x")
	mustPanic(t, func() { c.Vector("d") })
	mustPanic(t, func() { c.Query("x") })
	c.Finalize()
	c.Finalize() // idempotent
	mustPanic(t, func() { c.Add("e", "y") })
}

func TestIndexSearch(t *testing.T) {
	ix := NewIndex()
	ix.Add("n1", "simulate a hurricane tracker with arrays and loops")
	ix.Add("n2", "object oriented zoo with classes and inheritance")
	ix.Add("p1", "simulate a forest fire with monte carlo methods in parallel")
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	got := ix.Search("simulating fires", 10)
	if len(got) == 0 || got[0].ID != "p1" {
		t.Fatalf("Search = %v", got)
	}
	if res := ix.Search("zzzz", 10); res != nil {
		t.Errorf("no-hit search = %v", res)
	}
	if res := ix.Search("", 10); res != nil {
		t.Errorf("empty search = %v", res)
	}
	all := ix.SearchAll("simulate")
	if !reflect.DeepEqual(all, []string{"n1", "p1"}) {
		t.Errorf("SearchAll = %v", all)
	}
	if ix.SearchAll("simulate inheritance") != nil {
		t.Error("conjunctive search should be empty")
	}
}

func TestIndexRemoveAndReAdd(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", "parallel prefix scan")
	ix.Add("b", "parallel reduction tree")
	ix.Remove("a")
	if ix.Len() != 1 {
		t.Fatalf("Len after remove = %d", ix.Len())
	}
	if got := ix.SearchAll("prefix"); got != nil {
		t.Errorf("removed doc still indexed: %v", got)
	}
	ix.Add("b", "sequential quicksort") // replace
	if got := ix.SearchAll("reduction"); got != nil {
		t.Errorf("replaced doc still indexed: %v", got)
	}
	if got := ix.SearchAll("quicksort"); len(got) != 1 || got[0] != "b" {
		t.Errorf("re-add not indexed: %v", got)
	}
	ix.Remove("ghost") // no-op
}

func TestCountTerms(t *testing.T) {
	got := CountTerms([]string{"a", "b", "a"})
	if got["a"] != 2 || got["b"] != 1 {
		t.Errorf("CountTerms = %v", got)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
