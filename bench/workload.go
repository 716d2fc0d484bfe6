package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"carcs/internal/corpus"
	"carcs/internal/ingest"
	"carcs/internal/material"
	"carcs/internal/ontology"
)

// workload is one traffic mix run against one topology. Rates are offered
// load, fixed here so both sides of a comparison see identical schedules.
type workload struct {
	name string
	// corpus is how many synthetic materials set-up loads on top of the
	// paper's seed collections, through AddMaterials in 64-record chunks.
	corpus int
	// readRate, writeRate and importRate are open-loop arrivals per second:
	// HTTP reads, single-material HTTP writes, and ingest batches of batch
	// JSONL records through ingest.Importer.
	readRate, writeRate, importRate float64
	batch                           int
	// bulk, when positive, replaces the closed-loop windows with imports of
	// this many records into fresh directories between rounds: capacity is
	// their materials per second, and restart and replay recover them.
	bulk int
	// replicated adds a follower bootstrapped from the node's checkpoint
	// and a replica.Router in front of both; clients talk to the router.
	replicated bool
}

// workloads is the benchmark's workload table; BENCHMARK.json names the
// same set and says why each exists.
var workloads = []workload{
	{name: "browse", corpus: 1500, readRate: 200},
	{name: "curate", corpus: 1500, readRate: 200, writeRate: 10},
	{name: "ingest", importRate: 100, batch: 4, bulk: 1536},
	{name: "replicate", corpus: 1500, readRate: 200, writeRate: 10, replicated: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rate is the total open-loop arrival rate.
func (w workload) rate() float64 { return w.readRate + w.writeRate + w.importRate }

type opKind int

const (
	opSearch opKind = iota
	opPage
	opMaterial
	opCoverage
	opSuggest
	opSimilarity
	opRecommend
	opQuery
	opCreate
	opReclassify
	opImport
	numOpKinds
)

var opNames = [numOpKinds]string{
	"search", "materials", "material", "coverage", "suggest", "similarity",
	"recommend", "query", "create", "reclassify", "import",
}

func (k opKind) String() string { return opNames[k] }

func (k opKind) write() bool { return k == opCreate || k == opReclassify }

// readMix is the share of each read route in every read-carrying workload.
var readMix = []struct {
	kind   opKind
	weight int
}{
	{opSearch, 30}, {opPage, 20}, {opMaterial, 15}, {opCoverage, 10},
	{opSuggest, 10}, {opSimilarity, 5}, {opRecommend, 5}, {opQuery, 5},
}

// op is one generated operation. HTTP ops carry method, path and body;
// import ops carry a JSONL batch.
type op struct {
	at     time.Duration // due offset from the start of its phase
	kind   opKind
	method string
	path   string
	body   []byte
	// id and cls identify what a write stores, for the read-back check.
	id  string
	cls []string
	// records is the number of JSONL lines in an import batch.
	records int
}

// Fixed query sets: the analytic reads repeat, so with no writes they are
// served from the generation-keyed cache.
var (
	searchTerms = []string{
		"traffic", "particle fountain", "song lyrics", "delivery drones",
		"telescope imagery", "final exams", "news articles", "packets network",
		"bike share", "warehouse parcels", "parallel", "sorting",
		"matrix multiplication", "monte carlo", "mapreduce", "threads",
		"recursion", "arrays", "graph", "image processing", "simulation",
		"cache", "mpi", "openmp", "game", "dna", "weather", "prime numbers",
		"paralel", "sortting",
	}
	suggestTexts = []string{
		"loop over arrays of pixels", "parallel prefix sum with threads",
		"recursive tree traversal", "message passing between processes",
		"sorting algorithms and their complexity", "hash tables for word counts",
		"race conditions and locks", "matrix multiplication on gpus",
	}
	structuredQueries = []string{
		"collection:nifty level:CS1", "kind:assignment parallel",
		"language:Python sort", "pdc:yes simulation", "year:2005..2012 graph",
		"level:CS2 -collection:peachy", "dataset:any", "pdc:no arrays",
	}
	coverageCollections = []string{"", "nifty", "peachy", "itcs3145"}
)

// gen draws operations from one seeded stream, so a seed fixes every input
// the system sees: arrival times, routes, parameters and written content.
type gen struct {
	rng        *rand.Rand
	hot        []string // set-up material ids in a seeded popularity order
	zipf       *rand.Zipf
	reclass    []string // synthetic ids in a seeded order; each is reclassified at most once
	entries    []string // classifiable CS13 and PDC12 entries
	recommends []string // selected= values drawn from seed materials
	created    int
	imports    []*material.Material // pool consumed by import batches
	rate       float64
	w          workload
}

// newGen seeds a generator over the set-up corpus ids. horizon is the total
// open-loop time the run will schedule, which sizes the import pool.
func newGen(w workload, seed int64, ids []string, horizon time.Duration) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed)), w: w, rate: w.rate()}
	// Sorted first, so the seed alone decides both orders.
	g.hot = append([]string(nil), ids...)
	sort.Strings(g.hot)
	for _, id := range g.hot {
		if strings.HasPrefix(id, synthPrefix) {
			g.reclass = append(g.reclass, id)
		}
	}
	g.rng.Shuffle(len(g.reclass), func(i, j int) { g.reclass[i], g.reclass[j] = g.reclass[j], g.reclass[i] })
	g.rng.Shuffle(len(g.hot), func(i, j int) { g.hot[i], g.hot[j] = g.hot[j], g.hot[i] })
	g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(len(g.hot)-1))
	g.entries = append(ontology.CS13().Classifiable(), ontology.PDC12().Classifiable()...)
	for _, m := range corpus.AllMaterials() {
		if ids := m.ClassificationIDs(); len(ids) >= 2 && len(g.recommends) < 8 {
			g.recommends = append(g.recommends, ids[0]+","+ids[1])
		}
	}
	if w.importRate > 0 || w.bulk > 0 {
		// Half again the expected open-loop records, plus the bulk imports.
		n := int(1.5*w.importRate*horizon.Seconds())*w.batch + repeats*w.bulk
		g.imports = corpus.Synthetic(corpus.SyntheticOptions{N: n, Seed: seed + 1, IDPrefix: "ing-"}).All()
		for i, m := range g.imports {
			if i%4 == 3 {
				m.Classifications = nil // left for the suggester and review
			}
		}
	}
	return g
}

// synthPrefix is the id prefix of the set-up corpus.
const synthPrefix = "syn-"

func (g *gen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

// zipfS skews which materials readers open and where they start paging:
// a few materials are popular, most are rarely read, as in any catalogue.
const zipfS = 1.1

// popular draws a material id by Zipf popularity.
func (g *gen) popular() string { return g.hot[g.zipf.Uint64()] }

// schedule draws Poisson arrivals at the workload's total rate for dur, each
// typed by its share of the rate.
func (g *gen) schedule(dur time.Duration) []op {
	var ops []op
	for t := g.gap(); t < dur; t += g.gap() {
		o := g.next()
		o.at = t
		ops = append(ops, o)
	}
	return ops
}

// sequence draws n operations in the workload's mix, for closed loops.
func (g *gen) sequence(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func (g *gen) gap() time.Duration {
	return time.Duration(g.rng.ExpFloat64() / g.rate * float64(time.Second))
}

func (g *gen) next() op {
	u := g.rng.Float64() * g.rate
	switch {
	case u < g.w.readRate:
		return g.read()
	case u < g.w.readRate+g.w.writeRate:
		return g.write()
	default:
		return g.importBatch(g.w.batch)
	}
}

func (g *gen) read() op {
	total := 0
	for _, m := range readMix {
		total += m.weight
	}
	u := g.rng.Intn(total)
	for _, m := range readMix {
		if u < m.weight {
			return g.readOf(m.kind)
		}
		u -= m.weight
	}
	panic("unreachable: u < total")
}

// readOf draws the parameters of one read of the given route.
func (g *gen) readOf(kind opKind) op {
	q := url.Values{}
	var path string
	switch kind {
	case opSearch:
		q.Set("q", g.pick(searchTerms))
		path = "/api/search"
	case opPage:
		after := ""
		if g.rng.Intn(10) > 0 {
			after = g.popular()
		}
		q.Set("after", after)
		q.Set("limit", "50")
		path = "/api/materials"
	case opMaterial:
		path = "/api/materials/" + g.popular()
	case opCoverage:
		q.Set("ontology", g.pick([]string{"cs13", "pdc12"}))
		q.Set("collection", g.pick(coverageCollections))
		path = "/api/coverage"
	case opSuggest:
		q.Set("ontology", g.pick([]string{"cs13", "pdc12"}))
		q.Set("method", g.pick([]string{"tfidf", "bayes"}))
		q.Set("q", g.pick(suggestTexts))
		path = "/api/suggest"
	case opSimilarity:
		pair := g.pick([]string{"nifty,peachy", "peachy,nifty"})
		left, right, _ := strings.Cut(pair, ",")
		q.Set("left", left)
		q.Set("right", right)
		path = "/api/similarity"
	case opRecommend:
		q.Set("selected", g.pick(g.recommends))
		path = "/api/recommend"
	case opQuery:
		q.Set("q", g.pick(structuredQueries))
		path = "/api/query"
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return op{kind: kind, method: "GET", path: path}
}

// classifications draws 1..max distinct classifiable entries, sorted.
func (g *gen) classifications(max int) []string {
	n := 1 + g.rng.Intn(max)
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		if e := g.pick(g.entries); !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// write draws a curation write: 80% new materials, 20% reclassifications of
// set-up materials (each target at most once, so concurrent writes never
// race on one id and the final value of every id is known).
func (g *gen) write() op {
	if g.rng.Intn(5) == 0 && len(g.reclass) > 0 {
		id := g.reclass[0]
		g.reclass = g.reclass[1:]
		cls := g.classifications(5)
		body, _ := json.Marshal(map[string][]string{"classifications": cls})
		return op{kind: opReclassify, method: "PUT", path: "/api/materials/" + id + "/classifications", body: body, id: id, cls: cls}
	}
	g.created++
	id := fmt.Sprintf("cur-%06d", g.created)
	cls := g.classifications(6)
	body, _ := json.Marshal(map[string]any{
		"id":              id,
		"title":           fmt.Sprintf("%s #%d", g.pick(searchTerms), g.created),
		"authors":         []string{fmt.Sprintf("Curator %d", g.rng.Intn(20))},
		"description":     g.pick(suggestTexts) + "; students measure and report what changed.",
		"kind":            g.pick([]string{"assignment", "slides", "exam", "video", "chapter"}),
		"level":           g.pick([]string{"CS0", "CS1", "CS2", "intermediate", "advanced"}),
		"language":        g.pick([]string{"C", "C++", "Java", "Python", "Go"}),
		"year":            2003 + g.rng.Intn(16),
		"classifications": cls,
	})
	return op{kind: opCreate, method: "POST", path: "/api/materials", body: body, id: id, cls: cls}
}

// importBatch takes the next n records of the import pool as one JSONL
// batch; a quarter arrive without classifications.
func (g *gen) importBatch(n int) op {
	if n > len(g.imports) {
		panic("bench: import pool exhausted") // sized in newGen; a bug if hit
	}
	var buf bytes.Buffer
	if err := ingest.WriteJSONL(&buf, g.imports[:n]); err != nil {
		panic(err) // encoding generated materials cannot fail
	}
	g.imports = g.imports[n:]
	return op{kind: opImport, body: buf.Bytes(), records: n}
}
