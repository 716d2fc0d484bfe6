package carcs_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carcs/internal/classify"
	"carcs/internal/core"
	"carcs/internal/corpus"
	"carcs/internal/coverage"
	"carcs/internal/ingest"
	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/replica"
	"carcs/internal/search"
	"carcs/internal/server"
	"carcs/internal/similarity"
	"carcs/internal/textproc"
	"carcs/internal/viz"
	"carcs/internal/workflow"
)

// ---------------------------------------------------------------------------
// E1 — Figure 1: entering and classifying a material.
// ---------------------------------------------------------------------------

// BenchmarkEntryClassify measures the full entry flow: highlighted ontology
// search, suggestion, material insert with relational links and search
// indexing.
func BenchmarkEntryClassify(b *testing.B) {
	sys, err := core.NewSeeded()
	if err != nil {
		b.Fatal(err)
	}
	cs13 := sys.CS13()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cs13.Search(cs13.RootID(), "iterative control")
		sugg, err := sys.Suggest("keyword", "cs13", "loop over arrays of pixels", 5)
		if err != nil {
			b.Fatal(err)
		}
		m := &material.Material{
			ID:    fmt.Sprintf("bench-entry-%d", i),
			Title: "Bench Entry", Kind: material.Assignment, Level: material.CS1,
			Description:     "loop over arrays of pixels",
			Classifications: []material.Classification{{NodeID: sugg[0].NodeID}},
		}
		if err := sys.AddMaterial(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOntologySearchCS13 is the Fig. 1b search over the ~3000-entry
// tree (E6 scale claim).
func BenchmarkOntologySearchCS13(b *testing.B) {
	cs13 := ontology.CS13()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := cs13.Search(cs13.RootID(), "parallel"); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// ---------------------------------------------------------------------------
// E2–E4 — Figure 2: coverage computation, one benchmark per panel.
// ---------------------------------------------------------------------------

func benchCoverage(b *testing.B, o *ontology.Ontology, mats []*material.Material) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := coverage.Compute(o, "bench", mats)
		if r.Materials != len(mats) {
			b.Fatal("bad report")
		}
		_ = r.AreaRanking()
	}
}

func BenchmarkFigure2aNiftyCS13(b *testing.B) {
	benchCoverage(b, ontology.CS13(), corpus.Nifty().All())
}
func BenchmarkFigure2bPeachyCS13(b *testing.B) {
	benchCoverage(b, ontology.CS13(), corpus.Peachy().All())
}
func BenchmarkFigure2cITCSCS13(b *testing.B) {
	benchCoverage(b, ontology.CS13(), corpus.ITCS3145().All())
}
func BenchmarkFigure2dNiftyPDC12(b *testing.B) {
	benchCoverage(b, ontology.PDC12(), corpus.Nifty().All())
}
func BenchmarkFigure2ePeachyPDC12(b *testing.B) {
	benchCoverage(b, ontology.PDC12(), corpus.Peachy().All())
}
func BenchmarkFigure2fITCSPDC12(b *testing.B) {
	benchCoverage(b, ontology.PDC12(), corpus.ITCS3145().All())
}

// BenchmarkFigure2Render measures producing the actual artifacts (ASCII +
// SVG) from a report.
func BenchmarkFigure2Render(b *testing.B) {
	r := coverage.Compute(ontology.CS13(), "Nifty", corpus.Nifty().All())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := viz.CoverageTreeSVG(r, 2); len(out) == 0 {
			b.Fatal("empty svg")
		}
	}
}

// ---------------------------------------------------------------------------
// E5 — Figure 3: similarity graph construction and rendering.
// ---------------------------------------------------------------------------

func BenchmarkFigure3SimilarityGraph(b *testing.B) {
	nifty, peachy := corpus.Nifty().All(), corpus.Peachy().All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := similarity.BuildBipartite(nifty, peachy, similarity.SharedCount, 2)
		if len(g.Edges) != 24 {
			b.Fatalf("edges = %d", len(g.Edges))
		}
	}
}

func BenchmarkFigure3Layout(b *testing.B) {
	g := similarity.BuildBipartite(corpus.Nifty().All(), corpus.Peachy().All(), similarity.SharedCount, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pos := viz.ForceLayout(g, 900, 700, 100); len(pos) == 0 {
			b.Fatal("no layout")
		}
	}
}

// Ablation (DESIGN.md Sec. 5): the paper's shared-count metric versus
// Jaccard and rarity-weighted overlap.
func BenchmarkAblationSimilaritySharedCount(b *testing.B) {
	benchSimilarityMetric(b, similarity.SharedCount, 2)
}
func BenchmarkAblationSimilarityJaccard(b *testing.B) {
	benchSimilarityMetric(b, similarity.Jaccard, 0.2)
}
func BenchmarkAblationSimilarityRarityWeighted(b *testing.B) {
	all := corpus.AllMaterials()
	benchSimilarityMetric(b, similarity.RarityWeighted(all), 2.5)
}

func benchSimilarityMetric(b *testing.B, m similarity.Metric, threshold float64) {
	b.Helper()
	nifty, peachy := corpus.Nifty().All(), corpus.Peachy().All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := similarity.BuildBipartite(nifty, peachy, m, threshold)
		if len(g.Nodes) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// ---------------------------------------------------------------------------
// E8/E11 — suggestion engines.
// ---------------------------------------------------------------------------

const benchDesc = "students parallelize a stencil computation over arrays with OpenMP and measure speedup"

func BenchmarkSuggestKeyword(b *testing.B) {
	s := classify.NewKeyword(ontology.CS13())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Suggest(benchDesc, 10); len(out) == 0 {
			b.Fatal("no suggestions")
		}
	}
}

func BenchmarkSuggestTFIDF(b *testing.B) {
	s := classify.NewTFIDF(ontology.CS13())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Suggest(benchDesc, 10); len(out) == 0 {
			b.Fatal("no suggestions")
		}
	}
}

func BenchmarkSuggestBayes(b *testing.B) {
	s := classify.NewBayes(ontology.PDC12())
	s.TrainAll(corpus.Peachy().All())
	s.TrainAll(corpus.ITCS3145().All())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Suggest(benchDesc, 10); len(out) == 0 {
			b.Fatal("no suggestions")
		}
	}
}

func BenchmarkRecommendCoOccurrence(b *testing.B) {
	co := classify.NewCoOccurrence(corpus.AllMaterials())
	arrays := "acm-ieee-cs-curricula-2013/sdf/fundamental-data-structures/arrays"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := co.Recommend([]string{arrays}, 2, 10); len(out) == 0 {
			b.Fatal("no recommendations")
		}
	}
}

// ---------------------------------------------------------------------------
// E13 — read-path performance: the system-level analysis calls the server
// dispatches on every request. On the seed these recompute from scratch per
// call (Bayes retrains over the corpus, the co-occurrence miner rescans it);
// with the generation-keyed cache they are memoized until a mutation bumps
// the generation.
// ---------------------------------------------------------------------------

func seededSystem(b *testing.B) *core.System {
	b.Helper()
	sys, err := core.NewSeeded()
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkSystemSuggestBayes(b *testing.B) {
	sys := seededSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sys.Suggest("bayes", "pdc12", benchDesc, 10)
		if err != nil || len(out) == 0 {
			b.Fatalf("out=%d err=%v", len(out), err)
		}
	}
}

func BenchmarkSystemRecommendCoOccurrence(b *testing.B) {
	sys := seededSystem(b)
	arrays := "acm-ieee-cs-curricula-2013/sdf/fundamental-data-structures/arrays"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := sys.Recommend([]string{arrays}, 10); len(out) == 0 {
			b.Fatal("no recommendations")
		}
	}
}

func BenchmarkSystemSuggestTFIDFPDC12(b *testing.B) {
	sys := seededSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sys.Suggest("tfidf", "pdc12", benchDesc, 10)
		if err != nil || len(out) == 0 {
			b.Fatalf("out=%d err=%v", len(out), err)
		}
	}
}

func BenchmarkSystemCoverageWarm(b *testing.B) {
	sys := seededSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sys.Coverage("cs13", "")
		if err != nil || r.Materials == 0 {
			b.Fatalf("err=%v", err)
		}
	}
}

func BenchmarkSystemSimilarityWarm(b *testing.B) {
	sys := seededSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := sys.SimilarityGraph("nifty", "peachy", 2); len(g.Nodes) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkServerSuggestBayes measures the full HTTP round trip on the
// heaviest suggestion endpoint.
func BenchmarkServerSuggestBayes(b *testing.B) {
	sys := seededSystem(b)
	h := server.New(sys, io.Discard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", "/api/suggest?ontology=pdc12&method=bayes&q=parallel+stencil+openmp", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkCurationCostModel evaluates the E8 effort model over the seeded
// corpus size.
func BenchmarkCurationCostModel(b *testing.B) {
	m := workflow.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		if m.TotalMinutes(98, 6, true) <= 0 {
			b.Fatal("bad model")
		}
	}
}

// ---------------------------------------------------------------------------
// E12 — scalability: search, coverage, similarity, server at 10k
// synthetic materials ("a scalable, central place of interaction").
// ---------------------------------------------------------------------------

func syntheticMaterials(n int) []*material.Material {
	return corpus.Synthetic(corpus.SyntheticOptions{N: n, Seed: 1}).All()
}

func BenchmarkSearchScale10k(b *testing.B) {
	e := search.NewEngine(ontology.CS13(), ontology.PDC12())
	for _, m := range syntheticMaterials(10000) {
		e.Add(m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := e.Text("simulate traffic network queues", 10); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

func BenchmarkCoverageScale10k(b *testing.B) {
	mats := syntheticMaterials(10000)
	o := ontology.CS13()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := coverage.Compute(o, "bench", mats)
		if r.Materials != len(mats) {
			b.Fatal("bad report")
		}
	}
}

func BenchmarkSimilarityScale1k(b *testing.B) {
	mats := syntheticMaterials(1000)
	left, right := mats[:500], mats[500:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = similarity.BuildBipartite(left, right, similarity.SharedCount, 2)
	}
}

func BenchmarkSnapshotRoundTrip(b *testing.B) {
	sys, err := core.NewSeeded()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := sys.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Restore(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerThroughput measures end-to-end request handling on the two
// hot read endpoints.
func BenchmarkServerThroughput(b *testing.B) {
	sys, err := core.NewSeeded()
	if err != nil {
		b.Fatal(err)
	}
	h := server.New(sys, io.Discard)
	paths := []string{
		"/api/materials?collection=peachy",
		"/api/search?q=fractal&k=5",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", paths[i%len(paths)], nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// ---------------------------------------------------------------------------
// Bulk ingestion throughput: the streaming JSONL importer behind
// POST /api/import and `carcs import`. Reported in materials/sec so the
// BENCH json records end-to-end ingest rate, 1 worker versus GOMAXPROCS.
// ---------------------------------------------------------------------------

func benchIngest(b *testing.B, workers int, autoClassify bool) {
	b.Helper()
	const n = 500
	mats := syntheticMaterials(n)
	method := "none"
	if autoClassify {
		method = "tfidf"
		// Strip the pre-assigned classifications so every record goes
		// through the suggestion engines — the expensive prepare path
		// the worker pool exists to parallelize.
		for _, m := range mats {
			m.Classifications = nil
		}
	}
	var buf bytes.Buffer
	if err := ingest.WriteJSONL(&buf, mats); err != nil {
		b.Fatal(err)
	}
	input := buf.Bytes()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := core.New()
		if err != nil {
			b.Fatal(err)
		}
		imp := ingest.New(sys, ingest.Options{Workers: workers, Method: method, Threshold: 0.05})
		sum, err := imp.Run(ctx, bytes.NewReader(input), nil)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Added != n || sum.Failed > 0 {
			b.Fatalf("summary = %+v", sum)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "mat/s")
}

func BenchmarkIngest1Worker(b *testing.B)  { benchIngest(b, 1, false) }
func BenchmarkIngestParallel(b *testing.B) { benchIngest(b, runtime.GOMAXPROCS(0), false) }
func BenchmarkIngestAutoClassify1Worker(b *testing.B) {
	benchIngest(b, 1, true)
}
func BenchmarkIngestAutoClassifyParallel(b *testing.B) {
	benchIngest(b, runtime.GOMAXPROCS(0), true)
}

// BenchmarkReadUnderIngest measures read-path throughput while a bulk
// import is actively committing: N reader goroutines hammer the coverage,
// similarity, and search paths for the whole duration of a JSONL import and
// the benchmark reports completed reads per second. This is the contention
// profile the snapshot-isolated read model is built for — before it, every
// read serialized against the committer on System.mu.
func BenchmarkReadUnderIngest(b *testing.B) {
	const readers = 8
	mats := syntheticMaterials(1000)
	var buf bytes.Buffer
	if err := ingest.WriteJSONL(&buf, mats); err != nil {
		b.Fatal(err)
	}
	input := buf.Bytes()
	ctx := context.Background()
	var totalReads int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := core.NewSeeded()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var reads int64
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for n := r; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					v := sys.View()
					switch n % 3 {
					case 0:
						if _, err := v.Coverage("cs13", ""); err != nil {
							b.Error(err)
							return
						}
					case 1:
						v.SimilarityGraph("nifty", "peachy", 2)
					default:
						v.SearchText("parallel graph simulation", 10)
					}
					atomic.AddInt64(&reads, 1)
				}
			}(r)
		}
		imp := ingest.New(sys, ingest.Options{Workers: 2, Method: "none"})
		sum, err := imp.Run(ctx, bytes.NewReader(input), nil)
		close(stop)
		wg.Wait()
		if err != nil || sum.Added != len(mats) {
			b.Fatalf("summary = %+v err = %v", sum, err)
		}
		totalReads += atomic.LoadInt64(&reads)
	}
	b.ReportMetric(float64(totalReads)/b.Elapsed().Seconds(), "reads/s")
}

// ---------------------------------------------------------------------------
// Replication: routed read throughput over a leader + two followers versus
// the same reads against a single node, both over real HTTP. The router adds
// a proxy hop per read, but the scatter spreads the read work over three
// processes' worth of snapshot views; BENCH_3.json records both sides.
// ---------------------------------------------------------------------------

// benchCluster builds a seeded durable leader, two caught-up followers, and
// a started router, all on real listeners.
func benchCluster(b *testing.B) (routerURL, leaderURL string) {
	b.Helper()
	sys, p, err := core.OpenDurable(b.TempDir(), core.DurableOptions{Seed: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	leader := server.New(sys, io.Discard)
	leader.SetPersister(p)
	leader.SetHub(replica.NewHub(p, 0))
	lts := httptest.NewServer(leader)
	b.Cleanup(lts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	var followers []string
	for i := 0; i < 2; i++ {
		f, err := replica.Bootstrap(ctx, replica.FollowerConfig{LeaderURL: lts.URL})
		if err != nil {
			b.Fatal(err)
		}
		fsrv := server.New(f.System(), io.Discard)
		fsrv.SetFollower(f)
		fts := httptest.NewServer(fsrv)
		b.Cleanup(fts.Close)
		go f.Run(ctx)
		for deadline := time.Now().Add(30 * time.Second); f.Applied() < p.Seq(); {
			if time.Now().After(deadline) {
				b.Fatal("follower never caught up")
			}
			time.Sleep(time.Millisecond)
		}
		followers = append(followers, fts.URL)
	}

	rt, err := replica.NewRouter(replica.RouterConfig{
		Backends:      append([]string{lts.URL}, followers...),
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	rt.Start()
	b.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	b.Cleanup(rts.Close)
	return rts.URL, lts.URL
}

func benchHTTPReads(b *testing.B, baseURL string) {
	b.Helper()
	paths := []string{
		"/api/materials?collection=peachy",
		"/api/search?q=fractal&k=5",
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	var n int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := atomic.AddInt64(&n, 1)
			resp, err := client.Get(baseURL + paths[i%int64(len(paths))])
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

// BenchmarkRouterScatterReads drives the hot read endpoints through the
// router over a three-node cluster.
func BenchmarkRouterScatterReads(b *testing.B) {
	routerURL, _ := benchCluster(b)
	benchHTTPReads(b, routerURL)
}

// BenchmarkSingleNodeHTTPReads is the baseline: the same reads against the
// leader directly, no router hop.
func BenchmarkSingleNodeHTTPReads(b *testing.B) {
	sys, err := core.NewSeeded()
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(server.New(sys, io.Discard))
	b.Cleanup(ts.Close)
	benchHTTPReads(b, ts.URL)
}

// BenchmarkTextPipeline isolates the NLP substrate.
func BenchmarkTextPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if terms := textproc.Terms(benchDesc); len(terms) == 0 {
			b.Fatal("no terms")
		}
	}
}

func BenchmarkPorterStem(b *testing.B) {
	words := []string{"parallelization", "synchronized", "computations", "iterative", "scheduling"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = textproc.Stem(words[i%len(words)])
	}
}

// ---------------------------------------------------------------------------
// Extension features: phrase search, query language, spell correction,
// sunburst rendering, revision migration, ensemble suggestion.
// ---------------------------------------------------------------------------

func BenchmarkPhraseSearch(b *testing.B) {
	e := search.NewEngine(ontology.CS13(), ontology.PDC12())
	for _, m := range corpus.AllMaterials() {
		e.Add(m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := e.Phrase("monte carlo"); len(got) == 0 {
			b.Fatal("no phrase hits")
		}
	}
}

func BenchmarkQueryLanguage(b *testing.B) {
	e := search.NewEngine(ontology.CS13(), ontology.PDC12())
	for _, m := range corpus.AllMaterials() {
		e.Add(m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits, err := e.Query(`collection:peachy in:cs13/pd year:2018..2019 fire`, 10)
		if err != nil {
			b.Fatal(err)
		}
		_ = hits
	}
}

func BenchmarkSpellCorrection(b *testing.B) {
	e := search.NewEngine(ontology.CS13(), ontology.PDC12())
	for _, m := range corpus.AllMaterials() {
		e.Add(m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, didYouMean := e.TextCorrected("fractel simulaton", 5); didYouMean == "" {
			b.Fatal("no correction")
		}
	}
}

func BenchmarkSunburstRender(b *testing.B) {
	r := coverage.Compute(ontology.CS13(), "Nifty", corpus.Nifty().All())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := viz.CoverageSunburstSVG(r, 3, 640); len(out) == 0 {
			b.Fatal("empty sunburst")
		}
	}
}

func BenchmarkRevisionMigration(b *testing.B) {
	old, next := ontology.PDC12(), ontology.PDC19Draft()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ontology.BuildMigration(old, next, 0.25)
		if len(m.Mapping) == 0 {
			b.Fatal("empty migration")
		}
	}
}

func BenchmarkSuggestEnsemble(b *testing.B) {
	cs13 := ontology.CS13()
	ens := classify.NewEnsemble(classify.NewKeyword(cs13), classify.NewTFIDF(cs13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := ens.Suggest(benchDesc, 10); len(out) == 0 {
			b.Fatal("no suggestions")
		}
	}
}

func BenchmarkBloomDepthReport(b *testing.B) {
	mats := corpus.ITCS3145().All()
	o := ontology.PDC12()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := coverage.ComputeDepth(o, mats); len(r.Entries) == 0 {
			b.Fatal("empty depth report")
		}
	}
}
