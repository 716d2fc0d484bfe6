// Command carcs is the CAR-CS command-line interface over the seeded
// repository: list and inspect materials, compute coverage and gaps, build
// similarity graphs, search, suggest classifications, and export snapshots.
//
// Usage:
//
//	carcs [-data DIR] <subcommand>
//
//	carcs stats
//	carcs list [-collection nifty] [-kind assignment] [-level CS1]
//	carcs show <material-id>
//	carcs coverage -ontology cs13 [-collection itcs3145] [-depth 2]
//	carcs gaps -ontology pdc12 [-collection peachy] [-core]
//	carcs similarity [-left nifty] [-right peachy] [-threshold 2]
//	carcs search -q "forest fire"
//	carcs query -q 'collection:nifty level:CS1 in:cs13/sdf arrays'
//	carcs depth -ontology pdc12 -collection itcs3145
//	carcs ontology-search -ontology cs13 -q "iterative control"
//	carcs suggest -ontology cs13 -q "loop over pixel arrays" [-method tfidf]
//	carcs recommend -entry <node-id> [-entry <node-id>...]
//	carcs replacements <material-id>
//	carcs migrate
//	carcs snapshot -o state.json
//	carcs import [-workers N] [-method tfidf] [-threshold 0.3] <file.jsonl>
//	carcs gen -n 100000 [-seed 1] [-tenants 8] [-unclassified] -o corpus-%s.jsonl
//	carcs train [-epochs 12] [-lr 0.5] [-folds 5] [-seed 1]
//	carcs eval [-ontology both] [-json report.json] [-gate]
//
// With -data, the repository is opened from (and journaled to) DIR instead
// of being rebuilt from the embedded seed on every run, so the CLI sees the
// same durable state a carcs-server pointed at DIR would serve.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"carcs/internal/core"
	"carcs/internal/corpus"
	"carcs/internal/coverage"
	"carcs/internal/ingest"
	"carcs/internal/learn"
	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/search"
	"carcs/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "carcs:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// A leading -data DIR opens the durable store instead of the embedded
	// seed; subcommand flags are parsed per-subcommand after it.
	var dataDir string
	switch {
	case len(args) >= 2 && (args[0] == "-data" || args[0] == "--data"):
		dataDir, args = args[1], args[2:]
	case len(args) >= 1 && strings.HasPrefix(args[0], "-data="):
		dataDir, args = strings.TrimPrefix(args[0], "-data="), args[1:]
	case len(args) >= 1 && strings.HasPrefix(args[0], "--data="):
		dataDir, args = strings.TrimPrefix(args[0], "--data="), args[1:]
	}
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (stats, list, show, coverage, gaps, similarity, search, query, depth, ontology-search, suggest, recommend, replacements, migrate, import, train, eval, snapshot, gen)")
	}
	if args[0] == "gen" {
		// Pure generation: no system (and no seed-corpus build) needed.
		return cmdGen(args[1:])
	}
	var sys *core.System
	var err error
	if dataDir != "" {
		var p *core.Persister
		sys, p, err = core.OpenDurable(dataDir, core.DurableOptions{Seed: true})
		if err != nil {
			return err
		}
		defer func() {
			if cerr := p.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "carcs: checkpoint:", cerr)
			}
		}()
	} else {
		sys, err = core.NewSeeded()
		if err != nil {
			return err
		}
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "stats":
		st := sys.View().Stats()
		fmt.Printf("materials:   %d\n", st.Materials)
		fmt.Printf("collections: %s\n", strings.Join(st.Collections, ", "))
		fmt.Printf("entries:     %d distinct classification entries in use (%d links)\n", st.Entries, st.Links)
		fmt.Printf("cs13:        %d ontology entries\n", st.CS13Size)
		fmt.Printf("pdc12:       %d ontology entries\n", st.PDC12Size)
		return nil

	case "list":
		fs := flag.NewFlagSet("list", flag.ContinueOnError)
		collection := fs.String("collection", "", "filter by collection")
		kind := fs.String("kind", "", "filter by kind")
		level := fs.String("level", "", "filter by course level")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		var filters []search.Filter
		if *collection != "" {
			filters = append(filters, search.ByCollection(*collection))
		}
		if *kind != "" {
			filters = append(filters, search.ByKind(material.Kind(*kind)))
		}
		if *level != "" {
			filters = append(filters, search.ByLevel(material.Level(*level)))
		}
		for _, m := range sys.View().Select(search.AllOf(filters...)) {
			fmt.Printf("%-55s %-10s %-12s %4d  %s\n", m.ID, m.Kind, m.Level, m.Year, m.Collection)
		}
		return nil

	case "show":
		if len(rest) != 1 {
			return fmt.Errorf("show needs exactly one material id")
		}
		m := sys.View().Material(rest[0])
		if m == nil {
			return fmt.Errorf("no material %q", rest[0])
		}
		fmt.Printf("%s (%s, %s, %d)\n%s\n", m.Title, m.Kind, m.Level, m.Year, m.Description)
		fmt.Printf("language: %s   collection: %s\n", m.Language, m.Collection)
		fmt.Println("classifications:")
		for _, id := range m.ClassificationIDs() {
			path := sys.CS13().Path(id)
			if path == "" {
				path = sys.PDC12().Path(id)
			}
			fmt.Printf("  - %s\n", path)
		}
		return nil

	case "coverage":
		fs := flag.NewFlagSet("coverage", flag.ContinueOnError)
		ont := fs.String("ontology", "cs13", "cs13 or pdc12")
		collection := fs.String("collection", "", "collection (empty for all)")
		depth := fs.Int("depth", 2, "tree depth to print (0 for unlimited)")
		svg := fs.String("svg", "", "also write an SVG rendering to this file")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		rep, err := sys.View().Coverage(*ont, *collection)
		if err != nil {
			return err
		}
		fmt.Print(rep.Summary())
		fmt.Println()
		fmt.Print(viz.CoverageTreeASCII(rep, *depth))
		if *svg != "" {
			if err := os.WriteFile(*svg, []byte(viz.CoverageTreeSVG(rep, *depth)), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *svg)
		}
		return nil

	case "gaps":
		fs := flag.NewFlagSet("gaps", flag.ContinueOnError)
		ont := fs.String("ontology", "pdc12", "cs13 or pdc12")
		collection := fs.String("collection", "", "collection (empty for all)")
		coreOnly := fs.Bool("core", false, "only gaps containing core-tier entries")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		rep, err := sys.View().Coverage(*ont, *collection)
		if err != nil {
			return err
		}
		gaps := rep.Gaps(rep.Ontology.RootID())
		if *coreOnly {
			gaps = rep.CoreGaps(rep.Ontology.RootID())
		}
		for _, g := range gaps {
			fmt.Printf("%-90s %3d entries  %s\n", g.Path, g.Entries, g.Tier)
		}
		return nil

	case "similarity":
		fs := flag.NewFlagSet("similarity", flag.ContinueOnError)
		left := fs.String("left", "nifty", "left collection")
		right := fs.String("right", "peachy", "right collection")
		threshold := fs.Int("threshold", 2, "minimum shared classification items")
		dot := fs.String("dot", "", "write Graphviz DOT to this file")
		svg := fs.String("svg", "", "write an SVG rendering to this file")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		g, err := sys.View().SimilarityGraph(context.Background(), *left, *right, *threshold)
		if err != nil {
			return err
		}
		fmt.Printf("%d nodes, %d edges, %.0f%% isolated\n", len(g.Nodes), len(g.Edges), 100*g.IsolationRatio())
		for _, comp := range g.Components(2) {
			fmt.Printf("cluster (%d): %s\n", len(comp), strings.Join(comp, ", "))
		}
		for _, e := range g.Edges {
			fmt.Printf("  %s -- %s (%d shared)\n", e.A, e.B, len(e.Shared))
		}
		if *dot != "" {
			if err := os.WriteFile(*dot, []byte(viz.SimilarityDOT(g, "similarity")), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *dot)
		}
		if *svg != "" {
			if err := os.WriteFile(*svg, []byte(viz.SimilaritySVG(g, 900, 700)), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *svg)
		}
		return nil

	case "search":
		fs := flag.NewFlagSet("search", flag.ContinueOnError)
		q := fs.String("q", "", "free-text query")
		k := fs.Int("k", 10, "max results")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *q == "" {
			return fmt.Errorf("search needs -q")
		}
		hits, didYouMean := sys.View().SearchText(*q, *k)
		if didYouMean != "" {
			fmt.Printf("did you mean: %s\n", didYouMean)
		}
		for _, h := range hits {
			fmt.Printf("%6.3f  %-55s %s\n", h.Score, h.Material.ID, h.Material.Title)
		}
		return nil

	case "query":
		fs := flag.NewFlagSet("query", flag.ContinueOnError)
		q := fs.String("q", "", `structured query, e.g. 'collection:nifty level:CS1 in:cs13/sdf arrays'`)
		k := fs.Int("k", 20, "max results")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *q == "" {
			return fmt.Errorf("query needs -q")
		}
		hits, err := sys.View().SearchQuery(*q, *k)
		if err != nil {
			return err
		}
		for _, h := range hits {
			fmt.Printf("%6.3f  %-55s %-10s %s\n", h.Score, h.Material.ID, h.Material.Kind, h.Material.Collection)
		}
		return nil

	case "depth":
		fs := flag.NewFlagSet("depth", flag.ContinueOnError)
		ont := fs.String("ontology", "pdc12", "cs13 or pdc12")
		collection := fs.String("collection", "itcs3145", "collection (empty for all)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		o := sys.OntologyByName(*ont)
		if o == nil {
			return fmt.Errorf("unknown ontology %q", *ont)
		}
		rep := coverage.ComputeDepth(o, sys.View().Materials(*collection))
		fmt.Printf("Bloom depth vs %s: %d met, %d shallow, %d unrated (%.0f%% rated)\n",
			o.Name(), rep.Met, rep.Shallow, rep.Unrated, 100*rep.RatedFraction())
		for _, e := range rep.ShallowEntries() {
			fmt.Printf("  shallow: %-45s covers %q at %s, curriculum expects %s\n",
				e.MaterialID, e.Path, e.Actual, e.Expected)
		}
		return nil

	case "ontology-search":
		fs := flag.NewFlagSet("ontology-search", flag.ContinueOnError)
		ont := fs.String("ontology", "cs13", "cs13 or pdc12")
		q := fs.String("q", "", "query")
		k := fs.Int("k", 15, "max results")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		o := sys.OntologyByName(*ont)
		if o == nil {
			return fmt.Errorf("unknown ontology %q", *ont)
		}
		if *q == "" {
			return fmt.Errorf("ontology-search needs -q")
		}
		for _, p := range o.SearchPaths(*q, *k) {
			fmt.Println(p)
		}
		return nil

	case "suggest":
		fs := flag.NewFlagSet("suggest", flag.ContinueOnError)
		ont := fs.String("ontology", "cs13", "cs13 or pdc12")
		method := fs.String("method", "tfidf", "keyword, tfidf, bayes, learned, or ensemble")
		q := fs.String("q", "", "material description")
		k := fs.Int("k", 10, "max suggestions")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *q == "" {
			return fmt.Errorf("suggest needs -q")
		}
		sugg, err := sys.View().Suggest(context.Background(), *method, *ont, *q, *k)
		if err != nil {
			return err
		}
		for _, sg := range sugg {
			fmt.Printf("%6.3f  %s\n", sg.Score, sg.Path)
		}
		return nil

	case "recommend":
		fs := flag.NewFlagSet("recommend", flag.ContinueOnError)
		var entries multiFlag
		fs.Var(&entries, "entry", "already-selected entry (repeatable)")
		k := fs.Int("k", 10, "max recommendations")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if len(entries) == 0 {
			return fmt.Errorf("recommend needs at least one -entry")
		}
		for _, r := range sys.View().Recommend(entries, *k) {
			fmt.Printf("conf=%.2f supp=%.3f n=%d  %s\n", r.Confidence, r.Support, r.Count, r.Then)
		}
		return nil

	case "replacements":
		if len(rest) != 1 {
			return fmt.Errorf("replacements needs exactly one material id")
		}
		edges, err := sys.View().PDCReplacements(rest[0], 10)
		if err != nil {
			return err
		}
		if len(edges) == 0 {
			fmt.Println("no PDC-covering materials share two classification items with this one")
			return nil
		}
		for _, e := range edges {
			fmt.Printf("%2.0f shared  %s\n", e.Score, e.B)
			for _, sh := range e.Shared {
				fmt.Printf("           - %s\n", sh)
			}
		}
		return nil

	case "export":
		fs := flag.NewFlagSet("export", flag.ContinueOnError)
		ont := fs.String("ontology", "cs13", "cs13 or pdc12")
		out := fs.String("o", "", "output CSV file (default stdout)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		o := sys.OntologyByName(*ont)
		if o == nil {
			return fmt.Errorf("unknown ontology %q", *ont)
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return o.ExportCSV(w)

	case "compare":
		fs := flag.NewFlagSet("compare", flag.ContinueOnError)
		ont := fs.String("ontology", "cs13", "cs13 or pdc12")
		a := fs.String("a", "nifty", "first collection")
		bb := fs.String("b", "peachy", "second collection")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		ra, err := sys.View().Coverage(*ont, *a)
		if err != nil {
			return err
		}
		rb, err := sys.View().Coverage(*ont, *bb)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n%s\n", ra.String(), rb.String())
		fmt.Printf("alignment (Jaccard over covered entries): %.3f\n\n", coverage.Alignment(ra, rb))
		diff := coverage.Diff(ra, rb)
		onlyA, onlyB := 0, 0
		for _, d := range diff {
			if d.OnlyIn == ra.Collection {
				onlyA++
			} else {
				onlyB++
			}
		}
		fmt.Printf("%d entries only in %s, %d only in %s; first 10:\n", onlyA, *a, onlyB, *bb)
		for i, d := range diff {
			if i >= 10 {
				break
			}
			fmt.Printf("  [%s] %s\n", d.OnlyIn, d.Path)
		}
		return nil

	case "migrate":
		// Preview how the corpus's PDC12 classifications migrate to the
		// hypothetical PDC19 draft revision.
		old, next := ontology.PDC12(), ontology.PDC19Draft()
		mig := ontology.BuildMigration(old, next, 0.25)
		fmt.Printf("PDC12 -> PDC19 draft: %.0f%% of %d entries map automatically (%d ambiguous, %d dropped)\n",
			100*mig.Coverage(old), len(old.Classifiable()), len(mig.Ambiguous), len(mig.Dropped))
		moved := 0
		for from, to := range mig.Mapping {
			if old.Path(from) != "" && relPath(old, from) != relPath(next, to) {
				moved++
			}
		}
		fmt.Printf("%d entries change their position in the tree, e.g.:\n", moved)
		shown := 0
		for _, from := range old.Classifiable() {
			to, ok := mig.Mapping[from]
			if !ok || relPath(old, from) == relPath(next, to) {
				continue
			}
			fmt.Printf("  %s\n    -> %s\n", old.Path(from), next.Path(to))
			if shown++; shown >= 5 {
				break
			}
		}
		review := 0
		for _, m := range sys.View().Materials("") {
			var pdcIDs []string
			for _, id := range m.ClassificationIDs() {
				if old.Has(id) {
					pdcIDs = append(pdcIDs, id)
				}
			}
			if len(pdcIDs) == 0 {
				continue
			}
			_, needs := mig.Apply(pdcIDs)
			review += len(needs)
		}
		fmt.Printf("corpus impact: %d classification links need manual review after migration\n", review)
		return nil

	case "import":
		fs := flag.NewFlagSet("import", flag.ContinueOnError)
		workers := fs.Int("workers", 0, "prepare workers (0 = GOMAXPROCS)")
		method := fs.String("method", "tfidf", "auto-classification method (tfidf, keyword, bayes, learned, ensemble, none)")
		threshold := fs.Float64("threshold", 0, "minimum confidence to auto-apply a suggestion (0 = the method's default)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("import needs exactly one JSONL file (use - for stdin)")
		}
		var in io.Reader = os.Stdin
		if name := fs.Arg(0); name != "-" {
			f, err := os.Open(name)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		if *threshold < 0 || *threshold > 1 {
			return fmt.Errorf("threshold must be in [0,1]")
		}
		// Ctrl-C cancels between items; everything committed so far stays
		// (and, with -data, is already journaled).
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
		defer cancel()
		imp := ingest.New(sys, ingest.Options{
			Workers:   *workers,
			Method:    *method,
			Threshold: *threshold,
		})
		sum, err := imp.Run(ctx, in, nil)
		if sum.Total > 0 || err == nil {
			fmt.Printf("records:         %d\n", sum.Total)
			fmt.Printf("added:           %d (%d auto-classified)\n", sum.Added, sum.AutoClassified)
			fmt.Printf("routed to review:%d\n", sum.Review)
			fmt.Printf("skipped (dupes): %d\n", sum.Skipped)
			fmt.Printf("failed:          %d\n", sum.Failed)
		}
		if err != nil {
			return err
		}
		if sum.Failed > 0 {
			return fmt.Errorf("%d records failed", sum.Failed)
		}
		return nil

	case "train":
		fs := flag.NewFlagSet("train", flag.ContinueOnError)
		def := learn.DefaultParams()
		epochs := fs.Int("epochs", def.Epochs, "SGD passes over the training set")
		lr := fs.Float64("lr", def.LearnRate, "initial learning rate")
		l2 := fs.Float64("l2", def.L2, "L2 regularization strength")
		folds := fs.Int("folds", def.Folds, "held-out folds for Platt calibration")
		seed := fs.Uint64("seed", def.Seed, "deterministic shuffle seed")
		hard := fs.Int("hard-negatives", def.HardNegatives, "hardest wrong classes pushed down per example")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		p := learn.Params{
			Epochs: *epochs, LearnRate: *lr, L2: *l2,
			Folds: *folds, Seed: *seed, HardNegatives: *hard,
		}
		if err := sys.TrainLearned(p); err != nil {
			return err
		}
		for _, m := range sys.LearnStats().Models {
			fmt.Printf("%-6s v%d: trained on %d examples, %d classes\n",
				m.Ontology, m.Version, m.Examples, m.Classes)
		}
		if dataDir == "" {
			fmt.Println("note: no -data directory, so the trained model is not persisted")
		}
		return nil

	case "eval":
		return runEval(sys, rest)

	case "snapshot":
		fs := flag.NewFlagSet("snapshot", flag.ContinueOnError)
		out := fs.String("o", "carcs-snapshot.json", "output file")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sys.View().Snapshot(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
		return nil
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// relPath strips the ontology root label from a display path so the two
// revisions' paths compare structurally.
func relPath(o *ontology.Ontology, id string) string {
	p := o.Path(id)
	if i := strings.Index(p, " :: "); i >= 0 {
		return p[i+4:]
	}
	return p
}

// cmdGen is the deterministic synthetic-corpus generator behind the scale
// harness: it streams JSONL in the import record shape, so its output pipes
// straight into carcs import or POST /api/t/{name}/import. With -tenants>1
// it writes one file per workspace (-o must contain %s), each generated
// from its own derived seed so corpora differ across workspaces while the
// whole set stays reproducible from one -seed.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	n := fs.Int("n", 10000, "materials to generate (per tenant)")
	seed := fs.Int64("seed", 1, "generator seed")
	tenants := fs.Int("tenants", 1, "number of workspace corpora to generate")
	meanCls := fs.Int("mean-cls", 5, "mean classifications per material")
	pdc := fs.Float64("pdc", 0.3, "fraction of materials also classified against PDC12")
	out := fs.String("o", "-", "output JSONL file (- for stdout); with -tenants>1 it must contain %s, expanded to each workspace name")
	unclassified := fs.Bool("unclassified", false, "omit classifications so import exercises auto-classification")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n <= 0 || *tenants <= 0 {
		return fmt.Errorf("gen: -n and -tenants must be positive")
	}
	writeOne := func(w io.Writer, opt corpus.SyntheticOptions) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		enc := json.NewEncoder(bw)
		if err := corpus.SyntheticEach(opt, func(m *material.Material) error {
			rec := ingest.Record{
				ID: m.ID, Title: m.Title, Authors: m.Authors, URL: m.URL,
				Description: m.Description, Kind: string(m.Kind), Level: string(m.Level),
				Language: m.Language, Datasets: m.Datasets, Year: m.Year,
				Collection: "synthetic", Tags: m.Tags,
			}
			if !*unclassified {
				for _, c := range m.Classifications {
					rec.Classifications = append(rec.Classifications, c.NodeID)
				}
			}
			return enc.Encode(rec)
		}); err != nil {
			return err
		}
		return bw.Flush()
	}
	if *tenants == 1 {
		opt := corpus.SyntheticOptions{N: *n, Seed: *seed, MeanClassifications: *meanCls, PDCFraction: *pdc}
		if *out == "-" {
			return writeOne(os.Stdout, opt)
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := writeOne(f, opt); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if !strings.Contains(*out, "%s") {
		return fmt.Errorf("gen: with -tenants>1, -o must contain %%s (one file per workspace)")
	}
	for i := 0; i < *tenants; i++ {
		name := fmt.Sprintf("ws-%02d", i)
		opt := corpus.SyntheticOptions{
			N: *n, Seed: *seed + int64(i)*7919, MeanClassifications: *meanCls,
			PDCFraction: *pdc, IDPrefix: fmt.Sprintf("%s-", name),
		}
		f, err := os.Create(fmt.Sprintf(*out, name))
		if err != nil {
			return err
		}
		if err := writeOne(f, opt); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "gen: %s: %d materials\n", fmt.Sprintf(*out, name), *n)
	}
	return nil
}
