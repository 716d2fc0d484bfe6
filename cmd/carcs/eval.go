package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"carcs/internal/classify"
	"carcs/internal/core"
	"carcs/internal/learn"
	"carcs/internal/ontology"
)

// evalMetrics is one engine's scores at the two report points: precision at
// 1 (how often the single top suggestion is right) and recall/hit at 3 (how
// much of the hand labeling three suggestions recover).
type evalMetrics struct {
	P1   float64 `json:"p_at_1"`
	R1   float64 `json:"r_at_1"`
	P3   float64 `json:"p_at_3"`
	R3   float64 `json:"r_at_3"`
	Hit3 float64 `json:"hit_at_3"`
	N    int     `json:"n"`
}

func metricsOf(q1, q3 classify.Quality) evalMetrics {
	return evalMetrics{
		P1: q1.PrecisionAtK, R1: q1.RecallAtK,
		P3: q3.PrecisionAtK, R3: q3.RecallAtK, Hit3: q3.HitRate,
		N: q3.N,
	}
}

// evalOntology is everything `carcs eval` measures against one ontology.
type evalOntology struct {
	Examples      int                    `json:"examples"`
	Engines       map[string]evalMetrics `json:"engines"`
	BestHeuristic string                 `json:"best_heuristic"`
}

// evalReport is the JSON document behind -json and BENCH_5.json.
type evalReport struct {
	Params     learn.Params            `json:"params"`
	Ontologies map[string]evalOntology `json:"ontologies"`
}

// heuristicNames are the training-free (or corpus-trained but parameterless)
// engines the learned model is compared against.
var heuristicNames = []string{"keyword", "tfidf", "bayes", "ensemble"}

// runEval is the `carcs eval` subcommand: score every suggestion engine —
// the heuristics, the learned model on its own training set, and the
// learned model under k-fold cross-validation — against the hand-curated
// corpus, per ontology. With -gate it exits non-zero unless the learned
// model holds the regression floors, which is how scripts/check.sh keeps
// model-quality regressions out of the tree.
func runEval(sys *core.System, rest []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	ont := fs.String("ontology", "both", "cs13, pdc12, or both")
	jsonOut := fs.String("json", "", "write the machine-readable report to this file")
	gate := fs.Bool("gate", false, "exit non-zero if the learned model misses its quality floors")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	var onts []*ontology.Ontology
	switch *ont {
	case "both":
		onts = []*ontology.Ontology{sys.CS13(), sys.PDC12()}
	case "cs13":
		onts = []*ontology.Ontology{sys.CS13()}
	case "pdc12":
		onts = []*ontology.Ontology{sys.PDC12()}
	default:
		return fmt.Errorf("eval: unknown ontology %q", *ont)
	}

	p := learn.DefaultParams()
	report := evalReport{Params: p, Ontologies: map[string]evalOntology{}}
	mats := sys.View().Materials("")
	for _, o := range onts {
		name := "cs13"
		if o == sys.PDC12() {
			name = "pdc12"
		}
		eo := evalOntology{Engines: map[string]evalMetrics{}}

		bayes := classify.NewBayes(o)
		bayes.TrainAll(mats)
		engines := map[string]classify.Suggester{
			"keyword":  classify.SharedKeyword(o),
			"tfidf":    classify.SharedTFIDF(o),
			"bayes":    bayes,
			"ensemble": classify.NewEnsemble(bayes, classify.SharedKeyword(o), classify.SharedTFIDF(o)),
		}
		exs := learn.ExamplesFromMaterials(o, mats)
		eo.Examples = len(exs)
		model := learn.Train(o, exs, p)
		engines["learned"] = model

		for eng, s := range engines {
			q1 := classify.Evaluate(s, mats, o.Has, 1)
			q3 := classify.Evaluate(s, mats, o.Has, 3)
			eo.Engines[eng] = metricsOf(q1, q3)
		}
		eo.Engines["learned_cv"] = metricsOf(
			learn.CrossValidate(o, exs, p, 1),
			learn.CrossValidate(o, exs, p, 3),
		)

		best, bestScore := "", -1.0
		for _, eng := range heuristicNames {
			if sc := eo.Engines[eng].P1 + eo.Engines[eng].R3; sc > bestScore {
				best, bestScore = eng, sc
			}
		}
		eo.BestHeuristic = best
		report.Ontologies[name] = eo

		fmt.Printf("== %s (%d labeled materials) ==\n", name, len(exs))
		for _, eng := range append(append([]string{}, heuristicNames...), "learned", "learned_cv") {
			m := eo.Engines[eng]
			fmt.Printf("%-12s P@1=%.3f R@1=%.3f P@3=%.3f R@3=%.3f hit@3=%.3f (n=%d)\n",
				eng, m.P1, m.R1, m.P3, m.R3, m.Hit3, m.N)
		}
		fmt.Printf("best heuristic: %s\n\n", best)
	}

	if *jsonOut != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *gate {
		if err := gateEval(report); err != nil {
			return err
		}
		fmt.Println("eval gate: ok")
	}
	return nil
}

// Cross-validated floors for the CS13 corpus (98 labeled materials). The
// measured values at the time the gate was introduced were P@1=0.367 and
// R@3=0.252; the floors sit below them with headroom for benign drift but
// above what an untrained or broken model can reach. PDC12's 30 labeled
// materials are too few for stable CV floors, so it is gated on the
// in-sample comparison only.
const (
	gateCS13CVP1 = 0.30
	gateCS13CVR3 = 0.20
)

// gateEval enforces the model-quality regression floors: on every ontology
// the learned model must beat (or tie) the best heuristic on in-sample P@1
// and R@3, and on CS13 its cross-validated scores must clear fixed floors.
func gateEval(r evalReport) error {
	for name, eo := range r.Ontologies {
		lm, hm := eo.Engines["learned"], eo.Engines[eo.BestHeuristic]
		if lm.P1 < hm.P1 {
			return fmt.Errorf("eval gate: %s learned P@1 %.3f below best heuristic (%s) %.3f",
				name, lm.P1, eo.BestHeuristic, hm.P1)
		}
		if lm.R3 < hm.R3 {
			return fmt.Errorf("eval gate: %s learned R@3 %.3f below best heuristic (%s) %.3f",
				name, lm.R3, eo.BestHeuristic, hm.R3)
		}
	}
	if eo, ok := r.Ontologies["cs13"]; ok {
		cv := eo.Engines["learned_cv"]
		if cv.P1 < gateCS13CVP1 {
			return fmt.Errorf("eval gate: cs13 cross-validated P@1 %.3f below floor %.2f", cv.P1, gateCS13CVP1)
		}
		if cv.R3 < gateCS13CVR3 {
			return fmt.Errorf("eval gate: cs13 cross-validated R@3 %.3f below floor %.2f", cv.R3, gateCS13CVR3)
		}
	}
	return nil
}
