// Quickstart: stand up a CAR-CS system, enter and classify a new material
// (with suggestion assistance), and ask the three questions the paper
// demonstrates — what does my material cover, what is similar to it, and
// what does the whole repository look like.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"carcs/internal/core"
	"carcs/internal/material"
)

func main() {
	// A system pre-seeded with the paper's three collections: ~65 Nifty
	// assignments, 11 Peachy Parallel assignments, and the 21 materials
	// of ITCS 3145.
	sys, err := core.NewSeeded()
	if err != nil {
		log.Fatal(err)
	}
	st := sys.View().Stats()
	fmt.Printf("seeded repository: %d materials in %v\n\n", st.Materials, st.Collections)

	// Describe a new assignment and let the suggester propose entries
	// from the ~3000-entry CS13 ontology.
	desc := "Students parallelize a Game of Life grid with OpenMP pragmas, " +
		"looping over arrays of cells and measuring speedup across cores."
	fmt.Println("suggested classifications for the new assignment:")
	sugg, err := sys.View().Suggest(context.Background(), "tfidf", "cs13", desc, 5)
	if err != nil {
		log.Fatal(err)
	}
	var chosen []material.Classification
	for _, sg := range sugg {
		fmt.Printf("  %.3f  %s\n", sg.Score, sg.Path)
		chosen = append(chosen, material.Classification{NodeID: sg.NodeID})
	}

	// Enter the material with the accepted suggestions.
	m := &material.Material{
		ID:              "parallel-game-of-life",
		Title:           "Parallel Game of Life",
		Authors:         []string{"You"},
		URL:             "https://example.edu/pgol",
		Description:     desc,
		Kind:            material.Assignment,
		Level:           material.CS2,
		Language:        "C",
		Year:            2019,
		Collection:      "my-course",
		Classifications: chosen,
	}
	if err := sys.AddMaterial(m); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nadded %q with %d classifications\n\n", m.Title, len(m.Classifications))

	// What entries commonly co-occur with the ones we picked?
	if recs := sys.View().Recommend(m.ClassificationIDs(), 3); len(recs) > 0 {
		fmt.Println("entries commonly used together with your selection:")
		for _, r := range recs {
			fmt.Printf("  conf %.2f  %s\n", r.Confidence, r.Then)
		}
		fmt.Println()
	}

	// Free-text search across the repository.
	fmt.Println("search 'forest fire simulation':")
	hits, _ := sys.View().SearchText("forest fire simulation", 3)
	for _, h := range hits {
		fmt.Printf("  %.3f  %s (%s)\n", h.Score, h.Material.Title, h.Material.Collection)
	}

	// And the repository-wide PDC12 coverage picture.
	rep, err := sys.View().Coverage("pdc12", "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", rep.Summary())
}
