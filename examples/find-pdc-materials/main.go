// Finding reference material for integrating PDC in early courses (the
// paper's Sec. IV-D use case): for each non-PDC assignment an instructor
// already uses, find materials with a similar classification that also
// cover PDC topics — "replace a lecture on looping construct with one that
// ... also includes discussion of parallel loops."
//
// Run with: go run ./examples/find-pdc-materials
package main

import (
	"fmt"
	"log"

	"carcs/internal/core"
)

func main() {
	sys, err := core.NewSeeded()
	if err != nil {
		log.Fatal(err)
	}
	v := sys.View()

	// The six Nifty assignments the paper names as having PDC matches.
	inUse := []string{
		"hurricane-tracker", "2048-in-python", "campus-shuttle",
		"nbody-simulation", "image-editor", "uno",
	}
	for _, id := range inUse {
		m := v.Material(id)
		fmt.Printf("you use: %s (%s, %s)\n", m.Title, m.Level, m.Language)
		edges, err := v.PDCReplacements(id, 3)
		if err != nil {
			log.Fatal(err)
		}
		if len(edges) == 0 {
			fmt.Println("  no PDC-covering materials share two classification items")
			continue
		}
		for _, e := range edges {
			repl := v.Material(e.B)
			fmt.Printf("  candidate: %-55s (%.0f shared)\n", repl.Title, e.Score)
			for _, sh := range e.Shared {
				path := v.CS13().Path(sh)
				if path == "" {
					path = v.PDC12().Path(sh)
				}
				fmt.Printf("      shares: %s\n", path)
			}
		}
		fmt.Println()
	}

	// And one with no matches, as the paper observes for systems-oriented
	// Peachy assignments.
	fmt.Println("you use: Boggle (not in the cluster)")
	edges, err := v.PDCReplacements("boggle", 3)
	if err != nil {
		log.Fatal(err)
	}
	if len(edges) == 0 {
		fmt.Println("  no PDC-covering materials share two classification items —")
		fmt.Println("  the gap the PDC community should fill with new Peachy assignments")
	}
}
