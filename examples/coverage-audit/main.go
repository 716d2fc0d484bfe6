// Coverage audit (the paper's Sec. IV-B use case): take a whole course —
// ITCS 3145, 12 slide decks and 9 assignments — and audit what it covers
// against PDC12 and CS13, surfacing both the by-design absences and the
// instructor's omissions the paper reports.
//
// Run with: go run ./examples/coverage-audit
package main

import (
	"fmt"
	"log"
	"strings"

	"carcs/internal/core"
	"carcs/internal/viz"
)

func main() {
	sys, err := core.NewSeeded()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== ITCS 3145 against the PDC12 curriculum (Fig. 2f) ===")
	pd, err := sys.View().Coverage("pdc12", "itcs3145")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(pd.Summary())
	fmt.Println()
	fmt.Print(viz.CoverageTreeASCII(pd, 2))

	fmt.Println("\nwhat the class does not cover (maximal uncovered subtrees):")
	for i, g := range pd.Gaps(pd.Ontology.RootID()) {
		if i >= 8 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %-75s %2d entries (%s)\n", g.Path, g.Entries, g.Tier)
	}
	tools := pd.Ontology.RootID() + "/pr/performance-tools"
	if !pd.Covered(tools) {
		fmt.Println("\n  -> the PDC12 view flags Performance Tools as uncovered:")
		fmt.Println("     \"the absence of tools from the class is an omission of the instructor\"")
	}

	fmt.Println("\n=== ITCS 3145 against the CS13 curriculum (Fig. 2c) ===")
	cs, err := sys.View().Coverage("cs13", "itcs3145")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cs.Summary())
	fmt.Println("\narea ranking (the paper reads PD, then AL, CN, SDF):")
	for _, a := range cs.AreaRanking() {
		if a.Pairs == 0 {
			continue
		}
		fmt.Printf("  %-4s %-45s %3d matched pairs\n", a.Code, a.Label, a.Pairs)
	}
	hc := cs.Hours(cs.Ontology.RootID())
	fmt.Printf("\ncore-hour budget touched: %.0f of %.0f suggested lecture hours (%.0f substantially)\n",
		hc.TouchedHours, hc.TotalHours, hc.SubstantialHours)
	fmt.Printf("\nuntouched CS13 areas: %s\n", strings.Join(cs.UncoveredAreas(), ", "))
	fmt.Println("  -> \"the absence of mapping to Graphics and Visualization and Intelligent")
	fmt.Println("     Systems reveals that the class could be made more engaging by having")
	fmt.Println("     some assignments or examples derived from these areas.\"")
}
