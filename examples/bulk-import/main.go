// Bulk import: stream a JSONL file of materials into a CAR-CS system
// through the ingest pipeline — the same code path behind POST /api/import
// and `carcs import`. Pre-classified records keep their classifications;
// unclassified ones are auto-classified by the TF-IDF suggester when a
// suggestion clears the confidence threshold, and routed to the human
// review queue (with machine proposals attached) when none does.
// Duplicate IDs are skipped.
//
// Run with: go run ./examples/bulk-import
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"carcs/internal/core"
	"carcs/internal/ingest"
)

func main() {
	sys, err := core.NewSeeded()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before import: %d materials\n", sys.Len())

	f, err := os.Open("examples/bulk-import/sample.jsonl")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	imp := ingest.New(sys, ingest.Options{
		Method:    "tfidf",
		Threshold: 0.15, // low enough to auto-apply on-topic records, high
		// enough that the off-topic one drops to the review queue
	})
	sum, err := imp.Run(context.Background(), f, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported: %d added (%d auto-classified), %d routed to review, %d skipped as duplicates, %d failed\n",
		sum.Added, sum.AutoClassified, sum.Review, sum.Skipped, sum.Failed)
	fmt.Printf("after import: %d materials\n\n", sys.Len())

	// Auto-classified records carry the machine-classified tag so curators
	// can audit (or re-review) everything the suggester decided on its own.
	for _, id := range []string{"bulk-demo-mpi-sort", "bulk-demo-locks"} {
		m := sys.View().Material(id)
		if m == nil {
			continue
		}
		fmt.Printf("%s %v\n", m.ID, m.Tags)
		for _, c := range m.ClassificationIDs() {
			fmt.Printf("  - %s\n", c)
		}
	}

	// Low-confidence records wait in the workflow queue with the machine's
	// best (sub-threshold) proposals attached for the human reviewer.
	for _, sub := range sys.Workflow().Pending() {
		fmt.Printf("\npending review: %s (submitted by %s)\n", sub.Material.ID, sub.Submitter)
	}
}
