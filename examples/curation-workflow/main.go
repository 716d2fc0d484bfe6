// Curation workflow (the paper's Sec. III-A crowdsourced model and the
// Sec. V future-work account system): instructors upload materials,
// editors with curriculum credentials review them, less knowledgeable users
// suggest metadata fixes that an editor must verify, and everything lands
// in an audit trail. The example also prices the effort with the curation
// cost model calibrated on the paper's "15-25 minutes per item" report.
//
// Run with: go run ./examples/curation-workflow
package main

import (
	"context"
	"fmt"
	"log"

	"carcs/internal/core"
	"carcs/internal/material"
	"carcs/internal/workflow"
)

func main() {
	sys, err := core.NewSeeded()
	if err != nil {
		log.Fatal(err)
	}
	wf := sys.Workflow()

	// Accounts: one of each role.
	wf.Register("prof-novak", workflow.RoleSubmitter)
	wf.Register("dr-chen", workflow.RoleEditor)
	wf.Register("student-sam", workflow.RoleUser)
	fmt.Println("registered prof-novak (submitter), dr-chen (editor), student-sam (user)")

	// The submitter uploads a material, classified with suggester help.
	desc := "Implement a work-stealing task pool in C and use it to parallelize recursive Fibonacci and tree sums."
	sugg, err := sys.View().Suggest(context.Background(), "tfidf", "pdc12", desc, 3)
	if err != nil {
		log.Fatal(err)
	}
	var cls []material.Classification
	fmt.Println("\nsuggested PDC12 classifications:")
	for _, sg := range sugg {
		fmt.Printf("  %.3f  %s\n", sg.Score, sg.Path)
		cls = append(cls, material.Classification{NodeID: sg.NodeID})
	}
	m := &material.Material{
		ID: "work-stealing-task-pool", Title: "Work-Stealing Task Pool",
		Kind: material.Assignment, Level: material.Intermediate,
		Language: "C", Year: 2019, URL: "https://example.edu/wstp",
		Description: desc, Collection: "community",
		Classifications: cls,
	}
	sub, err := wf.Submit("prof-novak", m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubmission #%d is %s\n", sub.ID, sub.Status)

	// A plain user may not review...
	if err := wf.Review("student-sam", sub.ID, workflow.StatusApproved, ""); err != nil {
		fmt.Println("student review rejected:", err)
	}
	// ...but may suggest a metadata fix, which the editor verifies.
	edit, err := wf.SuggestEdit("student-sam", m.ID, "language", "C", "C11")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("student-sam suggested edit #%d (%s: %q -> %q)\n", edit.ID, edit.Field, edit.OldValue, edit.NewValue)

	// The editor works the queues.
	fmt.Printf("\neditor queue: %d pending submission(s), %d unverified edit(s)\n",
		len(wf.Pending()), len(wf.UnverifiedEdits()))
	if err := wf.Review("dr-chen", sub.ID, workflow.StatusApproved, "solid scaffolding"); err != nil {
		log.Fatal(err)
	}
	if err := wf.VerifyEdit("dr-chen", edit.ID, true); err != nil {
		log.Fatal(err)
	}
	// Approved material enters the repository proper.
	if err := sys.AddMaterial(m); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("approved and installed %q; repository now holds %d materials\n", m.Title, sys.Len())

	// Audit trail.
	fmt.Println("\naudit log:")
	for _, e := range wf.Audit() {
		fmt.Printf("  #%d %-12s %-12s %s\n", e.Seq, e.Actor, e.Action, e.Detail)
	}

	// What would classifying a whole course cost?
	model := workflow.DefaultCostModel()
	fmt.Printf("\ncuration cost model (%s):\n", model)
	for _, n := range []int{21, 98, 500} {
		fmt.Printf("  %3d items: manual %5.1f h, with suggestions %5.1f h (%.2fx)\n",
			n, model.TotalMinutes(n, 6, false)/60, model.TotalMinutes(n, 6, true)/60, model.Speedup(n, 6))
	}
}
