package carcs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"carcs/internal/core"
	"carcs/internal/corpus"
	"carcs/internal/coverage"
	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/server"
	"carcs/internal/similarity"
	"carcs/internal/viz"
	"carcs/internal/workflow"
)

// TestEndToEndLifecycle drives the full system the way a deployment would:
// seed, serve over HTTP, submit + review a new material through the API,
// query it back, snapshot over HTTP, restore into a second system, and
// check the restored system still reproduces the paper's figures.
func TestEndToEndLifecycle(t *testing.T) {
	sys, err := core.NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	sys.Workflow().Register("prof", workflow.RoleSubmitter)
	sys.Workflow().Register("ed", workflow.RoleEditor)
	ts := httptest.NewServer(server.New(sys, io.Discard))
	defer ts.Close()

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return out
	}
	post := func(path, user string, body any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(body)
		req, _ := http.NewRequest("POST", ts.URL+path, bytes.NewReader(b))
		req.Header.Set("X-User", user)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Status over the wire.
	if st := get("/api/status"); st["Materials"].(float64) != 98 {
		t.Fatalf("status = %v", st)
	}

	// Submit a material, editor approves it.
	m := map[string]any{
		"id": "net-ring-lab", "title": "Network Ring Lab", "kind": "assignment",
		"level": "CS2", "description": "pass tokens around a ring of processes with sockets",
		"classifications": []string{
			"acm-ieee-cs-curricula-2013/pd/communication-and-coordination/message-passing-communication",
			"nsf-ieee-tcpp-pdc-2012/al/algorithmic-problems/communication/broadcast",
		},
	}
	resp := post("/api/submissions", "prof", m)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var sub map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	resp = post("/api/submissions/1/review", "ed", map[string]string{"decision": "approved"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("review = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if sys.View().Material("net-ring-lab") == nil {
		t.Fatal("approved material not installed")
	}

	// Snapshot over HTTP and restore into a second system.
	snapResp, err := http.Get(ts.URL + "/api/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.Restore(snapResp.Body)
	snapResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 99 {
		t.Fatalf("restored %d materials, want 99", restored.Len())
	}
	g, _ := restored.View().SimilarityGraph(context.Background(), "nifty", "peachy", 2)
	if len(g.Edges) != 24 || len(g.Components(2)) != 1 {
		t.Errorf("restored system lost Figure 3: %d edges", len(g.Edges))
	}
	rep, err := restored.View().Coverage("cs13", "nifty")
	if err != nil || rep.TopAreas(1)[0] != "SDF" {
		t.Errorf("restored system lost Figure 2a shape")
	}
}

// TestFigureArtifactsGenerate checks the artifact pipeline end to end: every
// figure renderer produces non-trivial output for every panel.
func TestFigureArtifactsGenerate(t *testing.T) {
	onts := []*ontology.Ontology{ontology.CS13(), ontology.PDC12()}
	cols := [][]*material.Material{corpus.Nifty().All(), corpus.Peachy().All(), corpus.ITCS3145().All()}
	for _, o := range onts {
		for _, mats := range cols {
			r := coverage.Compute(o, "panel", mats)
			ascii := viz.CoverageTreeASCII(r, 2)
			svg := viz.CoverageTreeSVG(r, 2)
			sb := viz.CoverageSunburstSVG(r, 3, 400)
			if len(ascii) < 40 || !strings.Contains(svg, "<svg") || !strings.Contains(sb, "<svg") {
				t.Errorf("thin artifact for %s", r.String())
			}
		}
	}
	g := similarity.BuildBipartite(corpus.Nifty().All(), corpus.Peachy().All(), similarity.SharedCount, 2)
	if dot := viz.SimilarityDOT(g, "x"); strings.Count(dot, " -- ") != 24 {
		t.Error("figure 3 DOT wrong")
	}
	if svg := viz.SimilaritySVG(g, 600, 400); strings.Count(svg, "<line") != 24 {
		t.Error("figure 3 SVG wrong")
	}
}

// TestSeededDeterminism: two independently seeded systems agree on every
// analysis output byte-for-byte — the property that makes the figure
// regeneration reproducible.
func TestSeededDeterminism(t *testing.T) {
	a, err := core.NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := a.View().Snapshot(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.View().Snapshot(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Error("seeded snapshots differ")
	}
	ra, _ := a.View().Coverage("cs13", "")
	rb, _ := b.View().Coverage("cs13", "")
	if viz.CoverageTreeASCII(ra, 3) != viz.CoverageTreeASCII(rb, 3) {
		t.Error("coverage renderings differ")
	}
}
