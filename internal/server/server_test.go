package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"carcs/internal/core"
	"carcs/internal/workflow"
)

func newTestServer(t *testing.T) (*Server, *core.System) {
	t.Helper()
	sys, err := core.NewSeeded()
	if err != nil {
		t.Fatal(err)
	}
	sys.Workflow().Register("ed", workflow.RoleEditor)
	sys.Workflow().Register("sue", workflow.RoleSubmitter)
	sys.Workflow().Register("bob", workflow.RoleUser)
	return New(sys, io.Discard), sys
}

func do(t *testing.T, s *Server, method, path, user string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	if user != "" {
		req.Header.Set("X-User", user)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return v
}

func TestStatus(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, "GET", "/api/status", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	st := decode[map[string]any](t, rec)
	if st["Materials"].(float64) < 90 {
		t.Errorf("materials = %v", st["Materials"])
	}
}

func TestListAndFilterMaterials(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, "GET", "/api/materials?collection=peachy", "", nil)
	got := decode[[]materialJSON](t, rec)
	if len(got) != 11 {
		t.Errorf("peachy = %d", len(got))
	}
	rec = do(t, s, "GET", "/api/materials?kind=slides", "", nil)
	if got := decode[[]materialJSON](t, rec); len(got) != 12 {
		t.Errorf("slides = %d", len(got))
	}
	rec = do(t, s, "GET", "/api/materials?language=Java&collection=nifty&year_from=2010&year_to=2013", "", nil)
	for _, m := range decode[[]materialJSON](t, rec) {
		if m.Language != "Java" || m.Year < 2010 || m.Year > 2013 {
			t.Errorf("filter leak: %+v", m)
		}
	}
	rec = do(t, s, "GET", "/api/materials?subtree=nosuch", "", nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("subtree without ontology = %d", rec.Code)
	}
	pd := "acm-ieee-cs-curricula-2013/pd"
	rec = do(t, s, "GET", "/api/materials?ontology=cs13&subtree="+pd, "", nil)
	for _, m := range decode[[]materialJSON](t, rec) {
		if m.Collection == "nifty" {
			t.Errorf("nifty material in PD subtree: %s", m.ID)
		}
	}
}

func TestGetMaterial(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, "GET", "/api/materials/uno", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get = %d", rec.Code)
	}
	m := decode[materialJSON](t, rec)
	if m.Title != "Uno" || len(m.Classifications) == 0 {
		t.Errorf("material = %+v", m)
	}
	if rec := do(t, s, "GET", "/api/materials/ghost", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("missing = %d", rec.Code)
	}
}

func TestAuthAndRoles(t *testing.T) {
	s, _ := newTestServer(t)
	valid := materialJSON{
		ID: "new-thing", Title: "New Thing", Kind: "assignment", Level: "CS1",
		Classifications: []string{"acm-ieee-cs-curricula-2013/sdf/fundamental-data-structures/arrays"},
	}
	if rec := do(t, s, "POST", "/api/materials", "", valid); rec.Code != http.StatusUnauthorized {
		t.Errorf("no user = %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/api/materials", "stranger", valid); rec.Code != http.StatusUnauthorized {
		t.Errorf("unknown user = %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/api/materials", "bob", valid); rec.Code != http.StatusForbidden {
		t.Errorf("user role = %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/api/materials", "ed", valid); rec.Code != http.StatusCreated {
		t.Errorf("editor create = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, "POST", "/api/materials", "ed", valid); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("duplicate create = %d", rec.Code)
	}
	bad := valid
	bad.ID = "bad-cls"
	bad.Classifications = []string{"nope"}
	if rec := do(t, s, "POST", "/api/materials", "ed", bad); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("bad classification = %d", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/api/materials/new-thing", "ed", nil); rec.Code != http.StatusOK {
		t.Errorf("delete = %d", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/api/materials/new-thing", "ed", nil); rec.Code != http.StatusNotFound {
		t.Errorf("re-delete = %d", rec.Code)
	}
}

func TestReclassifyEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	body := map[string][]string{"classifications": {
		"acm-ieee-cs-curricula-2013/sdf/fundamental-data-structures/stacks",
	}}
	rec := do(t, s, "PUT", "/api/materials/uno/classifications", "ed", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("reclassify = %d: %s", rec.Code, rec.Body)
	}
	m := decode[materialJSON](t, rec)
	if len(m.Classifications) != 1 || !strings.HasSuffix(m.Classifications[0], "/stacks") {
		t.Errorf("classifications = %v", m.Classifications)
	}
	if rec := do(t, s, "PUT", "/api/materials/ghost/classifications", "ed", body); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("reclassify missing = %d", rec.Code)
	}
}

func TestOntologyEndpoints(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, "GET", "/api/ontologies", "", nil)
	onts := decode[[]map[string]any](t, rec)
	if len(onts) != 2 {
		t.Fatalf("ontologies = %v", onts)
	}
	rec = do(t, s, "GET", "/api/ontologies/cs13/search?q=iterative+control", "", nil)
	hits := decode[[]map[string]any](t, rec)
	if len(hits) == 0 {
		t.Fatal("no search hits")
	}
	if h := hits[0]["highlighted"].(string); !strings.Contains(h, "<mark>") {
		t.Errorf("no highlight markers: %q", h)
	}
	if rec := do(t, s, "GET", "/api/ontologies/cs13/search", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q = %d", rec.Code)
	}
	if rec := do(t, s, "GET", "/api/ontologies/nope/search?q=x", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown ontology = %d", rec.Code)
	}
	node := "acm-ieee-cs-curricula-2013/pd/parallelism-fundamentals"
	rec = do(t, s, "GET", "/api/ontologies/cs13/node/"+node, "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("node = %d", rec.Code)
	}
	n := decode[map[string]any](t, rec)
	if n["label"] != "Parallelism Fundamentals" {
		t.Errorf("node = %v", n)
	}
	if rec := do(t, s, "GET", "/api/ontologies/cs13/node/ghost", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown node = %d", rec.Code)
	}
}

func TestAnalysisEndpoints(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, "GET", "/api/coverage?ontology=pdc12&collection=itcs3145", "", nil)
	cov := decode[map[string]any](t, rec)
	areas := cov["areas"].([]any)
	first := areas[0].(map[string]any)
	if first["Code"] != "PR" {
		t.Errorf("ITCS top PDC12 area = %v", first["Code"])
	}
	if rec := do(t, s, "GET", "/api/coverage?ontology=zzz", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad ontology = %d", rec.Code)
	}

	rec = do(t, s, "GET", "/api/similarity?left=nifty&right=peachy&threshold=2", "", nil)
	sim := decode[map[string]any](t, rec)
	if len(sim["edges"].([]any)) != 24 {
		t.Errorf("edges = %d", len(sim["edges"].([]any)))
	}
	if rec := do(t, s, "GET", "/api/similarity?left=nifty", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing right = %d", rec.Code)
	}

	rec = do(t, s, "GET", "/api/gaps?ontology=pdc12&collection=itcs3145&core_only=true", "", nil)
	gaps := decode[[]map[string]any](t, rec)
	if len(gaps) == 0 {
		t.Error("no core gaps for ITCS against PDC12")
	}

	rec = do(t, s, "GET", "/api/search?q=fractal&collection=peachy", "", nil)
	hits := decode[[]map[string]any](t, rec)
	if len(hits) == 0 {
		t.Error("no search hits")
	}
	if rec := do(t, s, "GET", "/api/search", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q = %d", rec.Code)
	}

	rec = do(t, s, "GET", "/api/suggest?ontology=cs13&q=loop+over+arrays&k=5", "", nil)
	if sugg := decode[[]map[string]any](t, rec); len(sugg) == 0 {
		t.Error("no suggestions")
	}
	if rec := do(t, s, "GET", "/api/suggest?ontology=cs13", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q = %d", rec.Code)
	}

	arrays := "acm-ieee-cs-curricula-2013/sdf/fundamental-data-structures/arrays"
	rec = do(t, s, "GET", "/api/recommend?selected="+arrays, "", nil)
	if recs := decode[[]map[string]any](t, rec); len(recs) == 0 {
		t.Error("no recommendations")
	}
	if rec := do(t, s, "GET", "/api/recommend", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("missing selected = %d", rec.Code)
	}

	rec = do(t, s, "GET", "/api/materials/uno/replacements", "", nil)
	if reps := decode[[]map[string]any](t, rec); len(reps) < 4 {
		t.Errorf("uno replacements = %d", len(reps))
	}
	if rec := do(t, s, "GET", "/api/materials/ghost/replacements", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("replacements for missing = %d", rec.Code)
	}
}

// TestEntryClassifyFlow is the E1 end-to-end flow: register accounts, submit
// a material, find classification entries via the highlighted tree search,
// review and approve, and see the material live in the repository.
func TestEntryClassifyFlow(t *testing.T) {
	s, sys := newTestServer(t)

	// Register a new submitter through the API.
	rec := do(t, s, "POST", "/api/accounts", "", map[string]string{"name": "nia", "role": "submitter"})
	if rec.Code != http.StatusCreated {
		t.Fatalf("register = %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/api/accounts", "", map[string]string{"name": "x", "role": "deity"}); rec.Code != http.StatusBadRequest {
		t.Errorf("bad role = %d", rec.Code)
	}

	// Locate entries with the Fig. 1b search.
	rec = do(t, s, "GET", "/api/ontologies/pdc12/search?q=openmp", "", nil)
	hits := decode[[]map[string]any](t, rec)
	if len(hits) == 0 {
		t.Fatal("no OpenMP entries")
	}
	entry := hits[0]["id"].(string)

	// Submit a classified material.
	m := materialJSON{
		ID: "parallel-life", Title: "Parallel Game of Life", Kind: "assignment",
		Level: "CS2", Description: "parallelize the game of life with OpenMP",
		Classifications: []string{entry},
	}
	rec = do(t, s, "POST", "/api/submissions", "nia", m)
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	subID := decode[map[string]any](t, rec)["id"].(float64)

	// Editor sees it pending and approves.
	rec = do(t, s, "GET", "/api/submissions", "ed", nil)
	if pend := decode[[]map[string]any](t, rec); len(pend) != 1 {
		t.Fatalf("pending = %v", pend)
	}
	if rec := do(t, s, "GET", "/api/submissions", "sue", nil); rec.Code != http.StatusForbidden {
		t.Errorf("submitter read queue = %d", rec.Code)
	}
	rec = do(t, s, "POST", fmt.Sprintf("/api/submissions/%d/review", int(subID)), "ed",
		map[string]string{"decision": "approved"})
	if rec.Code != http.StatusOK {
		t.Fatalf("review = %d: %s", rec.Code, rec.Body)
	}

	// The material is installed and searchable.
	if sys.View().Material("parallel-life") == nil {
		t.Fatal("approved material not installed")
	}
	rec = do(t, s, "GET", "/api/search?q=game+of+life+openmp", "", nil)
	found := false
	for _, h := range decode[[]map[string]any](t, rec) {
		if h["material"].(map[string]any)["id"] == "parallel-life" {
			found = true
		}
	}
	if !found {
		t.Error("approved material not searchable")
	}

	// Error paths on review.
	if rec := do(t, s, "POST", "/api/submissions/zzz/review", "ed", map[string]string{"decision": "approved"}); rec.Code != http.StatusBadRequest {
		t.Errorf("bad id = %d", rec.Code)
	}
	if rec := do(t, s, "POST", fmt.Sprintf("/api/submissions/%d/review", int(subID)), "ed",
		map[string]string{"decision": "approved"}); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("double review = %d", rec.Code)
	}
}

func TestPanicRecovery(t *testing.T) {
	sys, _ := core.NewSeeded()
	s := New(sys, io.Discard)
	s.mux.HandleFunc("GET /api/boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	rec := do(t, s, "GET", "/api/boom", "", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panic = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "boom") {
		t.Errorf("body = %s", rec.Body)
	}
}

func TestBadJSONBody(t *testing.T) {
	s, _ := newTestServer(t)
	req := httptest.NewRequest("POST", "/api/materials", strings.NewReader("{nope"))
	req.Header.Set("X-User", "ed")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad body = %d", rec.Code)
	}
}

func TestDepthEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, "GET", "/api/depth?ontology=pdc12&collection=itcs3145", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("depth = %d", rec.Code)
	}
	d := decode[map[string]any](t, rec)
	if d["shallow"].(float64) < 1 || d["met"].(float64) < 2 {
		t.Errorf("depth = %v", d)
	}
	if rec := do(t, s, "GET", "/api/depth?ontology=zzz", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad ontology = %d", rec.Code)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, "GET", "/api/snapshot", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot = %d", rec.Code)
	}
	restored, err := core.Restore(rec.Body)
	if err != nil {
		t.Fatalf("restore from endpoint: %v", err)
	}
	if restored.Len() != 98 {
		t.Errorf("restored = %d materials", restored.Len())
	}
}

func TestEditEndpoints(t *testing.T) {
	s, _ := newTestServer(t)
	body := map[string]any{"material": "uno", "field": "language", "old": "Java", "new": "Kotlin"}
	if rec := do(t, s, "POST", "/api/edits", "", body); rec.Code != http.StatusUnauthorized {
		t.Errorf("anonymous edit = %d", rec.Code)
	}
	rec := do(t, s, "POST", "/api/edits", "bob", body)
	if rec.Code != http.StatusCreated {
		t.Fatalf("suggest edit = %d: %s", rec.Code, rec.Body)
	}
	id := decode[map[string]any](t, rec)["ID"].(float64)
	if rec := do(t, s, "POST", "/api/edits", "bob", map[string]any{"material": "ghost", "field": "x"}); rec.Code != http.StatusNotFound {
		t.Errorf("edit for missing material = %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/api/edits", "bob", map[string]any{"material": "uno"}); rec.Code != http.StatusBadRequest {
		t.Errorf("edit without field = %d", rec.Code)
	}
	// Queue visible to editors only.
	if rec := do(t, s, "GET", "/api/edits", "bob", nil); rec.Code != http.StatusForbidden {
		t.Errorf("user read edits = %d", rec.Code)
	}
	rec = do(t, s, "GET", "/api/edits", "ed", nil)
	if got := decode[[]map[string]any](t, rec); len(got) != 1 {
		t.Fatalf("pending edits = %v", got)
	}
	// Verify.
	rec = do(t, s, "POST", fmt.Sprintf("/api/edits/%d/verify", int(id)), "ed", map[string]any{"accept": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("verify = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, "POST", fmt.Sprintf("/api/edits/%d/verify", int(id)), "ed", map[string]any{"accept": false}); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("double verify = %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/api/edits/nope/verify", "ed", map[string]any{"accept": true}); rec.Code != http.StatusBadRequest {
		t.Errorf("bad id = %d", rec.Code)
	}
}
