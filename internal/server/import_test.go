package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"carcs/internal/core"
	"carcs/internal/corpus"
	"carcs/internal/ingest"
	"carcs/internal/jobs"
	"carcs/internal/workflow"
)

// doRaw posts a raw (non-JSON-marshalled) body.
func doRaw(t *testing.T, s *Server, method, path, user, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if user != "" {
		req.Header.Set("X-User", user)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// syntheticJSONL renders n synthetic materials as import input.
func syntheticJSONL(t testing.TB, n int, seed int64) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ingest.WriteJSONL(&buf, corpus.Synthetic(corpus.SyntheticOptions{N: n, Seed: seed}).All()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// waitJob polls the jobs API until the job is terminal, asserting progress
// counters never move backwards, and returns the final snapshot.
func waitJob(t *testing.T, s *Server, id int64) jobs.Snapshot {
	t.Helper()
	var last int64 = -1
	// Generous: the 10k scale test under -race on one core needs minutes.
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		rec := do(t, s, "GET", fmt.Sprintf("/api/jobs/%d", id), "", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("get job = %d %s", rec.Code, rec.Body)
		}
		snap := decode[jobs.Snapshot](t, rec)
		if done := snap.Progress.Done(); done < last {
			t.Fatalf("progress went backwards: %d -> %d", last, done)
		} else {
			last = done
		}
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return jobs.Snapshot{}
}

func TestImportEndpointAsync(t *testing.T) {
	s, sys := newTestServer(t)
	before := sys.Len()
	rec := doRaw(t, s, "POST", "/api/import", "ed", syntheticJSONL(t, 50, 21))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("import = %d %s", rec.Code, rec.Body)
	}
	resp := decode[map[string]any](t, rec)
	id := int64(resp["job"].(float64))
	snap := waitJob(t, s, id)
	if snap.State != jobs.StateDone {
		t.Fatalf("job = %+v", snap)
	}
	if snap.Progress.OK != 50 || snap.Progress.Failed != 0 {
		t.Errorf("progress = %+v", snap.Progress)
	}
	if sys.Len() != before+50 {
		t.Errorf("corpus %d -> %d", before, sys.Len())
	}
	if snap.Result == nil {
		t.Error("job result summary missing")
	}
}

func TestImportRequiresEditor(t *testing.T) {
	s, _ := newTestServer(t)
	if rec := doRaw(t, s, "POST", "/api/import", "", `{"id":"x"}`); rec.Code != http.StatusUnauthorized {
		t.Errorf("anonymous import = %d", rec.Code)
	}
	if rec := doRaw(t, s, "POST", "/api/import", "bob", `{"id":"x"}`); rec.Code != http.StatusForbidden {
		t.Errorf("user import = %d", rec.Code)
	}
}

func TestImportRejectsEmptyAndBadParams(t *testing.T) {
	s, _ := newTestServer(t)
	if rec := doRaw(t, s, "POST", "/api/import", "ed", "  \n "); rec.Code != http.StatusBadRequest {
		t.Errorf("empty body = %d", rec.Code)
	}
	if rec := doRaw(t, s, "POST", "/api/import?threshold=7", "ed", `{"id":"x"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad threshold = %d", rec.Code)
	}
	if rec := doRaw(t, s, "POST", "/api/import?method=oracle", "ed", `{"id":"x"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad method = %d", rec.Code)
	}
}

// Every suggestion method the importer accepts is accepted over HTTP too.
func TestImportAcceptsLearnedMethod(t *testing.T) {
	s, _ := newTestServer(t)
	rec := doRaw(t, s, "POST", "/api/import?method=learned", "ed", syntheticJSONL(t, 1, 23))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("method=learned = %d %s", rec.Code, rec.Body)
	}
	id := int64(decode[map[string]any](t, rec)["job"].(float64))
	if snap := waitJob(t, s, id); snap.State != jobs.StateDone {
		t.Errorf("state = %s (%s)", snap.State, snap.Error)
	}
}

func TestImportReportsPerItemErrors(t *testing.T) {
	s, sys := newTestServer(t)
	good := syntheticJSONL(t, 2, 22)
	input := "{broken\n" + good + `{"id":"bad","title":"x","kind":"widget","level":"CS1"}` + "\n"
	rec := doRaw(t, s, "POST", "/api/import?method=none", "ed", input)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("import = %d %s", rec.Code, rec.Body)
	}
	id := int64(decode[map[string]any](t, rec)["job"].(float64))
	snap := waitJob(t, s, id)
	if snap.State != jobs.StateDone {
		t.Fatalf("state = %s (%s)", snap.State, snap.Error)
	}
	if snap.Progress.OK != 2 || snap.Progress.Failed != 2 {
		t.Errorf("progress = %+v", snap.Progress)
	}
	if len(snap.ItemErrors) != 2 {
		t.Errorf("item errors = %+v", snap.ItemErrors)
	}
	_ = sys
}

func TestJobsListingAndNotFound(t *testing.T) {
	s, _ := newTestServer(t)
	rec := doRaw(t, s, "POST", "/api/import", "ed", syntheticJSONL(t, 3, 23))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("import = %d", rec.Code)
	}
	id := int64(decode[map[string]any](t, rec)["job"].(float64))
	waitJob(t, s, id)
	list := decode[[]jobs.Snapshot](t, do(t, s, "GET", "/api/jobs", "", nil))
	if len(list) != 1 || list[0].ID != id || list[0].Kind != "import" {
		t.Errorf("jobs = %+v", list)
	}
	if rec := do(t, s, "GET", "/api/jobs/999", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("missing job = %d", rec.Code)
	}
	if rec := do(t, s, "GET", "/api/jobs/zzz", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad id = %d", rec.Code)
	}
}

func TestJobCancellationEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	// A big enough import that cancellation lands mid-flight.
	rec := doRaw(t, s, "POST", "/api/import?workers=1", "ed", syntheticJSONL(t, 5000, 24))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("import = %d", rec.Code)
	}
	id := int64(decode[map[string]any](t, rec)["job"].(float64))
	if rec := do(t, s, "DELETE", fmt.Sprintf("/api/jobs/%d", id), "ed", nil); rec.Code != http.StatusOK {
		t.Fatalf("cancel = %d %s", rec.Code, rec.Body)
	}
	snap := waitJob(t, s, id)
	if snap.State != jobs.StateCancelled && snap.State != jobs.StateDone {
		t.Fatalf("state = %s", snap.State)
	}
	// Cancelling a finished job conflicts.
	if rec := do(t, s, "DELETE", fmt.Sprintf("/api/jobs/%d", id), "ed", nil); rec.Code != http.StatusConflict {
		t.Errorf("re-cancel = %d", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/api/jobs/999", "ed", nil); rec.Code != http.StatusNotFound {
		t.Errorf("cancel missing = %d", rec.Code)
	}
}

func TestHealthReportsJobStats(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, "GET", "/api/health", "", nil)
	h := decode[map[string]any](t, rec)
	jb, ok := h["jobs"].(map[string]any)
	if !ok {
		t.Fatalf("health = %v", h)
	}
	if jb["workers"].(float64) < 1 {
		t.Errorf("jobs stats = %v", jb)
	}
}

func TestRequestBodyCap413(t *testing.T) {
	s, _ := newTestServer(t)
	big := `{"id":"huge","title":"` + strings.Repeat("x", maxJSONBody+100) + `"}`
	rec := doRaw(t, s, "POST", "/api/materials", "ed", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized material = %d", rec.Code)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("not the standard envelope: %s", rec.Body)
	}
	// The import cap is higher: the same payload sails through there.
	if rec := doRaw(t, s, "POST", "/api/import?method=none", "ed", big); rec.Code != http.StatusAccepted {
		t.Errorf("import of same payload = %d", rec.Code)
	}
}

func TestMaterialsPagination(t *testing.T) {
	s, sys := newTestServer(t)
	total := sys.Len()
	// Bare call keeps the legacy array shape, now deterministically sorted.
	all := decode[[]materialJSON](t, do(t, s, "GET", "/api/materials", "", nil))
	if len(all) != total {
		t.Fatalf("all = %d, want %d", len(all), total)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("not ID-sorted at %d: %s >= %s", i, all[i-1].ID, all[i].ID)
		}
	}
	type page struct {
		Total     int            `json:"total"`
		Offset    int            `json:"offset"`
		Limit     int            `json:"limit"`
		Materials []materialJSON `json:"materials"`
	}
	var got []materialJSON
	for off := 0; ; off += 10 {
		p := decode[page](t, do(t, s, "GET", fmt.Sprintf("/api/materials?limit=10&offset=%d", off), "", nil))
		if p.Total != total {
			t.Fatalf("total = %d", p.Total)
		}
		if len(p.Materials) == 0 {
			break
		}
		got = append(got, p.Materials...)
	}
	if len(got) != total {
		t.Fatalf("paged walk = %d, want %d", len(got), total)
	}
	for i := range got {
		if got[i].ID != all[i].ID {
			t.Fatalf("paged order diverges at %d", i)
		}
	}
	// Past-the-end and negative parameters.
	p := decode[page](t, do(t, s, "GET", fmt.Sprintf("/api/materials?offset=%d", total+5), "", nil))
	if len(p.Materials) != 0 {
		t.Errorf("past-end page = %d items", len(p.Materials))
	}
	if rec := do(t, s, "GET", "/api/materials?limit=-1", "", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("negative limit = %d", rec.Code)
	}
}

// TestImportScale10k is the subsystem's acceptance test: a 10k-record
// import through the async API, with concurrent readers hammering the
// coverage and similarity endpoints, must (a) return 202 immediately,
// (b) report monotonically increasing progress, and (c) finish in a state
// byte-identical to a sequential import of the same records.
func TestImportScale10k(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	input := syntheticJSONL(t, n, 42)

	// Reference: sequential (1-worker) import into a fresh system.
	refSys, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest.New(refSys, ingest.Options{Workers: 1}).Run(context.Background(), strings.NewReader(input), nil); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := refSys.View().Snapshot(&want); err != nil {
		t.Fatal(err)
	}

	// System under test: async import through the API with parallel
	// prepare workers and concurrent readers.
	sys, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Workflow().Register("ed", workflow.RoleEditor); err != nil {
		t.Fatal(err)
	}
	s := New(sys, io.Discard)
	rec := doRaw(t, s, "POST", "/api/import?workers=4", "ed", input)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("import = %d %s", rec.Code, rec.Body)
	}
	id := int64(decode[map[string]any](t, rec)["job"].(float64))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{
		"/api/coverage?ontology=cs13",
		"/api/similarity?left=synthetic&right=synthetic",
		"/api/materials?limit=20&offset=40",
	} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond):
				}
				// Reads no longer serialize against the committer, so pace
				// them: an unthrottled loop recomputing coverage/similarity
				// per generation would just burn the CPU the import needs,
				// without exercising anything more.
				req := httptest.NewRequest("GET", path, nil)
				s.ServeHTTP(httptest.NewRecorder(), req)
			}
		}(path)
	}

	snap := waitJob(t, s, id)
	close(stop)
	wg.Wait()
	if snap.State != jobs.StateDone {
		t.Fatalf("job = %s (%s)", snap.State, snap.Error)
	}
	if snap.Progress.OK != int64(n) || snap.Progress.Failed != 0 || snap.Progress.Total != int64(n) {
		t.Fatalf("progress = %+v", snap.Progress)
	}
	var got bytes.Buffer
	if err := sys.View().Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("async import state differs from sequential import")
	}
}
