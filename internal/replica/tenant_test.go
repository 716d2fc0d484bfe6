package replica_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"carcs/internal/core"
	"carcs/internal/journal"
	"carcs/internal/material"
)

// startTenantLeader is startLeader with the workspace set wired through to
// the HTTP layer, mirroring carcs-server's durable-mode wiring.
func startTenantLeader(t *testing.T) *leaderNode {
	t.Helper()
	l := startLeader(t)
	l.srv.SetWorkspaces(l.p.Workspaces())
	return l
}

func tenantIDs(t *testing.T, sys *core.System) []string {
	t.Helper()
	var ids []string
	for _, m := range sys.View().SortedMaterials("", nil) {
		ids = append(ids, m.ID)
	}
	return ids
}

// TestTenantOpsReplicate proves the tenant dimension rides the existing
// replication stream untouched: a workspace created on the leader
// materializes on the follower from the WAL alone, every workspace's
// materials land in the right follower workspace, and the stamped records
// the wire carries are the leader's journal bytes verbatim.
func TestTenantOpsReplicate(t *testing.T) {
	l := startTenantLeader(t)

	// Tenant created via the management route so the create itself is
	// journaled (the path a real operator takes).
	req, _ := http.NewRequest(http.MethodPut, l.ts.URL+"/api/t/alpha", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT /api/t/alpha = %d", resp.StatusCode)
	}

	alpha, ok := l.p.Workspaces().Get("alpha")
	if !ok {
		t.Fatal("alpha missing on leader")
	}
	l.addMaterial(t, "def-1")
	for _, id := range []string{"alpha-1", "alpha-2"} {
		if err := alpha.AddMaterial(&material.Material{
			ID: id, Title: "Material " + id, Kind: material.Assignment,
			Level: material.Intermediate, Collection: "drill",
		}); err != nil {
			t.Fatal(err)
		}
	}
	l.addMaterial(t, "def-2")

	// The wire tail must carry the tenant stamps exactly as journaled:
	// default records with no tenant field at all, alpha records stamped.
	wresp, err := http.Get(l.ts.URL + "/api/replication/wal?from=0&wait=50ms")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(wresp.Body)
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("wal tail = %d", wresp.StatusCode)
	}
	var recs []journal.Record
	_, err = journal.Scan(bytes.NewReader(raw), func(rec journal.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("decode wire tail: %v", err)
	}
	var sawCreate, sawAlphaOp bool
	var reframed bytes.Buffer
	for _, rec := range recs {
		frame, err := journal.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		reframed.Write(frame)
		switch rec.Op {
		case core.OpTenantCreate:
			sawCreate = true
			if rec.Tenant != "alpha" {
				t.Errorf("tenant.create stamped %q", rec.Tenant)
			}
		default:
			if rec.Tenant == "alpha" {
				sawAlphaOp = true
			}
		}
	}
	if !sawCreate || !sawAlphaOp {
		t.Fatalf("wire tail missing tenant records: create=%v alphaOp=%v", sawCreate, sawAlphaOp)
	}
	// Byte-identical round trip: re-framing the decoded records (omitempty
	// drops the tenant key on default records) reproduces the wire bytes
	// exactly, so default-workspace traffic is provably stamp-free.
	if !bytes.Equal(reframed.Bytes(), raw) {
		t.Fatal("re-encoded records differ from wire bytes; tenant stamping is not byte-stable")
	}

	fn := startFollower(t, l.ts.URL)
	fn.srv.SetWorkspaces(fn.f.Workspaces())
	fn.waitApplied(t, l.p.Seq())

	fAlpha, ok := fn.f.Workspaces().Get("alpha")
	if !ok {
		t.Fatal("follower did not materialize workspace alpha from the stream")
	}
	wantAlpha := tenantIDs(t, alpha)
	if got := tenantIDs(t, fAlpha); !equalStrings(got, wantAlpha) {
		t.Errorf("follower alpha = %v, want %v", got, wantAlpha)
	}
	wantDef := tenantIDs(t, l.sys)
	if got := tenantIDs(t, fn.f.System()); !equalStrings(got, wantDef) {
		t.Errorf("follower default = %v, want %v", got, wantDef)
	}
	for _, id := range wantDef {
		if fAlpha.Material(id) != nil {
			t.Errorf("default material %q leaked into follower alpha", id)
		}
	}

	// The follower's scoped HTTP surface serves the replicated workspace.
	rr := httptest.NewRecorder()
	fn.srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/api/t/alpha/materials/alpha-1", nil))
	if rr.Code != http.StatusOK {
		t.Errorf("follower GET /api/t/alpha/materials/alpha-1 = %d", rr.Code)
	}

	// And refuses to create workspaces locally: its tenant set is the
	// leader's WAL, nothing else.
	rr = httptest.NewRecorder()
	fn.srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPut, "/api/t/beta", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("follower PUT /api/t/beta = %d, want 503", rr.Code)
	}

	// Live tail after bootstrap: a tenant created and written while the
	// follower streams must appear without a re-bootstrap.
	req, _ = http.NewRequest(http.MethodPut, l.ts.URL+"/api/t/beta", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	beta, _ := l.p.Workspaces().Get("beta")
	if err := beta.AddMaterial(&material.Material{
		ID: "beta-1", Title: "Material beta-1", Kind: material.Assignment,
		Level: material.Intermediate, Collection: "drill",
	}); err != nil {
		t.Fatal(err)
	}
	fn.waitApplied(t, l.p.Seq())
	fBeta, ok := fn.f.Workspaces().Get("beta")
	if !ok {
		t.Fatal("follower missed live tenant.create")
	}
	if fBeta.Material("beta-1") == nil {
		t.Error("follower missed write to live-created workspace")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
