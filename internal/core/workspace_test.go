package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"carcs/internal/material"
)

func TestValidateTenantName(t *testing.T) {
	// "default" is valid too: creating it is an idempotent alias for the
	// default workspace rather than an error.
	for _, ok := range []string{"a", "ws-01", "team.alpha", "x_y", "0abc", "default"} {
		if err := ValidateTenantName(ok); err != nil {
			t.Errorf("ValidateTenantName(%q) = %v, want nil", ok, err)
		}
	}
	long := make([]byte, maxTenantName+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "UPPER", "has space", "-leading", ".dot", "a/b", string(long)} {
		if err := ValidateTenantName(bad); err == nil {
			t.Errorf("ValidateTenantName(%q) = nil, want error", bad)
		}
	}
}

func TestWorkspacesCreateGetNames(t *testing.T) {
	def, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspaces(def)
	if _, created, err := ws.Create(DefaultTenant); err != nil || created {
		t.Fatalf("Create(default) = created=%v err=%v, want existing", created, err)
	}
	sysB, created, err := ws.Create("beta")
	if err != nil || !created {
		t.Fatalf("Create(beta) = created=%v err=%v", created, err)
	}
	if sys2, created, err := ws.Create("beta"); err != nil || created || sys2 != sysB {
		t.Fatalf("Create(beta) again = %p created=%v err=%v, want idempotent %p", sys2, created, err, sysB)
	}
	if _, _, err := ws.Create("Not Valid"); err == nil {
		t.Fatal("Create with invalid name succeeded")
	}
	if got, ok := ws.Get(""); !ok || got != ws.Default() {
		t.Fatal("Get(\"\") should alias the default workspace")
	}
	if _, ok := ws.Get("missing"); ok {
		t.Fatal("Get(missing) reported found")
	}
	ws.Create("alpha")
	want := []string{DefaultTenant, "alpha", "beta"}
	if got := ws.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v (default first, rest sorted)", got, want)
	}
}

// TestTenantIsolationConcurrent hammers three workspaces from concurrent
// writers and proves no material crosses a workspace boundary: each
// workspace's view holds exactly its own IDs, and per-tenant result caches
// never serve another tenant's entry. Run under -race this also exercises
// the ws.mu -> sys.mu lock ordering.
func TestTenantIsolationConcurrent(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ws := p.Workspaces()
	names := []string{DefaultTenant, "alpha", "beta"}
	for _, n := range names[1:] {
		if _, _, err := ws.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	_ = sys

	const perTenant = 40
	var wg sync.WaitGroup
	for ti, name := range names {
		sys, ok := ws.Get(name)
		if !ok {
			t.Fatalf("workspace %q vanished", name)
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(ti, w int, sys *System) {
				defer wg.Done()
				for i := 0; i < perTenant/2; i++ {
					id := fmt.Sprintf("t%d-w%d-%04d", ti, w, i)
					if err := sys.AddMaterial(testMat(id, arrayEntry())); err != nil {
						t.Error(err)
						return
					}
					// Interleave reads so snapshots publish mid-write.
					_ = sys.View().SortedMaterials("", nil)
				}
			}(ti, w, sys)
		}
	}
	wg.Wait()

	idsOf := func(ws *Workspaces, name string) []string {
		sys, ok := ws.Get(name)
		if !ok {
			t.Fatalf("workspace %q missing", name)
		}
		var ids []string
		for _, m := range sys.View().SortedMaterials("", nil) {
			ids = append(ids, m.ID)
		}
		sort.Strings(ids)
		return ids
	}
	for ti, name := range names {
		ids := idsOf(ws, name)
		if len(ids) != perTenant {
			t.Errorf("workspace %q has %d materials, want %d", name, len(ids), perTenant)
		}
		prefix := fmt.Sprintf("t%d-", ti)
		for _, id := range ids {
			if len(id) < len(prefix) || id[:len(prefix)] != prefix {
				t.Errorf("workspace %q leaked foreign material %q", name, id)
			}
		}
	}

	// Crash (no final checkpoint) and replay the tenant-stamped WAL: every
	// workspace must come back with a byte-identical ID set.
	before := map[string][]string{}
	for _, name := range names {
		before[name] = idsOf(ws, name)
	}
	abandon(p)
	_, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(p2)
	ws2 := p2.Workspaces()
	if got, want := ws2.Names(), names; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed workspace set = %v, want %v", got, want)
	}
	for _, name := range names {
		if got := idsOf(ws2, name); !reflect.DeepEqual(got, before[name]) {
			t.Errorf("workspace %q replayed %d ids, want %d (set mismatch)", name, len(got), len(before[name]))
		}
	}
}

// TestLegacyWALStaysTenantFree proves the zero-cost default-tenant promise:
// a system that never creates a workspace writes journal records
// byte-identical to the pre-tenancy format (no "tenant" key anywhere), and
// such a WAL replays into the default workspace.
func TestLegacyWALStaysTenantFree(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := sys.AddMaterial(testMat(fmt.Sprintf("legacy-%d", i), arrayEntry())); err != nil {
			t.Fatal(err)
		}
	}
	abandon(p)

	wal, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(wal, []byte(`"tenant"`)) {
		t.Fatal("default-only WAL contains a tenant stamp; legacy byte-compat broken")
	}

	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(p2)
	if sys2.Len() != 5 {
		t.Fatalf("legacy WAL replayed %d materials into default, want 5", sys2.Len())
	}
	if got := p2.Workspaces().Names(); !reflect.DeepEqual(got, []string{DefaultTenant}) {
		t.Fatalf("legacy WAL materialized workspaces %v, want default only", got)
	}
}

// TestTenantCheckpointRoundTrip proves the multi-tenant checkpoint carries
// every workspace: after Checkpoint+crash the WAL is gone but all tenants
// restore from the snapshot alone, and a default-only checkpoint keeps the
// pre-tenancy shape (no "tenants" key).
func TestTenantCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMaterial(testMat("def-a", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cp, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(cp, []byte(`"tenants"`)) {
		t.Fatal("default-only checkpoint contains a tenants block; legacy byte-compat broken")
	}

	ws := p.Workspaces()
	alpha, _, err := ws.Create("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := alpha.AddMaterial(testMat("alpha-a", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if err := alpha.AddMaterial(testMat("alpha-b", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	abandon(p)

	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(p2)
	if sys2.Len() != 1 || sys2.Material("def-a") == nil {
		t.Errorf("default workspace restored %d materials", sys2.Len())
	}
	alpha2, ok := p2.Workspaces().Get("alpha")
	if !ok {
		t.Fatal("workspace alpha lost across checkpoint restore")
	}
	if alpha2.Len() != 2 || alpha2.Material("alpha-b") == nil {
		t.Errorf("workspace alpha restored %d materials, want 2", alpha2.Len())
	}
	if alpha2.Material("def-a") != nil {
		t.Error("default material leaked into alpha on restore")
	}
}

// TestTenantQuota: quota blocks public adds with ErrQuotaExceeded but never
// replay — reopening with a quota below the stored count must still recover.
func TestTenantQuota(t *testing.T) {
	dir := t.TempDir()
	sys, p, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ws := p.Workspaces()
	ws.SetQuota(2)
	if err := sys.AddMaterial(testMat("q-1", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMaterial(testMat("q-2", arrayEntry())); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddMaterial(testMat("q-3", arrayEntry())); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("add over quota = %v, want ErrQuotaExceeded", err)
	}
	if err := sys.AddMaterials([]*material.Material{testMat("q-4", arrayEntry()), testMat("q-5", arrayEntry())}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("batch add over quota = %v, want ErrQuotaExceeded", err)
	}
	// Quota applies to workspaces created after SetQuota too.
	beta, _, err := ws.Create("beta")
	if err != nil {
		t.Fatal(err)
	}
	if got := beta.MaterialLimit(); got != 2 {
		t.Fatalf("new workspace quota = %d, want 2", got)
	}
	abandon(p)

	sys2, p2, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer abandon(p2)
	p2.Workspaces().SetQuota(1) // below stored count; replay already ran unimpeded
	if sys2.Len() != 2 {
		t.Fatalf("replay under quota recovered %d materials, want 2", sys2.Len())
	}
	if err := sys2.AddMaterial(testMat("q-6", arrayEntry())); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("post-replay add under shrunk quota = %v, want ErrQuotaExceeded", err)
	}
}

// TestWorkspacesDefaultLookupRacesAdopt: resolving the default workspace by
// name must stay safe while a follower's re-bootstrap swaps the whole set
// in place. Meaningful under -race.
func TestWorkspacesDefaultLookupRacesAdopt(t *testing.T) {
	ws := newTestWorkspaces(t)
	srcs := []*Workspaces{newTestWorkspaces(t), newTestWorkspaces(t)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			ws.AdoptFrom(srcs[i%len(srcs)])
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if sys, ok := ws.Get(DefaultTenant); !ok || sys == nil {
			t.Fatalf("Get(%q) = %v, %v", DefaultTenant, sys, ok)
		}
		if _, _, err := ws.Create(DefaultTenant); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.EnsureReplay(""); err != nil {
			t.Fatal(err)
		}
	}
}
