package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultTenant is the workspace every legacy (un-prefixed) API route, every
// pre-tenancy WAL record, and every pre-tenancy checkpoint maps to. Records
// belonging to it are journaled with an empty tenant stamp, which the
// omitempty encoding drops — so a default-only journal is byte-identical to
// one written before workspaces existed.
const DefaultTenant = "default"

// ErrNoTenant reports a request against a workspace that was never created.
var ErrNoTenant = errors.New("core: no such workspace")

// maxTenantName bounds workspace names; they appear in URLs, journal
// records, and checkpoint keys.
const maxTenantName = 64

// ValidateTenantName enforces the workspace naming rule: 1–64 characters of
// lowercase letters, digits, '.', '_' or '-', starting with a letter or
// digit. "default" is reserved for the implicit workspace but is accepted
// by lookup paths as an alias.
func ValidateTenantName(name string) error {
	if name == "" || len(name) > maxTenantName {
		return fmt.Errorf("core: workspace name must be 1-%d characters", maxTenantName)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
			if i == 0 {
				return fmt.Errorf("core: workspace name %q must start with a letter or digit", name)
			}
		default:
			return fmt.Errorf("core: workspace name %q: only [a-z0-9._-] allowed", name)
		}
	}
	return nil
}

// Workspaces manages the named tenants of one process: the always-present
// default System plus any number of created workspaces, each an independent
// System (own store, workflow queue, learned models, generation, and result
// cache) sharing the process-wide immutable ontologies and the memoized
// training-free suggesters. All tenants commit through one durability
// pipeline — the Persister stamps each journaled op with its tenant.
type Workspaces struct {
	// mu sits above every per-System lock in the hierarchy: Create holds
	// it across (journal tenant.create, insert into map), and the
	// checkpoint path holds it (read) across the whole snapshot+truncate,
	// so a tenant can never be journaled on one side of a checkpoint's
	// WAL horizon and recorded on the other.
	mu      sync.RWMutex
	def     *System
	tenants map[string]*System // non-default only

	// quota, when positive, is applied as the material limit of every
	// current and future workspace (the default tenant included).
	quota int

	// epoch is the leadership-epoch fence: the highest term of any record
	// applied to (or fence raised on) the set. It is set-wide, so a stale
	// record is rejected whichever tenant it names, including one the
	// stream has only just created. Forward-only; see FenceEpoch.
	epoch atomic.Uint64

	// onCreate, when set (by the durability layer), journals the
	// tenant.create op and wires persistence hooks into the new System.
	// It runs with mu held, before the workspace becomes visible; a
	// failure aborts the creation.
	onCreate func(name string, sys *System) error
	// onReplayCreate mirrors onCreate for tenants materialized by WAL
	// replay or replication apply: hooks are wired but no create op is
	// journaled (the stream already carries one). Guarded by mu.
	onReplayCreate func(name string, sys *System) error
}

// NewWorkspaces wraps an existing System as the default tenant of a new
// workspace set. Server code that never creates tenants sees exactly the
// old single-System behavior.
func NewWorkspaces(def *System) *Workspaces {
	return &Workspaces{def: def, tenants: make(map[string]*System)}
}

// Default returns the default tenant's System. Guarded because AdoptFrom
// can swap the whole set at runtime (follower re-bootstrap).
func (w *Workspaces) Default() *System {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.def
}

// AdoptFrom replaces this set's workspaces with src's, in place: every
// holder of this *Workspaces (the HTTP server, the follower) sees the new
// tenant set on its next resolution without re-wiring anything. A
// replication follower that fell behind the leader's retention horizon uses
// it to swap in a freshly restored checkpoint. The receiver's quota and
// epoch fence carry over (and the fence only ratchets up); durability hooks
// are not copied — a follower has none, and a durable set must never adopt.
func (w *Workspaces) AdoptFrom(src *Workspaces) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// src is freshly restored and unshared; its fields need no lock.
	w.def = src.def
	w.tenants = src.tenants
	w.FenceEpoch(src.epoch.Load())
	if w.quota > 0 {
		w.def.SetMaterialLimit(w.quota)
		for _, sys := range w.tenants {
			sys.SetMaterialLimit(w.quota)
		}
	}
}

// SetCreateHooks installs the durability callbacks: created runs for
// API-created workspaces (journals tenant.create and wires hooks), replayed
// for workspaces materialized from the WAL or a replication stream (wires
// hooks only). Installed once at open time, before any concurrent use.
func (w *Workspaces) SetCreateHooks(created, replayed func(name string, sys *System) error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onCreate = created
	w.onReplayCreate = replayed
}

// Get returns the named workspace's System. The empty name and "default"
// resolve to the default tenant.
func (w *Workspaces) Get(name string) (*System, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if name == "" || name == DefaultTenant {
		return w.def, true
	}
	sys, ok := w.tenants[name]
	return sys, ok
}

// Create makes the named workspace, journaling a tenant.create op through
// the durability hook. It is idempotent: creating an existing workspace (or
// "default") returns it with created=false. The name must pass
// ValidateTenantName.
func (w *Workspaces) Create(name string) (sys *System, created bool, err error) {
	if name == DefaultTenant {
		return w.Default(), false, nil
	}
	if err := ValidateTenantName(name); err != nil {
		return nil, false, err
	}
	return w.ensure(name, true)
}

// EnsureReplay makes the named workspace without journaling — the WAL replay
// and replication apply paths call it when they meet a tenant-stamped record
// for a workspace not yet in the checkpoint. Validation still applies: a
// corrupt name in the stream is an error, not a tenant.
func (w *Workspaces) EnsureReplay(name string) (*System, error) {
	if name == "" || name == DefaultTenant {
		return w.Default(), nil
	}
	if err := ValidateTenantName(name); err != nil {
		return nil, err
	}
	sys, _, err := w.ensure(name, false)
	return sys, err
}

func (w *Workspaces) ensure(name string, journal bool) (*System, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if sys, ok := w.tenants[name]; ok {
		return sys, false, nil
	}
	sys, err := New()
	if err != nil {
		return nil, false, err
	}
	if w.quota > 0 {
		sys.SetMaterialLimit(w.quota)
	}
	hook := w.onReplayCreate
	if journal {
		hook = w.onCreate
	}
	if hook != nil {
		if err := hook(name, sys); err != nil {
			return nil, false, fmt.Errorf("core: create workspace %q: %w", name, err)
		}
	}
	w.tenants[name] = sys
	return sys, true, nil
}

// Names returns the sorted workspace names, the default tenant first.
func (w *Workspaces) Names() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	names := make([]string, 0, len(w.tenants)+1)
	names = append(names, DefaultTenant)
	for n := range w.tenants {
		names = append(names, n)
	}
	sort.Strings(names[1:])
	return names
}

// Len reports the number of workspaces, the default tenant included.
func (w *Workspaces) Len() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.tenants) + 1
}

// Each calls fn for every workspace (default first, then sorted) on a
// point-in-time snapshot of the set.
func (w *Workspaces) Each(fn func(name string, sys *System)) {
	w.mu.RLock()
	names := make([]string, 0, len(w.tenants))
	for n := range w.tenants {
		names = append(names, n)
	}
	systems := make([]*System, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		systems = append(systems, w.tenants[n])
	}
	def := w.def
	w.mu.RUnlock()
	fn(DefaultTenant, def)
	for i, n := range names {
		fn(n, systems[i])
	}
}

// FenceEpoch raises the leadership-epoch fence. Forward-only: a value at or
// below the current fence is ignored, so a late or reordered fence can
// never re-admit a deposed leader's records.
func (w *Workspaces) FenceEpoch(epoch uint64) {
	for {
		cur := w.epoch.Load()
		if epoch <= cur || w.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// Epoch reports the leadership-epoch fence.
func (w *Workspaces) Epoch() uint64 { return w.epoch.Load() }

// SetQuota applies a material-count quota to every current and future
// workspace; zero or negative removes it.
func (w *Workspaces) SetQuota(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.quota = n
	w.def.SetMaterialLimit(n)
	for _, sys := range w.tenants {
		sys.SetMaterialLimit(n)
	}
}

// Quota reports the workspace material quota (0 = unlimited).
func (w *Workspaces) Quota() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.quota
}
