package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"carcs/internal/journal"
	"carcs/internal/learn"
	"carcs/internal/material"
	"carcs/internal/resilience"
	"carcs/internal/workflow"
)

// ErrWritesUnavailable wraps every mutation-hook failure once the journal is
// unhealthy: either an append just failed, or the circuit breaker is open
// and fast-failing writes while the disk cools down. The read path is
// unaffected — snapshot views keep serving. The HTTP layer maps this to 503
// with a Retry-After.
var ErrWritesUnavailable = errors.New("core: writes unavailable, journal degraded")

// ErrStaleEpoch rejects a record written by a deposed leader: its epoch is
// below the applier's high-water mark. The record must never be applied —
// the new leader's history has already diverged past it.
var ErrStaleEpoch = errors.New("core: record from stale leadership epoch")

// Journal op names for system mutations.
const (
	OpAddMaterial    = "material.add"
	OpRemoveMaterial = "material.remove"
	OpReclassify     = "material.reclassify"
	// OpTenantCreate records a workspace creation. The record's Tenant
	// field carries the new workspace's name; replay and replication apply
	// materialize the workspace from the stamp, so the payload is
	// informational redundancy.
	OpTenantCreate = "tenant.create"
)

type tenantCreatePayload struct {
	Name string `json:"name"`
}

type addMaterialPayload struct {
	Material *material.Material `json:"material"`
}

type removeMaterialPayload struct {
	ID string `json:"id"`
}

type reclassifyPayload struct {
	ID              string                    `json:"id"`
	Classifications []material.Classification `json:"classifications"`
}

// checkpointDoc is the payload of a durability checkpoint: the materials in
// their relational form (see persist.go) plus the workflow queue and the
// learned-model state. Learn is omitted when empty, so checkpoints from
// builds predating the learned classifier still load.
//
// The top-level Store/Workflow/Learn triple is the default tenant — exactly
// the whole document before workspaces existed, so pre-tenancy checkpoints
// restore into the default workspace unchanged, and a default-only system
// keeps writing byte-identical checkpoints (Tenants is omitted when empty).
type checkpointDoc struct {
	Store    json.RawMessage      `json:"store"`
	Workflow workflow.QueueState  `json:"workflow"`
	Learn    *learn.State         `json:"learn,omitempty"`
	Tenants  map[string]tenantDoc `json:"tenants,omitempty"`
}

// tenantDoc is one non-default workspace's slice of a checkpoint.
type tenantDoc struct {
	Store    json.RawMessage     `json:"store"`
	Workflow workflow.QueueState `json:"workflow"`
	Learn    *learn.State        `json:"learn,omitempty"`
}

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// Seed loads the paper's three collections when the directory holds no
	// prior state. Ignored once a checkpoint exists.
	Seed bool
	// WrapWAL passes through to the journal store; fault-injection tests
	// use it to sever the log mid-record.
	WrapWAL func(journal.WriteSyncer) journal.WriteSyncer
	// Breaker tunes the write-path circuit breaker; zero values take the
	// resilience package defaults (5 consecutive failures, 5s cooldown).
	Breaker resilience.BreakerConfig
	// CommitBatch caps the records one group-commit fsync window may cover.
	// <=0 takes journal.DefaultGroupMaxBatch (64).
	CommitBatch int
	// CommitWindow bounds how long a commit window stays open for stragglers
	// once at least two writers are pending. <=0 takes
	// journal.DefaultGroupMaxWait (2ms).
	CommitWindow time.Duration
}

// Persister ties a workspace set to a journal directory: it owns the
// write-ahead log every tenant's mutation hooks append to, takes checkpoints
// (on demand, on a timer, and on Close), and reports durability health.
type Persister struct {
	ws      *Workspaces
	st      *journal.Store
	breaker *resilience.Breaker
	// group is the group-commit appender every journaled mutation routes
	// through: concurrent writers (material commits, workflow transitions)
	// share one fsync per batch window, and because the group's single
	// flusher both appends and notifies, the replication sink observes
	// records in strictly ascending sequence order.
	group *journal.Group

	// sink, when set, observes every successfully journaled record. The
	// replication hub installs one to feed its in-memory tail ring and
	// wake long-polling followers. Loaded on the hot append path, hence
	// atomic rather than mutex-guarded.
	sink atomic.Pointer[func(journal.Record)]

	mu     sync.Mutex
	ticker *time.Ticker
	stop   chan struct{}
	done   chan struct{}
}

// OpenDurable opens (or initializes) a durability directory and returns the
// recovered System wired to journal every further mutation.
//
// Recovery: the last checkpoint is restored through the batch build path
// (or a fresh — optionally seeded — system is built and immediately
// checkpointed), then the write-ahead log is replayed on top in chunks. A
// torn final record is truncated and forgotten; a corrupt interior record
// refuses the open. After recovery, mutation hooks are installed on both the
// system and its workflow queue, so every accepted write reaches the log,
// fsync'd, before it commits.
func OpenDurable(dir string, opts DurableOptions) (*System, *Persister, error) {
	p, err := openPersister(dir, opts, func(st *journal.Store) (*Workspaces, bool, error) {
		payload, haveCheckpoint, err := st.Checkpoint()
		if err != nil {
			return nil, false, err
		}
		var ws *Workspaces
		if haveCheckpoint {
			ws, err = RestoreWorkspaces(payload)
		} else {
			var sys *System
			if opts.Seed {
				sys, err = NewSeeded()
			} else {
				sys, err = New()
			}
			if sys != nil {
				ws = NewWorkspaces(sys)
			}
		}
		if err != nil {
			return nil, false, err
		}
		// Replay in chunks: each chunk applies under one mutation-lock hold
		// per tenant run and publishes one view per run, and within a run
		// each stretch of consecutive adds builds as one batch. A chunk is
		// bounded by its records' payload bytes, not their count, so a
		// typical add stretch builds in one builder session while the
		// decoded chunk held in memory stays bounded. Records route to
		// their stamped workspace; an unknown workspace is materialized on
		// first sight (its tenant.create op travels the same stream).
		var chunk []journal.Record
		chunkBytes := 0
		if _, err := st.Replay(func(rec journal.Record) error {
			chunk = append(chunk, rec)
			if chunkBytes += len(rec.Data); chunkBytes >= replayChunkBytes {
				err := ApplyRecordsWorkspaces(ws, chunk)
				chunk, chunkBytes = chunk[:0], 0
				return err
			}
			return nil
		}); err != nil {
			return nil, false, err
		}
		// A fresh directory pins its initial (possibly seeded) state so
		// later opens never depend on the Seed flag being passed
		// consistently.
		return ws, !haveCheckpoint, ApplyRecordsWorkspaces(ws, chunk)
	})
	if err != nil {
		return nil, nil, err
	}
	return p.ws.Default(), p, nil
}

// Workspaces returns the tenant set recovered from (and persisted to) this
// durability directory. The returned value owns workspace creation: Create
// journals a tenant.create op and wires durability hooks before the new
// workspace becomes visible.
func (p *Persister) Workspaces() *Workspaces { return p.ws }

// AdoptDurable turns an already-populated workspace set into a durable
// leader: the path a promoted replication follower takes. The follower's
// state (bootstrapped from the old leader's checkpoint plus the applied WAL
// tail up to seq) is adopted as-is into a fresh journal directory. The
// writer's cursor is advanced to seq so new writes continue the old
// leader's sequence line, the directory is stamped with the bumped epoch,
// an initial checkpoint pins the adopted state, and mutation hooks are
// installed so the workspaces journal every further write — exactly as if
// OpenDurable had recovered them here.
//
// The directory must be fresh (no checkpoint, no journaled records): the
// adopted state's only durable home so far is the old leader's directory,
// and silently merging it into an unrelated journal would splice two
// histories.
func AdoptDurable(dir string, ws *Workspaces, seq, epoch uint64, opts DurableOptions) (*Persister, error) {
	return openPersister(dir, opts, func(st *journal.Store) (*Workspaces, bool, error) {
		if _, have, err := st.Checkpoint(); err != nil {
			return nil, false, err
		} else if have {
			return nil, false, fmt.Errorf("core: adopt needs a fresh journal directory, %s holds a checkpoint", dir)
		}
		if _, err := st.Replay(nil); err != nil {
			return nil, false, err
		}
		if got := st.Stats().Seq; got != 0 {
			return nil, false, fmt.Errorf("core: adopt needs a fresh journal directory, %s holds records through seq %d", dir, got)
		}
		if err := st.AdvanceTo(seq); err != nil {
			return nil, false, err
		}
		st.SetEpoch(epoch)
		// Pin the adopted state before answering any write: a crash after
		// promotion must recover to at least the promotion point, and
		// followers of the new leader bootstrap from this checkpoint.
		return ws, true, nil
	})
}

// openPersister opens dir's journal, lets load build the workspace set from
// it, and makes that set durable. The epoch fence starts at the directory's
// recorded term, so a node restarting after its deposition cannot apply (or
// write) records from the term it lost. The group-commit appender feeds the
// replication sink; when pin is set, a checkpoint pins the state before any
// write is accepted. Every workspace then journals through the same group
// appender, each hook stamping its tenant, and workspaces created later —
// through the API or by a replicated stream — are wired by the create
// hooks. On any failure the journal is closed again.
func openPersister(dir string, opts DurableOptions, load func(*journal.Store) (ws *Workspaces, pin bool, err error)) (*Persister, error) {
	var jopts *journal.Options
	if opts.WrapWAL != nil {
		jopts = &journal.Options{WrapWAL: opts.WrapWAL}
	}
	st, err := journal.Open(dir, jopts)
	if err != nil {
		return nil, err
	}
	ws, pin, err := load(st)
	if err != nil {
		st.Close()
		return nil, err
	}
	ws.FenceEpoch(st.Epoch())
	p := &Persister{ws: ws, st: st, breaker: resilience.NewBreaker(opts.Breaker)}
	p.group = journal.NewGroup(st, journal.GroupConfig{
		MaxBatch: opts.CommitBatch,
		MaxWait:  opts.CommitWindow,
		OnCommit: func(recs []journal.Record) {
			if sink := p.sink.Load(); sink != nil {
				for _, rec := range recs {
					(*sink)(rec)
				}
			}
		},
	})
	if pin {
		if err := p.Checkpoint(); err != nil {
			p.group.Close()
			st.Close()
			return nil, err
		}
	}
	ws.Each(func(name string, tsys *System) { p.installHooks(name, tsys) })
	ws.SetCreateHooks(
		func(name string, tsys *System) error {
			if err := p.appendJournal([]journal.BatchOp{{
				Tenant: name, Op: OpTenantCreate, Data: tenantCreatePayload{Name: name},
			}}); err != nil {
				return err
			}
			p.installHooks(name, tsys)
			return nil
		},
		func(name string, tsys *System) error {
			p.installHooks(name, tsys)
			return nil
		},
	)
	return p, nil
}

// tenantStamp maps a workspace name to its journal stamp: the default
// tenant journals unstamped (omitempty), keeping its records byte-identical
// to pre-tenancy ones.
func tenantStamp(name string) string {
	if name == DefaultTenant {
		return ""
	}
	return name
}

// installHooks wires one workspace's mutation hook — material, model and
// workflow mutations alike — to the shared journal, stamped with its
// tenant.
func (p *Persister) installHooks(name string, sys *System) {
	stamp := tenantStamp(name)
	sys.SetMutationHook(func(ops []OpPayload) error {
		bops := make([]journal.BatchOp, len(ops))
		for i, op := range ops {
			bops[i] = journal.BatchOp{Tenant: stamp, Op: op.Op, Data: op.Payload}
		}
		return p.appendJournal(bops)
	})
}

// replayChunkBytes bounds the journaled payload bytes recovery applies per
// mutation-lock hold and per published view; it also caps how much one add
// stretch builds in a single batch. At ~1–2 KB per material.add, a 16 MiB
// chunk covers the adds of any ordinary log in one builder session.
const replayChunkBytes = 16 << 20

// appendJournal is the durability gate every mutation passes through,
// wrapped in the write-path circuit breaker. While the breaker is open,
// writes fast-fail without touching the sick journal; once the cooldown
// elapses, a single half-open probe first repairs the log (Recover truncates
// any torn or unacknowledged tail and reopens the writer) and then attempts
// its append — success closes the breaker, failure re-opens it. A batch
// shares one breaker round trip and one group submission, so it lands in a
// single fsync window and commits contiguously.
func (p *Persister) appendJournal(bops []journal.BatchOp) error {
	probe, err := p.breaker.Acquire()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrWritesUnavailable, err)
	}
	if probe {
		if rerr := p.st.Recover(); rerr != nil {
			p.breaker.Record(rerr)
			return fmt.Errorf("%w: %w", ErrWritesUnavailable, rerr)
		}
	}
	_, aerr := p.group.AppendMany(bops)
	p.breaker.Record(aerr)
	if aerr != nil {
		return fmt.Errorf("%w: %w", ErrWritesUnavailable, aerr)
	}
	// The replication sink is fed by the group's OnCommit callback, in
	// sequence order, before this call unblocked.
	return nil
}

// Breaker exposes the write-path circuit breaker so the HTTP layer can
// fast-fail writes, report readiness, and serve breaker stats.
func (p *Persister) Breaker() *resilience.Breaker { return p.breaker }

// SetReplicationSink installs (or, with nil, removes) an observer invoked
// with every record that reaches the fsync'd log, in commit order — the
// feed the replication hub ships to followers. The sink runs on the write
// path with the system's mutation lock held, so it must be fast and must
// never call back into the System or the Persister.
func (p *Persister) SetReplicationSink(fn func(journal.Record)) {
	if fn == nil {
		p.sink.Store(nil)
		return
	}
	p.sink.Store(&fn)
}

// Seq returns the last journaled sequence number — the leader's replication
// horizon.
func (p *Persister) Seq() uint64 { return p.st.Stats().Seq }

// Epoch returns the leadership epoch stamped on new records.
func (p *Persister) Epoch() uint64 { return p.st.Epoch() }

// CheckpointSeq returns the sequence covered by the latest checkpoint: the
// oldest point a follower can tail the log from without re-bootstrapping.
func (p *Persister) CheckpointSeq() uint64 { return p.st.Stats().CheckpointSeq }

// CheckpointPayload returns the latest checkpoint's snapshot payload with
// the sequence number and leadership epoch it covers, for follower
// bootstrap. OpenDurable always pins an initial checkpoint, so a missing one
// is an error here.
func (p *Persister) CheckpointPayload() (payload []byte, seq, epoch uint64, err error) {
	payload, seq, epoch, ok, err := p.st.CheckpointWithMeta()
	if err != nil {
		return nil, 0, 0, err
	}
	if !ok {
		return nil, 0, 0, fmt.Errorf("core: no checkpoint to bootstrap from")
	}
	return payload, seq, epoch, nil
}

// TailSince returns the journaled records with Seq > from still present in
// the write-ahead log, or journal.ErrCompacted when that tail has been
// folded into a checkpoint.
func (p *Persister) TailSince(from uint64) ([]journal.Record, error) {
	return p.st.TailSince(from)
}

// RestoreWorkspaces rebuilds the full tenant set from a checkpoint payload.
// Recovery starts from it, and a replication follower bootstraps this way
// from the leader's served checkpoint, then applies the WAL tail with
// ApplyRecordsWorkspaces.
func RestoreWorkspaces(payload []byte) (*Workspaces, error) {
	var doc checkpointDoc
	if err := json.Unmarshal(payload, &doc); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	def, err := restoreTenantDoc(tenantDoc{Store: doc.Store, Workflow: doc.Workflow, Learn: doc.Learn})
	if err != nil {
		return nil, err
	}
	ws := NewWorkspaces(def)
	for name, td := range doc.Tenants {
		if err := ValidateTenantName(name); err != nil {
			return nil, fmt.Errorf("core: checkpoint tenant: %w", err)
		}
		sys, err := restoreTenantDoc(td)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint tenant %q: %w", name, err)
		}
		ws.tenants[name] = sys
	}
	return ws, nil
}

// restoreTenantDoc rebuilds one workspace's System from its checkpoint
// slice.
func restoreTenantDoc(doc tenantDoc) (*System, error) {
	sys, err := Restore(bytes.NewReader(doc.Store))
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint store: %w", err)
	}
	sys.queue.SetState(doc.Workflow)
	// Learned models restore from their serialized weights, never by
	// retraining: the checkpoint may sit mid-stream between a train op and
	// later review updates, and only the exact captured state reproduces
	// what the leader had there.
	if err := sys.setLearnState(doc.Learn); err != nil {
		return nil, fmt.Errorf("core: checkpoint learn state: %w", err)
	}
	return sys, nil
}

// ApplyRecordsWorkspaces re-executes journaled records: crash recovery
// replays the local log through it in chunks, and a replication follower
// drains its tailed WAL stream through it. Records route to their stamped
// workspaces, and each contiguous same-tenant stretch applies as one batch
// (one mutation-lock hold, one view publish). A record stamped with a
// workspace the set does not know materializes it first — its tenant.create
// op travels the same stream, so both recovery and followers converge on
// the leader's tenant set without any side channel. No mutation hook fires,
// so nothing is re-journaled on a follower.
//
// Every record passes the set's epoch fence: one below it was written by a
// deposed leader and is refused with ErrStaleEpoch, and a higher one
// ratchets the fence before it applies. Apply is strict: a record that no
// longer applies means the log and the state disagree. On a refused record
// the already-applied prefix of its run is published (matching what a
// record-at-a-time apply would have committed) and the error names the
// offending sequence number.
func ApplyRecordsWorkspaces(ws *Workspaces, recs []journal.Record) error {
	for start := 0; start < len(recs); {
		end := start + 1
		for end < len(recs) && recs[end].Tenant == recs[start].Tenant {
			end++
		}
		sys, err := ws.EnsureReplay(recs[start].Tenant)
		if err != nil {
			return fmt.Errorf("core: apply seq %d: %w", recs[start].Seq, err)
		}
		if err := ws.applyRun(sys, recs[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// applyRun applies one workspace's run of records under a single hold of
// its mutation lock and publishes once. Each stretch of consecutive
// material.add records is gathered and built through one
// applyAddBatchLocked; any other op first flushes the stretch, so it sees
// every earlier add. On a refused record the good prefix, gathered adds
// included, is still built and published.
func (w *Workspaces) applyRun(s *System, recs []journal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var (
		err     error
		applied int
		adds    addStretch
	)
	for _, rec := range recs {
		if fence := w.epoch.Load(); rec.Epoch < fence {
			err = fmt.Errorf("core: apply seq %d (%s): %w: epoch %d below fence %d",
				rec.Seq, rec.Op, ErrStaleEpoch, rec.Epoch, fence)
			break
		}
		w.FenceEpoch(rec.Epoch)
		if rec.Op != OpAddMaterial {
			adds.flush(s)
		}
		if err = applyOpLocked(s, rec, &adds); err != nil {
			err = fmt.Errorf("core: apply seq %d (%s): %w", rec.Seq, rec.Op, err)
			break
		}
		applied++
	}
	adds.flush(s)
	if applied > 0 {
		s.publishLocked()
	}
	return err
}

// addStretch gathers consecutive replayed material.add records so they
// build through one applyAddBatchLocked — one builder session per container
// — instead of one fold each.
type addStretch struct {
	ms []*material.Material
	// ids holds the stretch's material ids; created when a stretch starts.
	ids map[string]struct{}
}

// add validates m and queues it to be stored. m must be a freshly decoded
// value nothing else holds: the stretch takes ownership instead of copying
// it. Like a lone add, it refuses an id already stored, and also one
// already queued in the stretch.
func (a *addStretch) add(s *System, m *material.Material) error {
	if err := s.validate(m); err != nil {
		return err
	}
	if err := s.uniqueLocked(m.ID); err != nil {
		return err
	}
	if a.ids == nil {
		a.ids = make(map[string]struct{})
	} else if _, dup := a.ids[m.ID]; dup {
		return fmt.Errorf("core: add %q: duplicate material", m.ID)
	}
	a.ids[m.ID] = struct{}{}
	a.ms = append(a.ms, m)
	return nil
}

// flush builds the queued materials, without publishing, and empties the
// stretch. Callers hold mu.
func (a *addStretch) flush(s *System) {
	if len(a.ms) > 0 {
		s.applyAddBatchLocked(a.ms)
		*a = addStretch{}
	}
}

// applyOpLocked applies one journaled mutation with the mutation lock held
// and without publishing. A material.add is validated and queued on adds
// rather than built; the caller flushes the stretch before any other op.
// Workflow ops go through the queue directly (the system → queue lock order
// matches the checkpoint path); its observer still republishes the
// generation, which is cheap and keeps workflow reads live.
func applyOpLocked(s *System, rec journal.Record, adds *addStretch) error {
	switch rec.Op {
	case OpTenantCreate:
		// ApplyRecordsWorkspaces already materialized the workspace from
		// the record's tenant stamp; at the System level there is nothing
		// to apply.
		return nil
	case OpAddMaterial:
		var p addMaterialPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		return adds.add(s, p.Material)
	case OpRemoveMaterial:
		var p removeMaterialPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		return s.removeMaterialLocked(p.ID)
	case OpReclassify:
		var p reclassifyPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		return s.reclassifyLocked(p.ID, p.Classifications)
	case OpLearnTrain:
		var p learnTrainPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		s.applyLearnTrainLocked(p.Params)
		return nil
	case OpLearnUpdate:
		var p learnUpdatePayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		s.applyLearnUpdateLocked(p)
		return nil
	case workflow.OpRegister:
		var p workflow.RegisterPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		_, err := s.queue.Register(p.Name, p.Role)
		return err
	case workflow.OpSubmit:
		var p workflow.SubmitPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		_, err := s.queue.Submit(p.Submitter, p.Material)
		return err
	case workflow.OpReview:
		var p workflow.ReviewPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		return s.queue.Review(p.Editor, p.Submission, p.Decision, p.Note)
	case workflow.OpResubmit:
		var p workflow.ResubmitPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		return s.queue.Resubmit(p.Submitter, p.Submission, p.Material)
	case workflow.OpSuggestEdit:
		var p workflow.SuggestEditPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		_, err := s.queue.SuggestEdit(p.Suggester, p.MaterialID, p.Field, p.OldValue, p.NewValue)
		return err
	case workflow.OpVerifyEdit:
		var p workflow.VerifyEditPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		return s.queue.VerifyEdit(p.Editor, p.Edit, p.Accept)
	default:
		return fmt.Errorf("core: unknown journal op %q", rec.Op)
	}
}

// Checkpoint atomically snapshots the full state of every workspace
// (materials in their relational form + workflow queue + learned models)
// and resets the write-ahead log, writing every workspace through one
// loop. Mutations are frozen for the duration: the lock order
// workspaces → system → queue → journal matches the hooks' (system →
// journal, queue → journal) and workspace creation's (workspaces →
// journal), so checkpointing can never deadlock against a mutation, and no
// record — including a tenant.create — can slip between the snapshot and
// the log reset. Systems lock in deterministic order (default first, then
// sorted tenant names); the workflow queues freeze as a nested chain so all
// of them stay pinned across the single checkpoint write.
func (p *Persister) Checkpoint() error {
	ws := p.ws
	ws.mu.RLock()
	defer ws.mu.RUnlock()
	names := make([]string, 0, len(ws.tenants))
	for n := range ws.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	systems := make([]*System, 0, len(names)+1)
	systems = append(systems, ws.def)
	for _, n := range names {
		systems = append(systems, ws.tenants[n])
	}
	for _, s := range systems {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	docs := make([]tenantDoc, len(systems))
	var freeze func(i int) error
	freeze = func(i int) error {
		if i < len(systems) {
			return systems[i].queue.Freeze(func(qs workflow.QueueState) error {
				docs[i].Workflow = qs
				return freeze(i + 1)
			})
		}
		return p.st.WriteCheckpoint(func(w io.Writer) error {
			for i, s := range systems {
				var buf bytes.Buffer
				if err := s.View().Snapshot(&buf); err != nil {
					return err
				}
				docs[i].Store = buf.Bytes()
				if ls := s.learnStateLocked(); len(ls.Models) > 0 {
					docs[i].Learn = ls
				}
			}
			doc := checkpointDoc{Store: docs[0].Store, Workflow: docs[0].Workflow, Learn: docs[0].Learn}
			if len(names) > 0 {
				doc.Tenants = make(map[string]tenantDoc, len(names))
				for i, n := range names {
					doc.Tenants[n] = docs[i+1]
				}
			}
			return json.NewEncoder(w).Encode(doc)
		})
	}
	return freeze(0)
}

// Start launches background checkpointing every interval. It is a no-op if
// already started or if interval is non-positive.
func (p *Persister) Start(interval time.Duration) {
	if interval <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil {
		return
	}
	p.ticker = time.NewTicker(interval)
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go func(tick *time.Ticker, stop chan struct{}, done chan struct{}) {
		defer close(done)
		for {
			select {
			case <-tick.C:
				// A failed background checkpoint leaves the previous one
				// intact and the journal still growing; surfaced via Stats.
				_ = p.Checkpoint()
			case <-stop:
				return
			}
		}
	}(p.ticker, p.stop, p.done)
}

// Stats reports the journal/checkpoint state for the health endpoint.
func (p *Persister) Stats() journal.Stats { return p.st.Stats() }

// Close stops background checkpointing, drains the group-commit appender,
// takes a final checkpoint, and releases the journal. The system stays
// usable in memory, but further mutations fail their durability hook —
// matching a clean shutdown.
func (p *Persister) Close() error {
	p.mu.Lock()
	if p.stop != nil {
		p.ticker.Stop()
		close(p.stop)
		<-p.done
		p.stop = nil
	}
	p.mu.Unlock()
	p.group.Close()
	err := p.Checkpoint()
	if cerr := p.st.Close(); err == nil {
		err = cerr
	}
	return err
}
