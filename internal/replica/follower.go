package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"carcs/internal/core"
	"carcs/internal/journal"
	"carcs/internal/resilience"
)

// ErrOutOfSync means the follower's cursor fell behind the leader's
// retention horizon (checkpoint plus tail ring) — the shipped log no longer
// reaches back to where this follower stopped. Run heals this in process by
// re-bootstrapping from the leader's checkpoint; the error only surfaces
// when every bounded re-bootstrap attempt failed too.
var ErrOutOfSync = errors.New("replica: follower behind leader retention horizon, re-bootstrap required")

// DefaultRebootstrapLimit bounds consecutive in-process re-bootstrap
// attempts before Run gives up and surfaces ErrOutOfSync to the supervisor.
const DefaultRebootstrapLimit = 8

// FollowerConfig tunes a follower. Zero values take defaults.
type FollowerConfig struct {
	// LeaderURL is the leader's base URL, e.g. "http://leader:8080".
	LeaderURL string
	// Client overrides the HTTP client (tests). It must not set a global
	// timeout — stream lifetimes are managed per request.
	Client *http.Client
	// PollWait is the requested WAL long-poll window.
	PollWait time.Duration
	// ReconnectBase and ReconnectMax bound the jittered exponential
	// backoff between reconnect attempts; zeros take the resilience
	// package defaults.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// RebootstrapLimit caps consecutive in-process re-bootstrap attempts
	// after the cursor falls behind the leader's retention horizon; <= 0
	// takes DefaultRebootstrapLimit.
	RebootstrapLimit int
}

// Follower replicates a leader's WAL into a local System. Construct with
// Bootstrap, serve reads from System(), and drive replication with Run.
// Promote turns a follower into the leader of the next epoch in place.
type Follower struct {
	cfg    FollowerConfig
	client *http.Client
	ws     *core.Workspaces

	applied      atomic.Uint64
	leaderSeq    atomic.Uint64
	epoch        atomic.Uint64
	connected    atomic.Bool
	reconnects   atomic.Uint64
	rebootstraps atomic.Uint64

	// Promotion coordination: promoted flips once, runCancel/runDone let
	// Promote halt a live Run loop and wait for it to unwind.
	promoted  atomic.Bool
	runMu     sync.Mutex
	runCancel context.CancelFunc
	runDone   chan struct{}
}

// Bootstrap fetches the leader's checkpoint, restores a System from it, and
// returns a follower whose cursor sits at the checkpoint's sequence. The
// caller owns retrying a failed bootstrap (the leader may not be up yet).
func Bootstrap(ctx context.Context, cfg FollowerConfig) (*Follower, error) {
	f := &Follower{cfg: cfg, client: cfg.Client}
	if f.client == nil {
		f.client = defaultClient
	}
	f.cfg.LeaderURL = strings.TrimRight(cfg.LeaderURL, "/")
	if f.cfg.LeaderURL == "" {
		return nil, fmt.Errorf("replica: empty leader URL")
	}
	if f.cfg.PollWait <= 0 {
		f.cfg.PollWait = DefaultPollWait
	}
	ws, seq, err := f.fetchCheckpoint(ctx)
	if err != nil {
		return nil, fmt.Errorf("replica: bootstrap: %w", err)
	}
	f.ws = ws
	f.applied.Store(seq)
	return f, nil
}

// fetchCheckpoint downloads and restores the leader's latest checkpoint,
// returning the restored workspace set and the sequence it covers. The
// restored set is fenced at the checkpoint's epoch, so records from terms
// older than the snapshot can never fold into it.
func (f *Follower) fetchCheckpoint(ctx context.Context) (*core.Workspaces, uint64, error) {
	ckCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ckCtx, http.MethodGet,
		f.cfg.LeaderURL+"/api/replication/checkpoint", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("leader answered %s", resp.Status)
	}
	seq, err := strconv.ParseUint(resp.Header.Get(HeaderCheckpointSeq), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("bad %s header: %w", HeaderCheckpointSeq, err)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("read checkpoint: %w", err)
	}
	ws, err := core.RestoreWorkspaces(payload)
	if err != nil {
		return nil, 0, err
	}
	if e, perr := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64); perr == nil {
		ws.FenceEpoch(e)
		f.noteEpoch(e)
	}
	f.observeLeaderSeq(resp.Header)
	return ws, seq, nil
}

// System returns the replicated default-tenant system. Reads on it are the
// ordinary snapshot-isolated view reads; its state is the leader's at
// Applied(). Resolved through the workspace set on every call so an
// in-process re-bootstrap swap is immediately visible.
func (f *Follower) System() *core.System { return f.ws.Default() }

// Workspaces returns the full replicated tenant set. Tenant-stamped records
// in the stream apply to their own workspaces; a workspace unseen at
// bootstrap is materialized when its first record arrives.
func (f *Follower) Workspaces() *core.Workspaces { return f.ws }

// LeaderURL returns the leader this follower replicates from.
func (f *Follower) LeaderURL() string { return f.cfg.LeaderURL }

// Applied returns the last leader sequence folded into the local system —
// the staleness bound every read on this follower is subject to.
func (f *Follower) Applied() uint64 { return f.applied.Load() }

// LeaderSeq returns the leader's latest sequence as last observed.
func (f *Follower) LeaderSeq() uint64 { return f.leaderSeq.Load() }

// Epoch returns the highest leadership term this follower has observed —
// from checkpoint and stream headers, and from the records themselves.
func (f *Follower) Epoch() uint64 { return f.epoch.Load() }

// Connected reports whether a WAL stream is currently established.
func (f *Follower) Connected() bool { return f.connected.Load() }

// Rebootstraps counts in-process checkpoint re-bootstraps after the cursor
// fell behind the leader's retention horizon.
func (f *Follower) Rebootstraps() uint64 { return f.rebootstraps.Load() }

// Status reports the follower's replication state for /api/health.
func (f *Follower) Status() *Status {
	return &Status{
		Role:         "follower",
		Epoch:        f.epoch.Load(),
		Leader:       f.cfg.LeaderURL,
		AppliedSeq:   f.applied.Load(),
		LeaderSeq:    f.leaderSeq.Load(),
		Connected:    f.connected.Load(),
		Reconnects:   f.reconnects.Load(),
		Rebootstraps: f.rebootstraps.Load(),
	}
}

// Run tails the leader's WAL until ctx is cancelled, applying every shipped
// record through the commit pipeline. Stream failures reconnect with
// jittered exponential backoff, resuming from the last applied sequence —
// re-shipped records are skipped by sequence, so re-apply is idempotent.
// A cursor that fell behind the leader's retention horizon self-heals: the
// follower re-bootstraps from the leader's checkpoint in process (bounded
// attempts) and resumes tailing. Run returns ErrPromoted when Promote
// halted it, ErrOutOfSync when every re-bootstrap attempt failed, or a
// fatal apply error (state divergence — never continue past one).
func (f *Follower) Run(ctx context.Context) error {
	if f.promoted.Load() {
		return ErrPromoted
	}
	rctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	f.runMu.Lock()
	f.runCancel = cancel
	f.runDone = done
	f.runMu.Unlock()
	defer func() {
		cancel()
		close(done)
	}()

	bo := &resilience.Backoff{Base: f.cfg.ReconnectBase, Max: f.cfg.ReconnectMax}
	for {
		err := f.streamOnce(rctx)
		f.connected.Store(false)
		switch {
		case rctx.Err() != nil:
			if f.promoted.Load() && ctx.Err() == nil {
				return ErrPromoted
			}
			return rctx.Err()
		case err == nil:
			// Clean end of a poll window; reconnect immediately.
			bo.Reset()
			continue
		case errors.Is(err, ErrOutOfSync):
			if rerr := f.rebootstrap(rctx); rerr != nil {
				if f.promoted.Load() && ctx.Err() == nil {
					return ErrPromoted
				}
				return rerr
			}
			bo.Reset()
			continue
		case errors.Is(err, errApply):
			return err
		}
		f.reconnects.Add(1)
		if serr := bo.Sleep(rctx); serr != nil {
			if f.promoted.Load() && ctx.Err() == nil {
				return ErrPromoted
			}
			return serr
		}
	}
}

// rebootstrap heals an out-of-sync follower in process: fetch the leader's
// current checkpoint and swap it into the live workspace set, moving the
// cursor to the checkpoint's sequence. Readers see the gap close as one
// atomic swap — no restart, no window serving empty state. Attempts are
// bounded so a leader serving garbage cannot trap the follower in a loop.
func (f *Follower) rebootstrap(ctx context.Context) error {
	limit := f.cfg.RebootstrapLimit
	if limit <= 0 {
		limit = DefaultRebootstrapLimit
	}
	bo := &resilience.Backoff{Base: f.cfg.ReconnectBase, Max: f.cfg.ReconnectMax}
	var lastErr error
	for attempt := 0; attempt < limit; attempt++ {
		if attempt > 0 {
			if serr := bo.Sleep(ctx); serr != nil {
				return serr
			}
		}
		ws, seq, err := f.fetchCheckpoint(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		f.ws.AdoptFrom(ws)
		f.applied.Store(seq)
		f.rebootstraps.Add(1)
		return nil
	}
	return fmt.Errorf("%w: %d re-bootstrap attempts failed, last: %v", ErrOutOfSync, limit, lastErr)
}

// Promote turns this follower into the leader of the next epoch, in
// process: halt replication, drain whatever tail the old leader still
// serves, adopt the replicated state into a fresh durable journal at dir,
// and start a Hub so other followers can re-target. The old leader is told
// it has been deposed (best-effort — fencing never depends on the
// notification; appliers reject the old term's records regardless).
// advertise, when non-empty, is this node's own base URL, forwarded so the
// deposed leader's 503s can point writers at the new leader.
func (f *Follower) Promote(ctx context.Context, dir, advertise string, opts core.DurableOptions) (*core.Persister, *Hub, error) {
	if !f.promoted.CompareAndSwap(false, true) {
		return nil, nil, fmt.Errorf("replica: already promoted")
	}
	// Halt a live Run loop and wait for it to unwind; applying stream
	// records concurrently with adoption would race the journal handoff.
	f.runMu.Lock()
	cancel, done := f.runCancel, f.runDone
	f.runMu.Unlock()
	if cancel != nil {
		cancel()
		select {
		case <-done:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	// Best-effort drain: pull any tail the (possibly dying) old leader can
	// still serve, so the new term starts from the highest reachable
	// sequence. Failure here is expected — the usual reason for promotion
	// is that the leader stopped answering.
	f.drainTail(ctx)
	f.connected.Store(false)

	epoch := f.epoch.Load() + 1
	p, err := core.AdoptDurable(dir, f.ws, f.applied.Load(), epoch, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: promote: %w", err)
	}
	f.noteEpoch(epoch)
	hub := NewHub(p, 0)
	go func() {
		_ = NotifyFence(context.Background(), f.client, f.cfg.LeaderURL, epoch, advertise)
	}()
	return p, hub, nil
}

// drainTail runs short-poll stream rounds against the old leader until no
// progress is made or the budget elapses. Purely opportunistic.
func (f *Follower) drainTail(ctx context.Context) {
	dctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	saved := f.cfg.PollWait
	f.cfg.PollWait = 500 * time.Millisecond
	defer func() { f.cfg.PollWait = saved }()
	for dctx.Err() == nil {
		before := f.applied.Load()
		if err := f.streamOnce(dctx); err != nil {
			return
		}
		if f.applied.Load() == before {
			return
		}
	}
}

// errApply marks a record the commit pipeline refused — the follower's
// state can no longer be trusted to match the leader's, so Run stops.
var errApply = errors.New("replica: apply failed")

// streamOnce establishes one WAL stream and applies it to exhaustion. A nil
// return means the leader ended the poll window cleanly.
func (f *Follower) streamOnce(ctx context.Context) error {
	// Bound the whole stream: the leader closes it after PollWait, so a
	// socket outliving that by a wide margin is a partition, not a poll.
	sctx, cancel := context.WithTimeout(ctx, f.cfg.PollWait+30*time.Second)
	defer cancel()
	url := fmt.Sprintf("%s/api/replication/wal?from=%d&wait=%s",
		f.cfg.LeaderURL, f.applied.Load(), f.cfg.PollWait)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("replica: connect: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return ErrOutOfSync
	default:
		return fmt.Errorf("replica: leader answered %s", resp.Status)
	}
	f.observeLeaderSeq(resp.Header)
	f.observeEpoch(resp.Header)
	f.connected.Store(true)
	// Records are applied through the same batch path the leader's group
	// commit uses: everything already buffered on the stream folds into the
	// local system under one lock hold and one view publish. The batch
	// flushes as soon as the stream would block, so a trickle applies
	// record-at-a-time and a catch-up burst applies in big strides.
	fr := journal.NewReader(resp.Body)
	var batch []journal.Record
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := core.ApplyRecordsWorkspaces(f.ws, batch); err != nil {
			return fmt.Errorf("%w: %v", errApply, err)
		}
		f.applied.Store(batch[len(batch)-1].Seq)
		batch = batch[:0]
		return nil
	}
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return flush()
		}
		if err != nil {
			// Apply the whole records already read before surfacing the
			// stream error; they are durable on the leader.
			if ferr := flush(); ferr != nil {
				return ferr
			}
			return fmt.Errorf("replica: stream: %w", err)
		}
		if rec.Seq > f.leaderSeq.Load() {
			f.leaderSeq.Store(rec.Seq)
		}
		f.noteEpoch(rec.Epoch)
		if rec.Seq <= f.applied.Load() {
			continue // idempotent re-apply: already folded in
		}
		batch = append(batch, rec)
		if len(batch) >= followerApplyBatch || fr.Buffered() == 0 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
}

// followerApplyBatch caps how many tailed records fold into the local system
// per lock hold, bounding both reader staleness and publish latency while a
// follower catches up from far behind.
const followerApplyBatch = 256

// observeLeaderSeq folds a CARCS-Leader-Seq response header into the lag
// estimate, never moving it backwards.
func (f *Follower) observeLeaderSeq(h http.Header) {
	seq, err := strconv.ParseUint(h.Get(HeaderLeaderSeq), 10, 64)
	if err == nil && seq > f.leaderSeq.Load() {
		f.leaderSeq.Store(seq)
	}
}

// observeEpoch folds a CARCS-Epoch response header into the observed term.
func (f *Follower) observeEpoch(h http.Header) {
	if e, err := strconv.ParseUint(h.Get(HeaderEpoch), 10, 64); err == nil {
		f.noteEpoch(e)
	}
}

// noteEpoch raises the observed leadership term, forward-only.
func (f *Follower) noteEpoch(e uint64) {
	for {
		cur := f.epoch.Load()
		if e <= cur || f.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}
