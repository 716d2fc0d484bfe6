package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Leadership epochs and split-brain fencing.
//
// Every leadership term has a number, stamped on every record the term's
// leader journals (journal.Record.Epoch). Promotion bumps the epoch, so two
// leaders can never write the same term: the deposed leader's records carry
// the old epoch, and the one applier every record passes through
// (core.ApplyRecordsWorkspaces, for both the follower stream and recovery
// replay) rejects records below the workspace set's epoch fence.
//
// Epoch-per-record rather than epoch-per-connection is deliberate: a
// connection-scoped epoch only fences the handshake, leaving records already
// buffered inside an established stream trusted forever. With the epoch on
// each record, fencing holds no matter how a record arrives — a stale
// stream, a replayed WAL segment, or a spliced file all fail the same check.
//
// A Fence is the deposed-leader half of the protocol: a durable node's view
// of the highest term it has seen anywhere. The moment it observes a term
// above its own — via the router's probe sweep, a promote handshake, or an
// explicit POST /api/replication/fence — it is fenced: it stops answering
// writes (503 + Leader header pointing at the new leader) and demotes itself
// to a read-only replica of its own final state.

// ErrPromoted is returned by Follower.Run when the follower was promoted to
// leader mid-run: replication stopped because this node now owns the write
// path, not because anything failed.
var ErrPromoted = fmt.Errorf("replica: follower promoted to leader")

// Fence tracks the leadership terms a durable node has observed. own is the
// node's, seen the highest observed anywhere; seen > own means the node has
// been deposed and must refuse writes.
type Fence struct {
	mu     sync.Mutex
	own    uint64
	seen   uint64
	leader string // URL claiming the highest seen term, if known
}

// NewFence starts tracking from the node's own term.
func NewFence(own uint64) *Fence {
	return &Fence{own: own, seen: own}
}

// Observe folds one sighting of a leadership term (and, when known, the URL
// of the leader claiming it) into the fence. It reports whether the node is
// now fenced. Terms only accumulate — observing an old term never un-fences.
func (f *Fence) Observe(epoch uint64, leaderURL string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if epoch > f.seen {
		f.seen = epoch
		if leaderURL != "" {
			f.leader = leaderURL
		}
	} else if epoch == f.seen && f.leader == "" && epoch > f.own {
		f.leader = leaderURL
	}
	return f.seen > f.own
}

// Fenced reports whether a higher term than the node's own has been seen.
func (f *Fence) Fenced() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen > f.own
}

// Own returns the node's own leadership term.
func (f *Fence) Own() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.own
}

// Seen returns the highest term observed anywhere.
func (f *Fence) Seen() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

// Leader returns the URL of the leader claiming the highest seen term, empty
// when unknown.
func (f *Fence) Leader() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leader
}

// fenceRequest is the POST /api/replication/fence body: "you have been
// deposed — epoch is the new term, leader (optional) is where writes go now".
type fenceRequest struct {
	Epoch  uint64 `json:"epoch"`
	Leader string `json:"leader,omitempty"`
}

// NotifyFence tells the node at baseURL that a leader exists at the given
// epoch. Best-effort by design: fencing does not depend on the notification
// arriving — appliers reject stale-epoch records regardless — it only
// shortens the window in which the deposed leader answers writes it can no
// longer replicate.
func NotifyFence(ctx context.Context, client *http.Client, baseURL string, epoch uint64, leaderURL string) error {
	if client == nil {
		client = defaultClient
	}
	body, err := json.Marshal(fenceRequest{Epoch: epoch, Leader: leaderURL})
	if err != nil {
		return err
	}
	nctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(nctx, http.MethodPost,
		baseURL+"/api/replication/fence", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: fence %s: %s", baseURL, resp.Status)
	}
	return nil
}
