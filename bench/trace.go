package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"carcs/internal/journal"
)

// Trace headers carried on every benchmark request. The router forwards
// request headers to its backends, so a backend span finds its router
// parent the same way a direct one finds its client.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory from the benchmark's side of each layer
// boundary; nothing inside the program is instrumented. A nil tracer, or
// one switched off, records nothing and its wrappers pass straight through.
type tracer struct {
	t0  time.Time
	on  atomic.Bool
	ids atomic.Int64
	// commit is the span id of the benchmark-level commit call in progress
	// (set-up loads and staged imports run one at a time); journal writes
	// made meanwhile are its children.
	commit atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timed runs fn as a span named name. With commit set, journal writes fn
// causes become the span's children.
func (t *tracer) timed(name string, commit bool, fn func() error) error {
	if !t.enabled() {
		return fn()
	}
	id, start := t.newID(), t.now()
	if commit {
		t.commit.Store(id)
		defer t.commit.Store(0)
	}
	err := fn()
	t.add(span{ID: id, Name: name, Start: start, End: t.now()})
	return err
}

// handler wraps an HTTP layer (a server or the router) in a span per
// request, linked to its caller through the trace headers.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		id, start := t.newID(), t.now()
		r.Header.Set(hdrParent, strconv.FormatInt(id, 10))
		h.ServeHTTP(w, r)
		t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.now()})
	})
}

// wrapWAL is a DurableOptions.WrapWAL hook timing every write-ahead-log
// write and fsync.
func (t *tracer) wrapWAL(ws journal.WriteSyncer) journal.WriteSyncer {
	return &tracedWAL{t: t, ws: ws}
}

type tracedWAL struct {
	t  *tracer
	ws journal.WriteSyncer
}

func (w *tracedWAL) Write(p []byte) (int, error) {
	if !w.t.enabled() {
		return w.ws.Write(p)
	}
	start := w.t.now()
	n, err := w.ws.Write(p)
	w.t.add(span{ID: w.t.newID(), Parent: w.t.commit.Load(), Name: "journal.write", Start: start, End: w.t.now()})
	return n, err
}

func (w *tracedWAL) Sync() error {
	if !w.t.enabled() {
		return w.ws.Sync()
	}
	start := w.t.now()
	err := w.ws.Sync()
	w.t.add(span{ID: w.t.newID(), Parent: w.t.commit.Load(), Name: "journal.fsync", Start: start, End: w.t.now()})
	return err
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children are counted once, and a
// child running past its parent is clipped to it).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// writeSpans writes spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
