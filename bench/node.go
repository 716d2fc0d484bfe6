package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"carcs/internal/core"
	"carcs/internal/corpus"
	"carcs/internal/material"
	"carcs/internal/replica"
	"carcs/internal/server"
	"carcs/internal/workflow"
)

// editor is the account every benchmark write is sent as.
const editor = "bench-editor"

// loadChunk is the set-up commit size: one AddMaterials call, one journal
// fsync window and one view publish per chunk.
const loadChunk = 64

// listener serves one in-process HTTP handler on a loopback port.
type listener struct {
	hs  *http.Server
	url string
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on close
	return &listener{hs: hs, url: "http://" + ln.Addr().String()}, nil
}

// close stops the listener and drops its connections, including parked
// WAL long-polls.
func (l *listener) close() {
	if l != nil {
		_ = l.hs.Close() // only listener-close errors, nothing to recover
	}
}

// node is a durable CAR-CS server: journal directory, system, and an HTTP
// server with a replication hub, wired as carcs-server wires a -data node.
type node struct {
	dir string
	sys *core.System
	p   *core.Persister
	srv *server.Server
	ln  *listener
}

// startNode opens a seeded durable directory, registers the editor account,
// loads synthetic materials through the batch commit path, and serves it.
func startNode(dir string, synthetic int, seed int64, tr *tracer) (*node, error) {
	opts := core.DurableOptions{Seed: true}
	if tr != nil {
		opts.WrapWAL = tr.wrapWAL
	}
	sys, p, err := core.OpenDurable(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	n := &node{dir: dir, sys: sys, p: p}
	if _, err := sys.Workflow().Register(editor, workflow.RoleEditor); err != nil {
		n.close()
		return nil, fmt.Errorf("register editor: %w", err)
	}
	if err := loadSynthetic(sys, synthetic, seed, tr); err != nil {
		n.close()
		return nil, err
	}
	n.srv = server.New(sys, io.Discard)
	n.srv.SetWorkspaces(p.Workspaces())
	n.srv.SetPersister(p)
	n.srv.SetHub(replica.NewHub(p, 0))
	var h http.Handler = n.srv
	if tr != nil {
		h = tr.handler("server", h)
	}
	if n.ln, err = serve(h); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

func loadSynthetic(sys *core.System, count int, seed int64, tr *tracer) error {
	var chunk []*material.Material
	flush := func() error {
		err := tr.timed("core.commit", true, func() error { return sys.AddMaterials(chunk) })
		chunk = chunk[:0]
		if err != nil {
			return fmt.Errorf("load corpus: %w", err)
		}
		return nil
	}
	err := corpus.SyntheticEach(corpus.SyntheticOptions{N: count, Seed: seed, IDPrefix: synthPrefix}, func(m *material.Material) error {
		if chunk = append(chunk, m); len(chunk) == loadChunk {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(chunk) > 0 {
		return flush()
	}
	return nil
}

// stopServing closes the HTTP side and the server's job runner, leaving the
// journal open.
func (n *node) stopServing() {
	n.ln.close()
	n.ln = nil
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = n.srv.DrainJobs(ctx) // no jobs are ever submitted; this stops the workers
		n.srv = nil
	}
}

// close stops serving and closes the journal (writing its final checkpoint).
func (n *node) close() error {
	n.stopServing()
	if n.p == nil {
		return nil
	}
	err := n.p.Close()
	n.p = nil
	return err
}

// follower is a read replica bootstrapped from a node's checkpoint.
type follower struct {
	f    *replica.Follower
	srv  *server.Server
	ln   *listener
	stop context.CancelFunc
	done chan error
}

// startFollower bootstraps from leaderURL, serves the replica, starts
// tailing and waits until it has applied through leaderSeq. It returns the
// bootstrap and tail times.
func startFollower(leaderURL string, leaderSeq uint64, tr *tracer) (fl *follower, bootstrap, tail time.Duration, err error) {
	t0 := time.Now()
	f, err := replica.Bootstrap(context.Background(), replica.FollowerConfig{LeaderURL: leaderURL})
	if err != nil {
		return nil, 0, 0, err
	}
	bootstrap = time.Since(t0)
	fl = &follower{f: f, srv: server.New(f.System(), io.Discard), done: make(chan error, 1)}
	fl.srv.SetWorkspaces(f.Workspaces())
	fl.srv.SetFollower(f)
	var h http.Handler = fl.srv
	if tr != nil {
		h = tr.handler("server", h)
	}
	if fl.ln, err = serve(h); err != nil {
		return nil, 0, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	fl.stop = cancel
	go func() { fl.done <- f.Run(ctx) }()
	if err := fl.waitApplied(leaderSeq, 30*time.Second); err != nil {
		fl.close()
		return nil, 0, 0, err
	}
	return fl, bootstrap, time.Since(t0) - bootstrap, nil
}

// waitApplied polls until the follower has applied seq.
func (fl *follower) waitApplied(seq uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for fl.f.Applied() < seq {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at seq %d, want %d", fl.f.Applied(), seq)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (fl *follower) close() {
	if fl == nil {
		return
	}
	fl.stop()
	<-fl.done
	fl.ln.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = fl.srv.DrainJobs(ctx) // no jobs are ever submitted; this stops the workers
}

// cluster is a workload's system under test: a node, and for replicated
// workloads a follower and a router in front of both.
type cluster struct {
	leader   *node
	follower *follower
	router   *replica.Router
	routerLn *listener
	// target is the base URL clients send to.
	target string
	// catchup is the follower's bootstrap and tail time.
	bootstrap, tail time.Duration
}

func startCluster(dir string, w workload, seed int64, tr *tracer) (*cluster, error) {
	n, err := startNode(dir, w.corpus, seed, tr)
	if err != nil {
		return nil, err
	}
	c := &cluster{leader: n, target: n.ln.url}
	if !w.replicated {
		return c, nil
	}
	// A long-running leader has checkpointed its corpus, so the follower
	// bootstraps from a full checkpoint rather than replaying the load.
	if err := n.p.Checkpoint(); err != nil {
		c.close()
		return nil, fmt.Errorf("leader checkpoint: %w", err)
	}
	if c.follower, c.bootstrap, c.tail, err = startFollower(n.ln.url, n.p.Seq(), tr); err != nil {
		c.close()
		return nil, fmt.Errorf("follower: %w", err)
	}
	if c.router, c.routerLn, err = startRouter([]string{n.ln.url, c.follower.ln.url}, tr); err != nil {
		c.close()
		return nil, err
	}
	c.target = c.routerLn.url
	return c, nil
}

func startRouter(backends []string, tr *tracer) (*replica.Router, *listener, error) {
	rt, err := replica.NewRouter(replica.RouterConfig{Backends: backends})
	if err != nil {
		return nil, nil, err
	}
	rt.Start()
	var h http.Handler = rt
	if tr != nil {
		h = tr.handler("router", h)
	}
	ln, err := serve(h)
	if err != nil {
		rt.Close()
		return nil, nil, err
	}
	return rt, ln, nil
}

// stopReplication shuts down the router and the follower, leaving the
// leader serving.
func (c *cluster) stopReplication() {
	if c.router != nil {
		c.routerLn.close()
		c.router.Close()
		c.router = nil
	}
	c.follower.close()
	c.follower = nil
}

func (c *cluster) close() error {
	c.stopReplication()
	return c.leader.close()
}

// stateHash digests a system's user-visible state: every material with its
// metadata and classification set, in id order, and the pending review
// queue. Restoring a checkpoint may renumber relational rows, so the digest
// covers what users read, not storage layout.
func stateHash(sys *core.System) string {
	h := sha256.New()
	mats := sys.View().Materials("")
	sort.Slice(mats, func(i, j int) bool { return mats[i].ID < mats[j].ID })
	join := func(xs []string) string { return strings.Join(xs, "\x1d") }
	for _, m := range mats {
		fmt.Fprintf(h, "%s\x1f%s\x1f%s\x1f%s\x1f%s\x1f%s\x1f%s\x1f%s\x1f%d\x1f%s\x1f%s\x1f%s\x1f%s\x1e",
			m.ID, m.Title, join(m.Authors), m.URL, m.Description, m.Kind, m.Level,
			m.Language, m.Year, m.Collection, join(m.Datasets), join(m.Tags), join(m.ClassificationIDs()))
	}
	for _, s := range sys.Workflow().Pending() {
		fmt.Fprintf(h, "sub\x1f%d\x1f%s\x1f%s\x1e", s.ID, s.Submitter, s.Material.ID)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// copyDir copies the regular files of a journal directory: the crash image
// of a node whose every acknowledged write has been fsynced.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
