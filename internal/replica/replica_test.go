// Tests live in replica_test because they drive full leader/follower/router
// topologies through the server package, which itself imports replica.
package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"carcs/internal/core"
	"carcs/internal/journal"
	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/replica"
	"carcs/internal/resilience"
	"carcs/internal/server"
	"carcs/internal/workflow"
)

// leaderNode is a durable carcs-server acting as a replication leader.
type leaderNode struct {
	sys *core.System
	p   *core.Persister
	srv *server.Server
	ts  *httptest.Server
}

func startLeader(t *testing.T) *leaderNode {
	t.Helper()
	return startLeaderWith(t, core.DurableOptions{})
}

func startLeaderWith(t *testing.T, opts core.DurableOptions) *leaderNode {
	t.Helper()
	sys, p, err := core.OpenDurable(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	sys.Workflow().Register("editor", workflow.RoleEditor)
	srv := server.New(sys, io.Discard)
	srv.SetPersister(p)
	srv.SetHub(replica.NewHub(p, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &leaderNode{sys: sys, p: p, srv: srv, ts: ts}
}

func (l *leaderNode) addMaterial(t *testing.T, id string) {
	t.Helper()
	err := l.sys.AddMaterial(&material.Material{
		ID: id, Title: "Material " + id, Kind: material.Assignment,
		Level: material.Intermediate, Collection: "drill",
	})
	if err != nil {
		t.Fatalf("add %s: %v", id, err)
	}
}

// followerNode is a read-only follower with a restartable HTTP listener.
type followerNode struct {
	f    *replica.Follower
	srv  *server.Server
	addr string

	hs     *http.Server
	cancel context.CancelFunc
	runErr chan error
}

func startFollower(t *testing.T, leaderURL string) *followerNode {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f, err := replica.Bootstrap(ctx, replica.FollowerConfig{
		LeaderURL:     leaderURL,
		PollWait:      2 * time.Second,
		ReconnectBase: 10 * time.Millisecond,
		ReconnectMax:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	srv := server.New(f.System(), io.Discard)
	srv.SetWorkspaces(f.Workspaces())
	srv.SetFollower(f)
	fn := &followerNode{f: f, srv: srv, runErr: make(chan error, 1)}
	fn.start(t, "127.0.0.1:0")
	t.Cleanup(func() { fn.kill(t) })
	return fn
}

// start listens on addr ("127.0.0.1:0" for the first boot, the recorded
// address on a restart) and launches both the HTTP listener and the
// replication loop.
func (fn *followerNode) start(t *testing.T, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("follower listen %s: %v", addr, err)
	}
	fn.addr = ln.Addr().String()
	fn.hs = &http.Server{Handler: fn.srv}
	go fn.hs.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	fn.cancel = cancel
	fn.runErr = make(chan error, 1)
	go func() { fn.runErr <- fn.f.Run(ctx) }()
}

// kill simulates a crash: the replication loop stops and the listener drops
// every connection immediately (no graceful drain).
func (fn *followerNode) kill(t *testing.T) {
	t.Helper()
	if fn.cancel == nil {
		return
	}
	fn.cancel()
	fn.cancel = nil
	_ = fn.hs.Close()
	select {
	case <-fn.runErr:
	case <-time.After(10 * time.Second):
		t.Fatal("follower replication loop did not stop")
	}
}

func (fn *followerNode) url() string { return "http://" + fn.addr }

// waitApplied blocks until the follower has applied through seq.
func (fn *followerNode) waitApplied(t *testing.T, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for fn.f.Applied() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d", fn.f.Applied(), seq)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHubServesCheckpointAndWAL(t *testing.T) {
	l := startLeader(t)
	l.addMaterial(t, "m1")
	l.addMaterial(t, "m2")

	resp, err := http.Get(l.ts.URL + "/api/replication/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status = %d", resp.StatusCode)
	}
	if resp.Header.Get(replica.HeaderCheckpointSeq) == "" || len(body) == 0 {
		t.Fatalf("checkpoint response missing seq header or payload")
	}
	if _, err := core.RestoreWorkspaces(body); err != nil {
		t.Fatalf("served checkpoint does not restore: %v", err)
	}

	// The WAL stream from seq 0 must carry every record (registration +
	// both materials), CRC-framed, and end cleanly at the wait deadline.
	resp, err = http.Get(l.ts.URL + "/api/replication/wal?from=0&wait=50ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wal status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != replica.WALContentType {
		t.Fatalf("wal content type = %q", ct)
	}
	var seqs []uint64
	fr := journal.NewReader(resp.Body)
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		seqs = append(seqs, rec.Seq)
	}
	want := l.p.Seq()
	if len(seqs) == 0 || seqs[len(seqs)-1] != want {
		t.Fatalf("streamed seqs %v, want tail through %d", seqs, want)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("stream gap: %v", seqs)
		}
	}

	// Malformed cursor: 400 with the error envelope.
	resp, err = http.Get(l.ts.URL + "/api/replication/wal?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor status = %d, want 400", resp.StatusCode)
	}
}

func TestHubAnswersGoneBehindRetentionHorizon(t *testing.T) {
	// Build history and checkpoint it away BEFORE the hub attaches: the
	// ring never saw those records and the WAL is truncated, so a cursor
	// from before the checkpoint is unservable.
	dir := t.TempDir()
	sys, p, err := core.OpenDurable(dir, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sys.Workflow().Register("editor", workflow.RoleEditor)
	if err := sys.AddMaterial(&material.Material{
		ID: "old", Title: "Old", Kind: material.Assignment,
		Level: material.Intermediate, Collection: "drill",
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys, io.Discard)
	srv.SetPersister(p)
	srv.SetHub(replica.NewHub(p, 0))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/replication/wal?from=0&wait=50ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("status = %d, want 410 Gone", resp.StatusCode)
	}
	if resp.Header.Get(replica.HeaderCheckpointSeq) == "" {
		t.Fatal("410 missing the checkpoint-seq header directing the bootstrap")
	}
}

func TestFollowerReplicatesAndRejectsWrites(t *testing.T) {
	l := startLeader(t)
	l.addMaterial(t, "m1")
	fn := startFollower(t, l.ts.URL)

	l.addMaterial(t, "m2")
	l.addMaterial(t, "m3")
	fn.waitApplied(t, l.p.Seq())

	// The replicated state answers ordinary reads, stamped with the
	// staleness bound.
	resp, err := http.Get(fn.url() + "/api/materials")
	if err != nil {
		t.Fatal(err)
	}
	var listing []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing) != 3 {
		t.Fatalf("follower sees %d materials, want 3", len(listing))
	}
	if resp.Header.Get(replica.HeaderAppliedSeq) == "" {
		t.Fatal("follower read missing CARCS-Applied-Seq")
	}

	// A mutation on the follower: 503, Leader header, standard envelope
	// with Retry-After — even from a fully privileged account.
	req, _ := http.NewRequest(http.MethodPost, fn.url()+"/api/materials",
		strings.NewReader(`{"id":"nope","title":"X","kind":"assignment","level":"intermediate"}`))
	req.Header.Set("X-User", "editor")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower write status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Leader"); got != l.ts.URL {
		t.Fatalf("Leader header = %q, want %q", got, l.ts.URL)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("follower write rejection missing Retry-After")
	}
	var env struct {
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == "" || env.RetryAfterSeconds < 1 {
		t.Fatalf("rejection envelope = %+v, want error + retry_after_seconds", env)
	}

	// The follower's ready probe reports its applied seq for the router.
	resp, err = http.Get(fn.url() + "/api/health/ready")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready struct {
		Status string `json:"status"`
		Seq    uint64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "ready" || ready.Seq != l.p.Seq() {
		t.Fatalf("ready = %+v, want ready at seq %d", ready, l.p.Seq())
	}
}

func TestFollowerResumesAcrossLeaderCheckpoint(t *testing.T) {
	l := startLeader(t)
	fn := startFollower(t, l.ts.URL)
	l.addMaterial(t, "m1")
	fn.waitApplied(t, l.p.Seq())

	// Checkpoint truncates the leader's WAL; the hub ring must keep the
	// shipped tail alive so the follower's next resume still works.
	if err := l.p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fn.kill(t)
	l.addMaterial(t, "m2")
	fn.start(t, fn.addr)
	fn.waitApplied(t, l.p.Seq())

	var leaderSnap, followerSnap bytes.Buffer
	if err := l.sys.View().Snapshot(&leaderSnap); err != nil {
		t.Fatal(err)
	}
	if err := fn.f.System().View().Snapshot(&followerSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leaderSnap.Bytes(), followerSnap.Bytes()) {
		t.Fatal("follower state diverged from leader after checkpoint-crossing resume")
	}
}

func TestRouterRoutesReadsAndWrites(t *testing.T) {
	l := startLeader(t)
	l.addMaterial(t, "m1")
	fn := startFollower(t, l.ts.URL)
	fn.waitApplied(t, l.p.Seq())

	rt, err := replica.NewRouter(replica.RouterConfig{
		Backends:      []string{l.ts.URL, fn.url()},
		ProbeInterval: 25 * time.Millisecond,
		MaxLag:        100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()

	// Reads prefer the in-sync follower and say which backend answered.
	resp, err := http.Get(rts.URL + "/api/materials")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed read status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(replica.HeaderRoute); got != fn.url() {
		t.Fatalf("read routed to %q, want follower %q", got, fn.url())
	}

	// Writes go to the leader, and the commit replicates back out.
	req, _ := http.NewRequest(http.MethodPost, rts.URL+"/api/materials",
		strings.NewReader(`{"id":"viarouter","title":"Routed","kind":"assignment","level":"intermediate"}`))
	req.Header.Set("X-User", "editor")
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("routed write status = %d, want 201", resp.StatusCode)
	}
	if got := resp.Header.Get(replica.HeaderRoute); got != l.ts.URL {
		t.Fatalf("write routed to %q, want leader %q", got, l.ts.URL)
	}
	fn.waitApplied(t, l.p.Seq())
	if m := fn.f.System().View().Material("viarouter"); m == nil {
		t.Fatal("routed write did not replicate to the follower")
	}
}

// TestRouterLeaderCoolingFailureIs502 pins a regression: a failed read
// against a cooling leader was reported as served because the cumulative
// served counter was consulted instead of the attempt's own outcome, so
// clients received empty-body 200s during a leader outage.
func TestRouterLeaderCoolingFailureIs502(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true}`)
	}))
	defer backend.Close()

	rt, err := replica.NewRouter(replica.RouterConfig{
		Backends: []string{backend.URL},
		Breaker:  resilience.BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	get := func() (int, []byte) {
		t.Helper()
		resp, err := http.Get(rts.URL + "/api/materials")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// Seed one success so the leader's served counter is non-zero.
	if status, _ := get(); status != http.StatusOK {
		t.Fatalf("seed read status = %d, want 200", status)
	}

	backend.Close() // leader outage

	// The first failed attempt trips the breaker open.
	if status, _ := get(); status != http.StatusBadGateway {
		t.Fatalf("outage read status = %d, want 502", status)
	}

	// Breaker cooling: the last-resort attempt against the leader fails
	// too, and the client must see the 502 envelope, not an empty 200.
	status, body := get()
	if status != http.StatusBadGateway {
		t.Fatalf("cooling read status = %d (body %q), want 502", status, body)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
		t.Fatalf("cooling read body = %q, want error envelope", body)
	}
}

// TestWALStreamHeadersBeforeLongPoll pins a regression: an idle WAL
// long-poll sent no response headers until the wait deadline fired, so any
// client-side response-header timeout shorter than the poll window aborted
// every idle stream and flapped the follower's connection.
func TestWALStreamHeadersBeforeLongPoll(t *testing.T) {
	l := startLeader(t)
	l.addMaterial(t, "m1")

	client := &http.Client{Transport: &http.Transport{
		ResponseHeaderTimeout: 500 * time.Millisecond,
	}}
	start := time.Now()
	resp, err := client.Get(l.ts.URL + "/api/replication/wal?from=" +
		strconv.FormatUint(l.p.Seq(), 10) + "&wait=2s")
	if err != nil {
		t.Fatalf("idle long-poll aborted before headers: %v", err)
	}
	defer resp.Body.Close()
	if waited := time.Since(start); waited >= 2*time.Second {
		t.Fatalf("headers arrived after %v, want before the poll window ends", waited)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idle stream status = %d, want 200", resp.StatusCode)
	}
	if _, err := journal.NewReader(resp.Body).Next(); err != io.EOF {
		t.Fatalf("idle stream read = %v, want clean EOF at window end", err)
	}
}

// waitRouterSeesReady polls the router's health view until want backends
// report ready.
func waitRouterSeesReady(t *testing.T, routerURL string, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(routerURL + "/api/health")
		if err == nil {
			var health struct {
				Backends []struct {
					Ready bool `json:"ready"`
				} `json:"backends"`
			}
			err = json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			if err == nil {
				ready := 0
				for _, b := range health.Backends {
					if b.Ready {
						ready++
					}
				}
				if ready >= want {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never saw %d ready backends", want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// canonMaterials lists a system's materials with each one's classifications
// sorted by node: a checkpoint bootstrap rebuilds classifications in
// entry-row order, so only the set and its Bloom levels are meaningful.
func canonMaterials(s *core.System) []*material.Material {
	ms := s.View().Materials("")
	out := make([]*material.Material, len(ms))
	for i, m := range ms {
		c := m.Clone()
		sort.Slice(c.Classifications, func(a, b int) bool {
			return c.Classifications[a].NodeID < c.Classifications[b].NodeID
		})
		out[i] = c
	}
	return out
}

// TestFollowerBootstrapKeepsBloomLevels: a follower bootstrapped from the
// leader's checkpoint must hold every material with the leader's Bloom
// levels — the seeded ITCS 3145 ratings from the checkpoint and a rating
// streamed afterwards — so depth audits read the same on either node.
func TestFollowerBootstrapKeepsBloomLevels(t *testing.T) {
	l := startLeaderWith(t, core.DurableOptions{Seed: true})
	fn := startFollower(t, l.ts.URL)
	arrays := "acm-ieee-cs-curricula-2013/sdf/fundamental-data-structures/arrays"
	if err := l.sys.Reclassify(l.sys.View().Materials("nifty")[0].ID, []material.Classification{
		{NodeID: arrays, Bloom: ontology.BloomApply},
	}); err != nil {
		t.Fatal(err)
	}
	fn.waitApplied(t, l.p.Seq())

	want, got := canonMaterials(l.sys), canonMaterials(fn.f.System())
	rated := 0
	for _, m := range want {
		for _, cl := range m.Classifications {
			if cl.Bloom != ontology.BloomUnspecified {
				rated++
			}
		}
	}
	if rated < 2 {
		t.Fatalf("test setup: only %d rated classifications on the leader", rated)
	}
	if len(got) != len(want) {
		t.Fatalf("follower holds %d materials, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("follower material %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
