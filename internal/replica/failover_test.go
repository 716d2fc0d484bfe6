// Failover tests: follower promotion, epoch fencing, follower self-heal,
// and the leader-kill chaos drill.
package replica_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carcs/internal/core"
	"carcs/internal/material"
	"carcs/internal/replica"
	"carcs/internal/server"
	"carcs/internal/workflow"
)

// promoteResp is the POST /api/replication/promote answer.
type promoteResp struct {
	Role     string `json:"role"`
	Epoch    uint64 `json:"epoch"`
	Seq      uint64 `json:"seq"`
	Promoted bool   `json:"promoted"`
}

// promote POSTs the promotion request to a follower and decodes the answer.
func promote(t *testing.T, followerURL, advertise string) (promoteResp, int) {
	t.Helper()
	body := strings.NewReader(fmt.Sprintf(`{"advertise":%q}`, advertise))
	resp, err := http.Post(followerURL+"/api/replication/promote", "application/json", body)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer resp.Body.Close()
	var pr promoteResp
	_ = json.NewDecoder(resp.Body).Decode(&pr)
	return pr, resp.StatusCode
}

// postMaterial writes one material as the editor account, returning the
// response (body drained and closed) for status/header assertions.
func postMaterial(t *testing.T, client *http.Client, baseURL, id string) *http.Response {
	t.Helper()
	body := fmt.Sprintf(`{"id":%q,"title":"Material %s","kind":"assignment","level":"intermediate","collection":"drill"}`, id, id)
	req, err := http.NewRequest(http.MethodPost, baseURL+"/api/materials", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-User", "editor")
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("post material %s: %v", id, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

func TestPromoteFollowerTakesOverWrites(t *testing.T) {
	l := startLeader(t)
	l.addMaterial(t, "m1")
	l.addMaterial(t, "m2")
	fn := startFollower(t, l.ts.URL)
	fn.srv.SetPromotion(t.TempDir(), "", core.DurableOptions{})
	fn.waitApplied(t, l.p.Seq())
	handoverSeq := l.p.Seq()

	pr, code := promote(t, fn.url(), fn.url())
	if code != http.StatusOK {
		t.Fatalf("promote status = %d, want 200", code)
	}
	if pr.Role != "leader" || pr.Epoch != 1 || !pr.Promoted {
		t.Fatalf("promote answer = %+v, want promoted leader at epoch 1", pr)
	}
	if pr.Seq != handoverSeq {
		t.Fatalf("promoted at seq %d, want the replicated horizon %d", pr.Seq, handoverSeq)
	}

	// The promoted node answers writes — the editor registration rode the
	// replicated WAL, so the same credentials work on the new leader.
	if resp := postMaterial(t, http.DefaultClient, fn.url(), "m3"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("write on promoted leader = %d, want 201", resp.StatusCode)
	}

	// Promotion is idempotent: asking again reports the current identity.
	pr, code = promote(t, fn.url(), fn.url())
	if code != http.StatusOK || pr.Promoted || pr.Role != "leader" || pr.Epoch != 1 {
		t.Fatalf("second promote = %+v (status %d), want 200 leader/epoch 1/promoted=false", pr, code)
	}

	// The old leader was notified and fences itself: writes answer 503
	// with the new leader's location; reads keep flowing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := postMaterial(t, http.DefaultClient, l.ts.URL, "should-fence")
		if resp.StatusCode == http.StatusServiceUnavailable {
			if got := resp.Header.Get("Leader"); got != fn.url() {
				t.Fatalf("fenced Leader header = %q, want %q", got, fn.url())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old leader never fenced; last write status = %d", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err := http.Get(l.ts.URL + "/api/materials")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read on fenced leader = %d, want 200", resp.StatusCode)
	}

	// A brand-new follower bootstraps from the promoted leader and sees
	// both terms' history, stamped with the new epoch.
	nf := startFollower(t, fn.url())
	nf.waitApplied(t, handoverSeq+1)
	if got := nf.f.System().Len(); got != 3 {
		t.Fatalf("new follower sees %d materials, want 3", got)
	}
	if got := nf.f.Epoch(); got != 1 {
		t.Fatalf("new follower epoch = %d, want 1", got)
	}
}

func TestPromoteRequiresArming(t *testing.T) {
	l := startLeader(t)
	l.addMaterial(t, "m1")
	fn := startFollower(t, l.ts.URL)
	// No SetPromotion: the node has no data dir to adopt the state into.
	if _, code := promote(t, fn.url(), fn.url()); code != http.StatusConflict {
		t.Fatalf("unarmed promote status = %d, want 409", code)
	}
}

func TestFollowerSelfHealsPastRetentionHorizon(t *testing.T) {
	// A leader whose hub retains only ONE record in its ring, so any
	// checkpoint strands a disconnected follower behind the horizon.
	sys, p, err := core.OpenDurable(t.TempDir(), core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	sys.Workflow().Register("editor", workflow.RoleEditor)
	srv := server.New(sys, io.Discard)
	srv.SetWorkspaces(p.Workspaces())
	srv.SetPersister(p)
	srv.SetHub(replica.NewHub(p, 1))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	add := func(id string) {
		t.Helper()
		if err := sys.AddMaterial(&material.Material{
			ID: id, Title: "Material " + id, Kind: material.Assignment,
			Level: material.Intermediate, Collection: "drill",
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("m1")
	fn := startFollower(t, ts.URL)
	fn.waitApplied(t, p.Seq())

	// Crash the follower, move history past it, and checkpoint: the WAL
	// truncates and the one-slot ring cannot serve its old cursor.
	fn.kill(t)
	for i := 2; i <= 6; i++ {
		add(fmt.Sprintf("m%d", i))
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// On restart the resume cursor answers 410 Gone; the follower must
	// re-bootstrap in process — no operator, no restart — and catch up.
	fn.start(t, fn.addr)
	fn.waitApplied(t, p.Seq())
	if got := fn.f.Rebootstraps(); got < 1 {
		t.Fatalf("rebootstraps = %d, want >= 1", got)
	}
	if got := fn.f.System().Len(); got != 6 {
		t.Fatalf("follower sees %d materials after self-heal, want 6", got)
	}

	// The follower's HTTP surface serves the adopted state (the server
	// resolves workspaces through the swapped set) and reports the heal.
	resp, err := http.Get(fn.url() + "/api/materials")
	if err != nil {
		t.Fatal(err)
	}
	var listing []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing) != 6 {
		t.Fatalf("follower HTTP listing has %d materials, want 6", len(listing))
	}
	resp, err = http.Get(fn.url() + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Replication *replica.Status `json:"replication"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Replication == nil || health.Replication.Rebootstraps < 1 {
		t.Fatalf("health replication block = %+v, want rebootstraps >= 1", health.Replication)
	}
}

// killableLeader is a durable leader on a restartable listener, so the
// chaos drill can crash it hard and later revive it on the same address.
type killableLeader struct {
	sys  *core.System
	p    *core.Persister
	srv  *server.Server
	addr string
	hs   *http.Server
}

func startKillableLeader(t *testing.T) *killableLeader {
	t.Helper()
	sys, p, err := core.OpenDurable(t.TempDir(), core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	sys.Workflow().Register("editor", workflow.RoleEditor)
	srv := server.New(sys, io.Discard)
	srv.SetWorkspaces(p.Workspaces())
	srv.SetPersister(p)
	srv.SetHub(replica.NewHub(p, 0))
	kl := &killableLeader{sys: sys, p: p, srv: srv}
	kl.serve(t, "127.0.0.1:0")
	t.Cleanup(func() { _ = kl.hs.Close() })
	return kl
}

func (kl *killableLeader) serve(t *testing.T, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("leader listen %s: %v", addr, err)
	}
	kl.addr = ln.Addr().String()
	kl.hs = &http.Server{Handler: kl.srv}
	go kl.hs.Serve(ln)
}

func (kl *killableLeader) kill()               { _ = kl.hs.Close() }
func (kl *killableLeader) revive(t *testing.T) { kl.serve(t, kl.addr) }
func (kl *killableLeader) url() string         { return "http://" + kl.addr }

func (kl *killableLeader) addMaterial(t *testing.T, id string) {
	t.Helper()
	if err := kl.sys.AddMaterial(&material.Material{
		ID: id, Title: "Material " + id, Kind: material.Assignment,
		Level: material.Intermediate, Collection: "drill",
	}); err != nil {
		t.Fatalf("add %s: %v", id, err)
	}
}

// TestChaosLeaderKillFailover is the failover acceptance drill: a leader,
// a promotion-armed follower, a plain follower, and a router take mixed
// traffic; the leader is crashed hard; the armed follower is promoted; the
// old leader is later revived and must be fenced out.
//
// It must hold that
//   - not a single routed read surfaces a 5xx at any point in the drill,
//   - every write the cluster ever acknowledged (201) is present on the
//     new leader — zero acked-write loss,
//   - during the election window routed writes answer 503 with Retry-After
//     (an honest "retry shortly", never a hang or a bare 502),
//   - the promoted leader's state at the handover sequence is byte-
//     identical to the old leader's, and
//   - the revived old leader refuses writes with 503 + the new leader's
//     location.
func TestChaosLeaderKillFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill needs real listeners and wall-clock traffic")
	}
	l := startKillableLeader(t)
	l.addMaterial(t, "seed-0")
	f1 := startFollower(t, l.url())
	f1.srv.SetPromotion(t.TempDir(), "", core.DurableOptions{})
	f2 := startFollower(t, l.url())
	f1.waitApplied(t, l.p.Seq())
	f2.waitApplied(t, l.p.Seq())

	rt, err := replica.NewRouter(replica.RouterConfig{
		Backends:      []string{l.url(), f1.url(), f2.url()},
		ProbeInterval: 50 * time.Millisecond,
		MaxLag:        1 << 20, // the drill exercises failover, not lag ejection
		ElectionWait:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()
	waitRouterSeesReady(t, rts.URL, 3)

	// Four readers hammer the router for the whole drill; every served
	// status >= 500 burns the zero-tolerance budget.
	var (
		stopReads sync.WaitGroup
		stop      atomic.Bool
		read5xx   atomic.Uint64
		readTotal atomic.Uint64
	)
	client := &http.Client{Timeout: 20 * time.Second}
	readPaths := []string{"/api/materials", "/api/status", "/api/materials", "/api/search?q=drill"}
	for ri := 0; ri < 4; ri++ {
		path := readPaths[ri%len(readPaths)]
		stopReads.Add(1)
		go func(path string) {
			defer stopReads.Done()
			for !stop.Load() {
				resp, err := client.Get(rts.URL + path)
				if err != nil {
					continue // a client-side error is not a served 5xx
				}
				readTotal.Add(1)
				if resp.StatusCode >= 500 {
					read5xx.Add(1)
					b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
					t.Errorf("routed read %s answered %d: %s", path, resp.StatusCode, b)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	// Phase 1: routed writes against the healthy cluster. Every 201 is an
	// acknowledgement the cluster must never lose.
	acked := make(map[string]bool)
	writeBurst := func(prefix string, n int, wantAcks bool) (acks, rejects int) {
		t.Helper()
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("%s-%d", prefix, i)
			resp := postMaterial(t, client, rts.URL, id)
			switch resp.StatusCode {
			case http.StatusCreated:
				acked[id] = true
				acks++
			case http.StatusServiceUnavailable:
				// The election window's honest answer; must carry Retry-After.
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("write 503 without Retry-After during election")
				}
				rejects++
			default:
				t.Errorf("routed write %s answered %d", id, resp.StatusCode)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if wantAcks && acks == 0 {
			t.Fatalf("burst %s: no write was acknowledged", prefix)
		}
		return acks, rejects
	}
	writeBurst("healthy", 50, true)

	// Quiesce writes and let both followers reach the leader's horizon, so
	// the handover point is a well-defined sequence. (Reads keep flowing.)
	f1.waitApplied(t, l.p.Seq())
	f2.waitApplied(t, l.p.Seq())
	handoverSeq := l.p.Seq()
	var preKill bytes.Buffer
	if err := l.sys.View().Snapshot(&preKill); err != nil {
		t.Fatal(err)
	}

	// Crash the leader hard and let the router's probes notice.
	l.kill()
	t.Logf("killed leader at seq %d", handoverSeq)
	time.Sleep(200 * time.Millisecond)

	// The election window: routed writes answer 503 + Retry-After.
	if acks, rejects := writeBurst("window", 3, false); acks != 0 || rejects != 3 {
		t.Fatalf("election-window burst: %d acks, %d rejects, want 0/3", acks, rejects)
	}

	// Promote the armed follower. It adopts the replicated state at the
	// handover sequence under epoch 1.
	pr, code := promote(t, f1.url(), f1.url())
	if code != http.StatusOK || !pr.Promoted || pr.Epoch != 1 {
		t.Fatalf("promote = %+v (status %d), want promoted at epoch 1", pr, code)
	}
	if pr.Seq != handoverSeq {
		t.Fatalf("promoted at seq %d, want %d", pr.Seq, handoverSeq)
	}

	// Byte-identical at equal seq: the new leader's state at the handover
	// sequence is exactly what the old leader acknowledged.
	var adopted bytes.Buffer
	if err := f1.f.System().View().Snapshot(&adopted); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preKill.Bytes(), adopted.Bytes()) {
		t.Fatalf("promoted state diverged from the old leader at seq %d (%d vs %d snapshot bytes)",
			handoverSeq, adopted.Len(), preKill.Len())
	}

	// Phase 2: the router discovers the new leader and writes flow again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := postMaterial(t, client, rts.URL, "failover-probe")
		if resp.StatusCode == http.StatusCreated {
			acked["failover-probe"] = true
			if got := resp.Header.Get(replica.HeaderEpoch); got != "1" {
				t.Fatalf("post-failover write epoch header = %q, want 1", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never routed a write to the new leader; last status %d", resp.StatusCode)
		}
		time.Sleep(25 * time.Millisecond)
	}
	writeBurst("newterm", 30, true)

	// Revive the old leader on its old address. It still believes it
	// leads at epoch 0; the router must fence it out, and it must refuse
	// writes pointing at the real leader.
	l.revive(t)
	t.Log("revived old leader")
	// Fencing is reactive: the router's next probe sweep spots the stale
	// claimant and delivers the deposition notice. Wait for the role to
	// flip (the router never ROUTES to a stale-epoch claimant, so routed
	// traffic is safe throughout this window), then assert the refusal.
	deadline = time.Now().Add(10 * time.Second)
	for {
		var zh struct {
			Role string `json:"role"`
		}
		resp, err := client.Get(l.url() + "/api/health")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&zh)
			resp.Body.Close()
		}
		if err == nil && zh.Role == "fenced" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revived old leader never fenced; role %q", zh.Role)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if resp := postMaterial(t, client, l.url(), "zombie-write"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write on fenced old leader = %d, want 503", resp.StatusCode)
	} else if got := resp.Header.Get("Leader"); got != f1.url() {
		t.Fatalf("fenced old leader points at %q, want %q", got, f1.url())
	}
	// Its reads stay up: a fenced node is a frozen replica, not a corpse.
	resp, err := client.Get(l.url() + "/api/materials")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read on fenced old leader = %d, want 200", resp.StatusCode)
	}
	writeBurst("postfence", 20, true)

	stop.Store(true)
	stopReads.Wait()

	if got := read5xx.Load(); got != 0 {
		t.Fatalf("%d of %d routed reads answered 5xx during the drill", got, readTotal.Load())
	}
	if rtot := readTotal.Load(); rtot < 100 {
		t.Fatalf("only %d routed reads — the drill did not generate real load", rtot)
	}

	// Zero acked-write loss: every 201 the cluster ever answered is
	// present on the current leader.
	view := f1.f.System().View()
	missing := 0
	for id := range acked {
		if view.Material(id) == nil {
			missing++
			t.Errorf("acked write %s lost across failover", id)
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acked writes lost", missing, len(acked))
	}

	// The bystander follower froze at the handover sequence (its leader
	// died there) with byte-identical state.
	if got := f2.f.Applied(); got != handoverSeq {
		t.Fatalf("bystander follower at seq %d, want %d", got, handoverSeq)
	}
	var bystander bytes.Buffer
	if err := f2.f.System().View().Snapshot(&bystander); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preKill.Bytes(), bystander.Bytes()) {
		t.Fatal("bystander follower state diverged from the handover snapshot")
	}

	// Role accounting on both sides of the fence.
	var health struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	for _, probe := range []struct {
		url, role string
		epoch     uint64
	}{{f1.url(), "leader", 1}, {l.url(), "fenced", 0}} {
		resp, err := client.Get(probe.url + "/api/health")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if health.Role != probe.role || health.Epoch != probe.epoch {
			t.Fatalf("%s reports %s/epoch %d, want %s/epoch %d",
				probe.url, health.Role, health.Epoch, probe.role, probe.epoch)
		}
	}
	t.Logf("drill: %d reads (0 5xx), %d acked writes all present, handover at seq %d",
		readTotal.Load(), len(acked), handoverSeq)
}
