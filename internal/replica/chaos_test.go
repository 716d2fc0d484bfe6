package replica_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carcs/internal/replica"
)

// TestChaosReplicaKillDrill is the replication layer's acceptance drill:
// a leader, two followers, and a router take mixed read/write traffic while
// one follower is crashed mid-stream and restarted on the same address.
//
// It must hold that
//   - not a single routed read surfaces a 5xx while the follower is down
//     (the router retries onto the surviving backends),
//   - the restarted follower reconnects on its own, resumes from its last
//     applied sequence, and catches up to the leader, and
//   - the final follower states are byte-identical to the leader's.
func TestChaosReplicaKillDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill needs real listeners and wall-clock traffic")
	}
	l := startLeader(t)
	l.addMaterial(t, "seed-0")
	f1 := startFollower(t, l.ts.URL)
	f2 := startFollower(t, l.ts.URL)
	f1.waitApplied(t, l.p.Seq())
	f2.waitApplied(t, l.p.Seq())

	rt, err := replica.NewRouter(replica.RouterConfig{
		Backends:      []string{l.ts.URL, f1.url(), f2.url()},
		ProbeInterval: 50 * time.Millisecond,
		MaxLag:        1 << 20, // the drill exercises failover, not lag ejection
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()
	waitRouterSeesReady(t, rts.URL, 3)

	// Mixed traffic: one writer POSTing materials through the router, four
	// readers hammering read endpoints through it. Readers tally every
	// status >= 500 — the drill's zero-tolerance budget.
	var (
		stop        atomic.Bool
		read5xx     atomic.Uint64
		readTotal   atomic.Uint64
		writeErrs   atomic.Uint64
		writeTotal  atomic.Uint64
		trafficDone sync.WaitGroup
	)
	client := &http.Client{Timeout: 20 * time.Second}
	trafficDone.Add(1)
	go func() {
		defer trafficDone.Done()
		for i := 0; !stop.Load(); i++ {
			body := fmt.Sprintf(`{"id":"drill-%d","title":"Drill %d","kind":"assignment","level":"intermediate","collection":"drill"}`, i, i)
			req, _ := http.NewRequest(http.MethodPost, rts.URL+"/api/materials", strings.NewReader(body))
			req.Header.Set("X-User", "editor")
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			writeTotal.Add(1)
			if err != nil {
				writeErrs.Add(1)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				writeErrs.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	readPaths := []string{"/api/materials", "/api/status", "/api/materials", "/api/search?q=drill"}
	for ri := 0; ri < 4; ri++ {
		path := readPaths[ri%len(readPaths)]
		trafficDone.Add(1)
		go func(path string) {
			defer trafficDone.Done()
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

	// Let the cluster take healthy traffic, then crash follower 1 hard.
	time.Sleep(500 * time.Millisecond)
	appliedAtKill := f1.f.Applied()
	f1.kill(t)
	t.Logf("killed follower 1 at applied seq %d", appliedAtKill)

	// Traffic keeps flowing over the survivors while it is down.
	time.Sleep(1 * time.Second)

	// Restart on the SAME address with the same follower object: it must
	// resume from its last applied sequence, not re-bootstrap.
	f1.start(t, f1.addr)
	t.Log("restarted follower 1")

	// Let it rejoin under live traffic, then stop the load.
	time.Sleep(1 * time.Second)
	stop.Store(true)
	trafficDone.Wait()

	if got := read5xx.Load(); got != 0 {
		t.Fatalf("%d of %d routed reads answered 5xx during the drill", got, readTotal.Load())
	}
	if wt := writeTotal.Load(); wt == 0 {
		t.Fatal("writer made no requests")
	}
	if we := writeErrs.Load(); we > 0 {
		// Writes go straight to the always-up leader; they should not
		// have failed either.
		t.Fatalf("%d of %d routed writes failed", we, writeTotal.Load())
	}
	if rtot := readTotal.Load(); rtot < 100 {
		t.Fatalf("only %d routed reads — the drill did not generate real load", rtot)
	}

	// The restarted follower must catch up to the leader's final horizon
	// from where it left off.
	finalSeq := l.p.Seq()
	f1.waitApplied(t, finalSeq)
	f2.waitApplied(t, finalSeq)
	if f1.f.Applied() < appliedAtKill {
		t.Fatalf("follower restarted behind its pre-kill cursor: %d < %d", f1.f.Applied(), appliedAtKill)
	}

	// Byte-identical state: leader vs both followers.
	var leaderSnap bytes.Buffer
	if err := l.sys.View().Snapshot(&leaderSnap); err != nil {
		t.Fatal(err)
	}
	for i, fn := range []*followerNode{f1, f2} {
		var snap bytes.Buffer
		if err := fn.f.System().View().Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(leaderSnap.Bytes(), snap.Bytes()) {
			t.Fatalf("follower %d state diverged from leader (%d vs %d snapshot bytes)",
				i+1, snap.Len(), leaderSnap.Len())
		}
	}
	t.Logf("drill: %d reads (0 5xx), %d writes, follower resumed %d -> %d",
		readTotal.Load(), writeTotal.Load(), appliedAtKill, finalSeq)
}
