// Command carcs-server runs the CAR-CS web service: the reproduction's
// equivalent of the paper's Django/Heroku prototype. It seeds the system
// with the three paper collections (Nifty, Peachy, ITCS 3145), registers a
// default editor account, and serves the JSON API.
//
// Usage:
//
//	carcs-server [-addr :8080] [-empty] [-data DIR] [-pprof]
//	carcs-server -addr :8081 -follow http://leader:8080
//	carcs-server -addr :8090 -route http://leader:8080,http://f1:8081,http://f2:8082
//
// With -data, every mutation is journaled to DIR before it is applied and
// periodic checkpoints compact the journal; restarting with the same DIR
// restores the full state, including anything written between checkpoints.
// SIGINT/SIGTERM drain in-flight requests and write a final checkpoint.
// A durable node also serves the replication endpoints, so any -data
// server can act as a leader.
//
// With -follow, the process bootstraps from the leader's checkpoint and
// tails its WAL, serving read-only replicas of the leader's state (writes
// get 503 + a Leader header). A follower that falls behind the leader's
// retention horizon re-bootstraps itself in process. Adding -data alongside
// -follow arms promotion: POST /api/replication/promote turns the follower
// into the leader of the next epoch, journaling to the -data directory from
// then on. With -route, the process is a router over the listed backends:
// leadership is discovered by probing each backend's role and epoch, reads
// fan out across in-sync followers with the leader as fallback, and writes
// follow whichever backend leads the highest epoch — a backend still
// claiming a superseded epoch is ejected and fenced.
//
// Try:
//
//	curl localhost:8080/api/status
//	curl localhost:8080/api/health
//	curl 'localhost:8080/api/coverage?ontology=pdc12&collection=itcs3145'
//	curl 'localhost:8080/api/similarity?left=nifty&right=peachy'
//	curl 'localhost:8080/api/ontologies/cs13/search?q=parallel'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"carcs/internal/core"
	"carcs/internal/replica"
	"carcs/internal/resilience"
	"carcs/internal/server"
	"carcs/internal/workflow"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	empty := flag.Bool("empty", false, "start without the seeded collections")
	dataDir := flag.String("data", "", "durable data directory (empty = in-memory only)")
	ckptEvery := flag.Duration("checkpoint-interval", time.Minute, "background checkpoint interval when -data is set")
	pprofOn := flag.Bool("pprof", false, "serve profiling handlers under /debug/pprof/")
	limitInitial := flag.Int("limit-initial", 0, "starting concurrency limit (0 = default)")
	limitMax := flag.Int("limit-max", 0, "concurrency limit ceiling (0 = default)")
	latencyTarget := flag.Duration("latency-target", 0, "service-latency setpoint for the adaptive limiter (0 = default)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client request rate limit in req/s (0 = disabled)")
	rateBurst := flag.Float64("rate-burst", 0, "per-client burst allowance when -rate-limit is set (0 = default)")
	staleGens := flag.Uint64("stale-generations", 1, "how many generations behind a shed read may serve from cache (0 = never serve stale)")
	follow := flag.String("follow", "", "run as a read-only follower of this leader URL (add -data to arm promotion)")
	route := flag.String("route", "", "run as a router over these comma-separated backend URLs (leadership is probed)")
	routeMaxLag := flag.Uint64("route-max-lag", 0, "router staleness budget in journal sequences (0 = default)")
	routeTimeout := flag.Duration("route-timeout", 0, "router per-backend read timeout (0 = default)")
	routeProbe := flag.Duration("route-probe-interval", 0, "router health-probe interval (0 = default)")
	commitBatch := flag.Int("commit-batch", 0, "max journal records coalesced into one group-commit fsync (0 = default)")
	commitWindow := flag.Duration("commit-window", 0, "how long a group commit waits for siblings once two writers are pending (0 = default)")
	tenantQuota := flag.Int("tenant-quota", 0, "per-workspace material-count quota (0 = unlimited)")
	flag.Parse()

	res := server.ResilienceConfig{
		Limiter: resilience.LimiterConfig{
			Initial:       *limitInitial,
			Max:           *limitMax,
			LatencyTarget: *latencyTarget,
		},
		StaleGenerations: *staleGens,
	}
	if *rateLimit > 0 {
		res.RateLimit = &resilience.RateLimiterConfig{
			RatePerSecond: *rateLimit,
			Burst:         *rateBurst,
		}
	}

	var err error
	switch {
	case *follow != "" && *route != "":
		err = errors.New("-follow and -route are mutually exclusive")
	case *follow != "":
		err = runFollower(*addr, *follow, *dataDir, *pprofOn, res, *commitBatch, *commitWindow)
	case *route != "":
		err = runRouter(*addr, *route, *routeMaxLag, *routeTimeout, *routeProbe)
	default:
		err = run(*addr, *empty, *dataDir, *ckptEvery, *pprofOn, res, *commitBatch, *commitWindow, *tenantQuota)
	}
	if err != nil {
		log.Fatalf("carcs-server: %v", err)
	}
}

func run(addr string, empty bool, dataDir string, ckptEvery time.Duration, pprofOn bool, res server.ResilienceConfig, commitBatch int, commitWindow time.Duration, tenantQuota int) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		sys       *core.System
		persister *core.Persister
		err       error
	)
	if dataDir != "" {
		sys, persister, err = core.OpenDurable(dataDir, core.DurableOptions{
			Seed:         !empty,
			CommitBatch:  commitBatch,
			CommitWindow: commitWindow,
		})
	} else if empty {
		sys, err = core.New()
	} else {
		sys, err = core.NewSeeded()
	}
	if err != nil {
		return err
	}
	sys.Workflow().Register("editor", workflow.RoleEditor)
	sys.Workflow().Register("submitter", workflow.RoleSubmitter)

	srv := server.New(sys, os.Stderr)
	srv.SetResilience(res)
	if pprofOn {
		srv.EnablePprof()
		fmt.Println("carcs-server: profiling enabled at /debug/pprof/")
	}
	if persister != nil {
		// The durable workspace set owns tenant creation (journaled,
		// checkpointed); routes under /api/t/{name}/ resolve against it.
		srv.SetWorkspaces(persister.Workspaces())
		srv.SetPersister(persister)
		if ckptEvery > 0 {
			persister.Start(ckptEvery)
		}
		// A durable node exposes the replication endpoints, so followers
		// can bootstrap from its checkpoint and tail its WAL.
		srv.SetHub(replica.NewHub(persister, 0))
		fmt.Printf("carcs-server: journaling to %s (checkpoint every %v)\n", dataDir, ckptEvery)
		fmt.Println("carcs-server: replication endpoints at /api/replication/{checkpoint,wal}")
	}
	if tenantQuota > 0 {
		srv.Workspaces().SetQuota(tenantQuota)
		fmt.Printf("carcs-server: per-workspace material quota %d\n", tenantQuota)
	}

	st := sys.View().Stats()
	fmt.Printf("carcs-server: %d materials in %v, CS13 %d entries, PDC12 %d entries\n",
		st.Materials, st.Collections, st.CS13Size, st.PDC12Size)
	fmt.Printf("carcs-server: listening on %s\n", addr)

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()

	select {
	case err := <-serveErr:
		if persister != nil {
			persister.Close()
		}
		return err
	case <-ctx.Done():
		stop() // a second signal now kills the process immediately
		fmt.Println("carcs-server: shutting down")
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := httpSrv.Shutdown(shutCtx)
	// Drain background import jobs after the listener stops accepting new
	// submissions and before the final checkpoint, so the checkpoint
	// includes everything the jobs committed. On timeout, jobs are
	// cancelled between items — partial progress is already journaled.
	if err := srv.DrainJobs(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "carcs-server: job drain:", err)
	}
	if persister != nil {
		// Final checkpoint after the last request drains, so a clean
		// shutdown always restarts from a compact snapshot.
		if err := persister.Close(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		fmt.Println("carcs-server: final checkpoint written")
	}
	if shutErr != nil && !errors.Is(shutErr, http.ErrServerClosed) {
		return shutErr
	}
	return nil
}

// runFollower bootstraps from the leader's checkpoint and serves read-only
// replicas of its state, tailing the WAL in the background. Falling behind
// the leader's retention horizon self-heals with an in-process
// re-bootstrap; only exhausted re-bootstrap attempts or an apply divergence
// exit the process for a supervisor restart. When dataDir is set, promotion
// is armed: POST /api/replication/promote turns this process into the
// leader of the next epoch, journaling to dataDir, and the process keeps
// serving.
func runFollower(addr, leaderURL, dataDir string, pprofOn bool, res server.ResilienceConfig, commitBatch int, commitWindow time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The leader may still be starting; retry the bootstrap with backoff
	// until it answers or we are told to shut down.
	var (
		f   *replica.Follower
		err error
	)
	bo := &resilience.Backoff{Max: 10 * time.Second}
	for {
		f, err = replica.Bootstrap(ctx, replica.FollowerConfig{LeaderURL: leaderURL})
		if err == nil {
			break
		}
		fmt.Fprintf(os.Stderr, "carcs-server: bootstrap from %s: %v (retrying)\n", leaderURL, err)
		if serr := bo.Sleep(ctx); serr != nil {
			return fmt.Errorf("bootstrap from %s: %w", leaderURL, err)
		}
	}
	fmt.Printf("carcs-server: bootstrapped from %s at seq %d\n", leaderURL, f.Applied())

	// No local account registration: a follower's accounts, like the rest
	// of its state, are whatever the leader's WAL says they are.
	srv := server.New(f.System(), os.Stderr)
	srv.SetWorkspaces(f.Workspaces())
	srv.SetResilience(res)
	srv.SetFollower(f)
	if dataDir != "" {
		srv.SetPromotion(dataDir, "", core.DurableOptions{
			CommitBatch:  commitBatch,
			CommitWindow: commitWindow,
		})
		fmt.Printf("carcs-server: promotion armed, journal target %s\n", dataDir)
	}
	if pprofOn {
		srv.EnablePprof()
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	runErr := make(chan error, 1)
	go func() { runErr <- f.Run(ctx) }()
	fmt.Printf("carcs-server: following %s, listening on %s\n", leaderURL, addr)

serving:
	for {
		select {
		case err := <-serveErr:
			if p := srv.Persister(); p != nil {
				p.Close()
			}
			return err
		case err := <-runErr:
			switch {
			case errors.Is(err, context.Canceled):
				break serving // shutdown signal, fall through to drain
			case errors.Is(err, replica.ErrPromoted):
				// The promote endpoint took over: this process now leads
				// the next epoch and keeps serving.
				fmt.Printf("carcs-server: promoted to leader at seq %d\n", f.Applied())
				continue
			}
			// Replication cannot continue (re-bootstrap attempts exhausted,
			// or an apply diverged): serving ever-staler reads silently
			// would be worse than restarting into a clean bootstrap.
			httpSrv.Close()
			return fmt.Errorf("replication stopped: %w", err)
		case <-ctx.Done():
			stop()
			fmt.Println("carcs-server: shutting down")
			break serving
		}
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := httpSrv.Shutdown(shutCtx)
	if err := srv.DrainJobs(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "carcs-server: job drain:", err)
	}
	if p := srv.Persister(); p != nil {
		// This follower was promoted mid-run and owns a journal now: close
		// it through the same final-checkpoint path a -data leader takes.
		if err := p.Close(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		fmt.Println("carcs-server: final checkpoint written")
	}
	if shutErr != nil && !errors.Is(shutErr, http.ErrServerClosed) {
		return shutErr
	}
	return nil
}

// runRouter serves the thin read router over the listed backends.
func runRouter(addr, backends string, maxLag uint64, timeout, probe time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var urls []string
	for _, b := range strings.Split(backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	rt, err := replica.NewRouter(replica.RouterConfig{
		Backends:       urls,
		MaxLag:         maxLag,
		BackendTimeout: timeout,
		ProbeInterval:  probe,
	})
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           rt,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Printf("carcs-server: routing %d backends (leadership probed), listening on %s\n",
		len(urls), addr)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		stop()
		fmt.Println("carcs-server: shutting down")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
