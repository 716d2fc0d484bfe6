package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"carcs/internal/cache"
	"carcs/internal/core"
	"carcs/internal/ingest"
	"carcs/internal/journal"
)

const (
	// senders is the number of client connections, one goroutine each: the
	// host's core count, so the generator never outnumbers the server.
	senders = 2
	// rounds splits the measured seconds into this many rounds of an
	// open-loop segment followed by a closed-loop window. Set-ups,
	// recoveries and bulk imports run between rounds. Every figure is a
	// median over measurements spread across the whole run, because the
	// host's speed drifts over seconds and a contiguous phase can fall
	// entirely inside a slow stretch.
	rounds = 10
	// setups is how many times a run builds its starting state.
	setups = 3
	// repeats is how many recoveries (and, for ingest, bulk imports) a run
	// times.
	repeats = 4
	// warmup runs the open-loop schedule untimed so caches and lazily built
	// structures are in place before measuring.
	warmup = time.Second
	// openShare is the part of each round spent open-loop; workloads whose
	// capacity comes from bulk imports spend the whole round open-loop.
	openShare = 0.6
	// closedBatch bounds the operations drawn for one closed-loop window; a
	// system fast enough to exhaust it ends the window early, and the rate
	// is taken over the stretch that ran.
	closedBatch = 4000
	// replayChunk matches the records core.OpenDurable applies per lock hold.
	replayChunk = 256
)

// runner executes one workload run.
type runner struct {
	w       workload
	seed    int64
	seconds int
	dir     string
	tr      *tracer // nil on untraced runs

	c   *cluster
	cl  *client
	g   *gen
	clk clock

	// added and reviewed count what import operations put into the live
	// node: materials, and submissions sent to review.
	added, reviewed atomic.Int64
	base            int // materials present after set-up

	setups, restarts, replays, bulks []float64
	attempted, failed                int
	detail                           map[string]float64
}

// result is what one run measured.
type result struct {
	metrics map[string]float64
	detail  map[string]float64
}

func (r *runner) run(ctx context.Context) (*result, error) {
	r.clk = realClock{}
	r.detail = map[string]float64{}
	segment := time.Duration(float64(r.seconds) * float64(time.Second) / rounds)
	open := segment
	if r.w.bulk == 0 {
		open = time.Duration(openShare * float64(segment))
	}

	// The kept set-up is the traced one; the other two run between rounds.
	r.setTrace(true)
	c, err := r.setup(0)
	r.setTrace(false)
	if err != nil {
		return nil, err
	}
	r.c = c
	defer r.c.close()
	r.cl = newClient(senders, r.tr)
	defer r.cl.close()
	ids := materialIDs(c.leader.sys)
	r.base = len(ids)
	r.g = newGen(r.w, r.seed, ids, warmup+rounds*open)
	if _, err := openLoop(ctx, r.clk, r.g.schedule(warmup), senders, r.exec); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	p, err := r.play(ctx, segment, open)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	res := &result{detail: r.detail}
	if r.tr != nil {
		r.setTrace(true)
		probes, err := r.probe(ctx)
		r.setTrace(false)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		if err := r.verify(); err != nil {
			return nil, err
		}
		if base := median(p.plainP50s); base > 0 {
			probes["trace.overhead_frac"] = median(p.tracedP50s)/base - 1
		}
		res.metrics = r.layers(p.all, probes)
		return res, nil
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	res.metrics = map[string]float64{
		"setup_s":        median(r.setups),
		"op_p50_ms":      median(p.p50s),
		"op_tail_ms":     median(p.tails),
		"capacity_per_s": median(p.capacities),
		"restart_s":      median(r.restarts),
		"replay_s":       median(r.replays),
		"heap_mb":        heapMB,
	}
	return res, nil
}

// played is what the rounds measured: per-round figures, and every
// open-loop timing.
type played struct {
	p50s, tails, capacities []float64
	// tracedP50s and plainP50s split p50s by whether the round was traced.
	tracedP50s, plainP50s []float64
	all                   []timing
}

// play runs the rounds, with the set-ups, recoveries and bulk imports
// between them. A traced run traces every other round, so the traced and
// untraced rounds' latencies give the tracing overhead.
func (r *runner) play(ctx context.Context, segment, open time.Duration) (*played, error) {
	gaps := distribute(r.gapTasks(), rounds-1)
	cache0, gen0 := cacheTotals(r.readSystems()), r.c.leader.sys.Generation()
	level := tailLevel(int(math.Round(r.w.rate() * open.Seconds())))
	p := &played{}
	for i := 0; i < rounds; i++ {
		traced := r.tr != nil && i%2 == 1
		r.setTrace(traced)
		stop := r.watchLag(traced)
		runtime.GC()
		lat, err := openLoop(ctx, r.clk, r.g.schedule(open), senders, r.exec)
		stop()
		if err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
		ok := r.count(lat)
		p.p50s = append(p.p50s, ok.pct(50, time.Millisecond))
		p.tails = append(p.tails, ok.pct(level, time.Millisecond))
		if traced {
			p.tracedP50s = append(p.tracedP50s, p.p50s[i])
		} else {
			p.plainP50s = append(p.plainP50s, p.p50s[i])
		}
		p.all = append(p.all, lat...)
		if r.w.bulk == 0 {
			runtime.GC()
			rate, err := r.closedWindow(ctx, segment-open)
			if err != nil {
				return nil, err
			}
			p.capacities = append(p.capacities, rate)
		}
		r.setTrace(false)
		if i < len(gaps) {
			for _, task := range gaps[i] {
				if err := task(); err != nil {
					return nil, err
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if r.w.bulk > 0 {
		p.capacities = r.bulks
	}
	cache1 := cacheTotals(r.readSystems())
	r.detail["cache_hits"] = float64(cache1.Hits - cache0.Hits)
	r.detail["cache_misses"] = float64(cache1.Misses - cache0.Misses)
	r.detail["cache_evictions"] = float64(cache1.Evictions - cache0.Evictions)
	r.detail["generations"] = float64(r.c.leader.sys.Generation() - gen0)
	r.detail["tail_percentile"] = level
	r.describe(p.all)
	return p, nil
}

func (r *runner) setTrace(on bool) {
	if r.tr != nil {
		r.tr.on.Store(on)
	}
}

// count adds a segment's operations to the attempted and failed totals and
// returns the latencies of those that succeeded.
func (r *runner) count(lat []timing) sample {
	var ok sample
	for _, t := range lat {
		r.attempted++
		if t.failed {
			r.failed++
		} else {
			ok.add(t.latency)
		}
	}
	return ok
}

// describe records supporting numbers for the result file: sample counts
// and per-route medians over all rounds.
func (r *runner) describe(all []timing) {
	byKind := map[opKind]sample{}
	n := 0
	for _, t := range all {
		if !t.failed {
			s := byKind[t.kind]
			s.add(t.latency)
			byKind[t.kind] = s
			n++
		}
	}
	for k, s := range byKind {
		r.detail[k.String()+"_p50_ms"] = s.pct(50, time.Millisecond)
	}
	r.detail["latency_samples"] = float64(n)
}

// distribute deals tasks out over n gaps as evenly as their order allows.
func distribute(tasks []func() error, n int) [][]func() error {
	gaps := make([][]func() error, n)
	for j, t := range tasks {
		g := j * n / len(tasks)
		gaps[g] = append(gaps[g], t)
	}
	return gaps
}

// gapTasks lists the work run between rounds: the recoveries (for ingest,
// bulk imports each followed by a recovery) with the extra set-ups placed
// among them.
func (r *runner) gapTasks() []func() error {
	var tasks []func() error
	for i := 0; i < repeats; i++ {
		if r.w.bulk > 0 {
			tasks = append(tasks, func() error { return r.bulkUnit(i) })
		} else {
			tasks = append(tasks, func() error { return r.recoveryUnit(r.c.leader, i) })
		}
		if k := (i + 1) / 2; i%2 == 1 && k < setups {
			tasks = append(tasks, func() error {
				c, err := r.setup(k)
				if err != nil {
					return err
				}
				if err := c.close(); err != nil {
					return fmt.Errorf("set-up: %w", err)
				}
				return os.RemoveAll(c.leader.dir)
			})
		}
	}
	return tasks
}

// setup builds the workload's starting state in a fresh directory and
// records how long it took.
func (r *runner) setup(i int) (*cluster, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("node%d", i))
	runtime.GC()
	t0 := time.Now()
	c, err := startCluster(dir, r.w, r.seed, r.tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	if c.follower != nil {
		r.detail["catchup_bootstrap_s"] = c.bootstrap.Seconds()
		r.detail["catchup_tail_s"] = c.tail.Seconds()
	}
	return c, nil
}

// exec performs one operation: HTTP against the cluster's front door, or an
// in-process import batch.
func (r *runner) exec(sender int, o *op) (time.Time, bool, error) {
	if o.kind == opImport {
		sum, err := importInto(r.c.leader.sys, o)
		r.added.Add(int64(sum.Added))
		r.reviewed.Add(int64(sum.Review))
		return time.Now(), false, err
	}
	return r.cl.do(sender, r.c.target, o)
}

// importInto runs one JSONL batch through ingest.Importer with 2 workers
// and the shipped auto-classification settings, and checks that every
// record was either added or sent to review.
func importInto(sys *core.System, o *op) (ingest.Summary, error) {
	imp := ingest.New(sys, ingest.Options{Workers: 2, Method: "tfidf"})
	sum, err := imp.Run(context.Background(), bytes.NewReader(o.body), nil)
	if err != nil {
		return sum, fmt.Errorf("import: %w", err)
	}
	if sum.Failed > 0 || sum.Skipped > 0 || sum.Added+sum.Review != o.records {
		return sum, fmt.Errorf("import of %d records: %+v", o.records, sum)
	}
	return sum, nil
}

// closedWindow runs both senders back to back for dur and returns the
// operations completed per second.
func (r *runner) closedWindow(ctx context.Context, dur time.Duration) (float64, error) {
	done, failed, elapsed, err := closedLoop(ctx, r.clk, r.g.sequence(closedBatch), senders, dur, r.exec)
	if err != nil {
		return 0, fmt.Errorf("closed loop: %w", err)
	}
	r.attempted += len(done) + failed
	r.failed += failed
	return float64(len(done)) / min(elapsed, dur).Seconds(), nil
}

// bulkUnit imports a bulk batch into a fresh seeded durable directory (the
// bulk import capacity figure), then recovers that directory: ingest's
// restart and replay describe a node that has just taken a bulk import.
func (r *runner) bulkUnit(i int) error {
	o := r.g.importBatch(r.w.bulk)
	dir := filepath.Join(r.dir, fmt.Sprintf("bulk%d", i))
	defer os.RemoveAll(dir)
	n, err := startNode(dir, 0, r.seed, nil)
	if err != nil {
		return err
	}
	before := n.sys.Len()
	runtime.GC()
	t0 := time.Now()
	sum, err := importInto(n.sys, &o)
	r.bulks = append(r.bulks, float64(o.records)/time.Since(t0).Seconds())
	r.attempted += o.records
	if err == nil && (n.sys.Len() != before+sum.Added || len(n.sys.Workflow().Pending()) != sum.Review) {
		err = fmt.Errorf("bulk import: %d materials and %d in review after %+v", n.sys.Len(), len(n.sys.Workflow().Pending()), sum)
	}
	if err == nil {
		err = r.recoveryUnit(n, i)
	}
	if cerr := n.close(); err == nil {
		err = cerr
	}
	return err
}

// recoveryUnit copies a quiescent node's directory, whose every
// acknowledged write has been fsynced, as a crash image and recovers it
// twice: core.OpenDurable on the image is a crash replay (checkpoint plus
// WAL), then Persister.Close plus core.OpenDurable is a graceful restart
// (checkpoint restore). Both must recover exactly the node's state.
func (r *runner) recoveryUnit(n *node, i int) error {
	want := stateHash(n.sys)
	dir := filepath.Join(r.dir, fmt.Sprintf("crash%d", i))
	defer os.RemoveAll(dir)
	if err := copyDir(n.dir, dir); err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	if r.tr != nil {
		return r.stagedRecovery(dir, want)
	}
	runtime.GC()
	t0 := time.Now()
	sys, p, err := core.OpenDurable(dir, core.DurableOptions{})
	r.replays = append(r.replays, time.Since(t0).Seconds())
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if stateHash(sys) != want {
		p.Close()
		return fmt.Errorf("replay: recovered state differs from the acknowledged state")
	}
	runtime.GC()
	t0 = time.Now()
	if err := p.Close(); err != nil {
		return fmt.Errorf("restart: close: %w", err)
	}
	sys, p, err = core.OpenDurable(dir, core.DurableOptions{})
	r.restarts = append(r.restarts, time.Since(t0).Seconds())
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	ok := stateHash(sys) == want
	if err := p.Close(); err != nil {
		return fmt.Errorf("restart: close: %w", err)
	}
	if !ok {
		return fmt.Errorf("restart: recovered state differs from the acknowledged state")
	}
	return nil
}

// stagedRecovery is recoveryUnit for traced runs: the same replay and
// restart, with core.OpenDurable's recovery split into its stages.
func (r *runner) stagedRecovery(dir, want string) error {
	r.setTrace(true)
	defer r.setTrace(false)
	var ws *core.Workspaces
	if err := r.tr.timed("replay", false, func() (err error) {
		ws, err = r.stagedOpen("replay", dir)
		return err
	}); err != nil {
		return fmt.Errorf("staged replay: %w", err)
	}
	if stateHash(ws.Default()) != want {
		return fmt.Errorf("staged replay: recovered state differs from the acknowledged state")
	}
	// The graceful restart closes a live persister, so open one (untraced)
	// over the replayed directory first.
	r.setTrace(false)
	_, p, err := core.OpenDurable(dir, core.DurableOptions{})
	r.setTrace(true)
	if err != nil {
		return fmt.Errorf("staged restart: %w", err)
	}
	if err := r.tr.timed("restart", false, func() (err error) {
		if err := r.tr.timed("restart/persister.close", false, p.Close); err != nil {
			return err
		}
		ws, err = r.stagedOpen("restart", dir)
		return err
	}); err != nil {
		return fmt.Errorf("staged restart: %w", err)
	}
	if stateHash(ws.Default()) != want {
		return fmt.Errorf("staged restart: recovered state differs from the acknowledged state")
	}
	return nil
}

// stagedOpen performs core.OpenDurable's recovery stage by stage through
// public calls, one span each named stage/step: checkpoint read, checkpoint
// restore, WAL scan, record apply.
func (r *runner) stagedOpen(stage, dir string) (*core.Workspaces, error) {
	st, err := journal.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var payload []byte
	if err := r.tr.timed(stage+"/journal.ckpt_read", false, func() (err error) {
		payload, _, err = st.Checkpoint()
		return err
	}); err != nil {
		return nil, err
	}
	var ws *core.Workspaces
	if err := r.tr.timed(stage+"/core.restore", false, func() (err error) {
		ws, err = core.RestoreWorkspaces(payload)
		return err
	}); err != nil {
		return nil, err
	}
	var recs []journal.Record
	if err := r.tr.timed(stage+"/journal.scan", false, func() error {
		_, err := st.Replay(func(rec journal.Record) error { recs = append(recs, rec); return nil })
		return err
	}); err != nil {
		return nil, err
	}
	err = r.tr.timed(stage+"/core.apply", false, func() error {
		for len(recs) > 0 {
			n := min(len(recs), replayChunk)
			if err := core.ApplyRecordsWorkspaces(ws, recs[:n]); err != nil {
				return err
			}
			recs = recs[n:]
		}
		return nil
	})
	return ws, err
}

// watchLag samples, while a traced segment runs, how many sequences the
// follower trails the leader. The returned func stops sampling.
func (r *runner) watchLag(on bool) func() {
	if !on || r.c.follower == nil {
		return func() {}
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				lead, applied := r.c.leader.p.Seq(), r.c.follower.f.Applied()
				if lead > applied {
					r.detail["lag_seq_max"] = max(r.detail["lag_seq_max"], float64(lead-applied))
				}
			}
		}
	}()
	return func() { close(done); <-stopped }
}

// verify runs the end-of-run correctness gates.
func (r *runner) verify() error {
	sys := r.c.leader.sys
	if got, want := sys.Len(), r.base+int(r.added.Load())+r.cl.created; got != want {
		return fmt.Errorf("%d materials, want %d: %d at set-up, %d imported, %d created", got, want, r.base, r.added.Load(), r.cl.created)
	}
	if got, want := len(sys.Workflow().Pending()), int(r.reviewed.Load()); got != want {
		return fmt.Errorf("%d submissions in review, want %d", got, want)
	}
	if f := r.c.follower; f != nil {
		seq := r.c.leader.p.Seq()
		if err := f.waitApplied(seq, 30*time.Second); err != nil {
			return err
		}
		if a, b := stateHash(sys), stateHash(f.f.System()); a != b {
			return fmt.Errorf("follower state differs from leader at seq %d", seq)
		}
	}
	return r.cl.readBack(r.c.target)
}

// readSystems are the systems serving reads: the leader, and the follower
// when there is one.
func (r *runner) readSystems() []*core.System {
	out := []*core.System{r.c.leader.sys}
	if f := r.c.follower; f != nil {
		out = append(out, f.f.System())
	}
	return out
}

// cacheTotals sums the result-cache counters of systems.
func cacheTotals(systems []*core.System) cache.Stats {
	var t cache.Stats
	for _, s := range systems {
		st := s.CacheStats()
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Evictions += st.Evictions
	}
	return t
}

func materialIDs(sys *core.System) []string {
	var ids []string
	for _, m := range sys.View().Materials("") {
		ids = append(ids, m.ID)
	}
	return ids
}
